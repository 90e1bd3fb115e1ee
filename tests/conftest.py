"""Shared fixtures: the bundled domain specs, loaded once per session, and a CLI runner."""

import contextlib
import io
from typing import NamedTuple

import numpy as np
import pytest

from hardycorners.cli import load_spec
from hardycorners.domain import domain_from_spec


@pytest.fixture(scope="session")
def bidisk():
    return domain_from_spec(load_spec("bidisk"))


@pytest.fixture(scope="session")
def perturbed_bidisk():
    return domain_from_spec(load_spec("perturbed_bidisk"))


@pytest.fixture(scope="session")
def sphere():
    return domain_from_spec(load_spec("sphere"))


def random_unit_det_map(rng, scale=0.3):
    """A random complex 3x3 projective map, normalized to determinant one."""
    from hardycorners.projective import normalize_map

    m = np.eye(3, dtype=complex) + scale * (
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    )
    return normalize_map(m)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


class _Tee(io.StringIO):
    """A text stream that also copies what it is given into ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class Result(NamedTuple):
    """One CLI run: its exit code, stdout, stderr, and ``output``, both in the order written."""

    exit_code: int
    stdout: str
    stderr: str
    output: str


class Runner:
    """Runs a command line in this process, capturing stdout and stderr."""

    def invoke(self, main, args):
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue())


@pytest.fixture
def runner():
    return Runner()
