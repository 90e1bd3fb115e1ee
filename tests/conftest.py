"""Shared fixtures: the bundled domain specs, loaded once per session."""

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
