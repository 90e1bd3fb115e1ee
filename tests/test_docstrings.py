"""The examples in the package's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import hardycorners


def test_docstring_examples_hold():
    attempted = 0
    for info in pkgutil.iter_modules(hardycorners.__path__, "hardycorners."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0
