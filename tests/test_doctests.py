"""The examples in the module docstrings run and print what they show."""

import doctest

import pytest

import ybhecke.hecke
import ybhecke.permutations
import ybhecke.poly
import ybhecke.schubert
import ybhecke.serialize


@pytest.mark.parametrize(
    "module",
    [ybhecke.poly, ybhecke.permutations, ybhecke.hecke, ybhecke.schubert, ybhecke.serialize],
    ids=lambda m: m.__name__,
)
def test_module_examples(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0 and attempted >= 1
