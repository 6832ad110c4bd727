"""Frozen value classes: construction, value semantics, immutability."""

import os
import subprocess
import sys

import pytest

import threshkit
from threshkit.records import frozen


@frozen
class Pair:
    left: int
    right: tuple = ()

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("negative")


@frozen
class Other:
    left: int
    right: tuple = ()


def test_init_takes_fields_in_order_with_defaults():
    assert Pair(1).right == ()
    assert Pair(1, (2,)) == Pair(right=(2,), left=1)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, (), 3)


def test_post_init_runs():
    with pytest.raises(ValueError):
        Pair(-1)


def test_equality_and_hash_by_value_within_one_class():
    assert Pair(1, (2,)) == Pair(1, (2,))
    assert Pair(1) != Pair(2)
    assert Pair(1) != Other(1)
    assert len({Pair(1), Pair(1), Pair(2)}) == 2


def test_repr_lists_fields():
    assert repr(Pair(1, (2,))) == "Pair(left=1, right=(2,))"


def test_fields_are_read_only():
    p = Pair(1)
    with pytest.raises(AttributeError):
        p.left = 2
    with pytest.raises(AttributeError):
        del p.left
    assert p.left == 1


def test_cli_import_leaves_out_inspect():
    code = "import sys, threshkit.cli; print('inspect' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr
