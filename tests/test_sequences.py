"""Build sequences: validation, evaluation, text format."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from threshkit.canonical import canonical_form
from threshkit.named import path_graph
from threshkit.sequences import (
    ADD,
    JOIN_ALL,
    BuildSequence,
    Op,
    Step,
    evaluate,
    format_sequence,
    join_color,
)


def test_op_validation():
    with pytest.raises(ValueError):
        Op("frobnicate")
    with pytest.raises(ValueError):
        Op("add", 1)
    with pytest.raises(ValueError):
        Op("join_color")


def test_sequence_validation():
    with pytest.raises(ValueError):
        BuildSequence(2, ())
    with pytest.raises(ValueError):
        BuildSequence(2, (Step(2, ADD),))
    with pytest.raises(ValueError):
        BuildSequence(2, (Step(0, join_color(2)),))
    with pytest.raises(ValueError):
        BuildSequence(2, (Step(0, ADD), Step(0, ADD)), order=(0, 0))


def test_evaluate_path_example():
    # seed a black vertex, add a white one, join a black vertex to the
    # whites, join a white vertex to the blacks: the result is a P4
    seq = BuildSequence(2, (
        Step(0, ADD),
        Step(1, ADD),
        Step(0, join_color(1)),
        Step(1, join_color(0)),
    ))
    cg = evaluate(seq)
    assert canonical_form(cg.graph) == canonical_form(path_graph(4))
    assert cg.colors == (0, 1, 0, 1)
    assert sorted(cg.graph.edges()) == [(0, 3), (1, 2), (2, 3)]


def test_evaluate_join_all():
    seq = BuildSequence(1, (Step(0, ADD), Step(0, ADD), Step(0, JOIN_ALL)))
    cg = evaluate(seq)
    assert sorted(cg.graph.edges()) == [(0, 2), (1, 2)]


def test_evaluate_respects_order():
    seq = BuildSequence(1, (Step(0, ADD), Step(0, JOIN_ALL)), order=(1, 0))
    cg = evaluate(seq)
    # vertex 1 is the seed, vertex 0 joins it
    assert sorted(cg.graph.edges()) == [(0, 1)]


@st.composite
def sequences(draw, max_k=3, max_len=8):
    k = draw(st.integers(1, max_k))
    ops = [ADD, JOIN_ALL] + [join_color(c) for c in range(k)]
    length = draw(st.integers(1, max_len))
    steps = [Step(draw(st.integers(0, k - 1)), ADD)]
    for _ in range(length - 1):
        steps.append(Step(draw(st.integers(0, k - 1)), draw(st.sampled_from(ops))))
    return BuildSequence(k, tuple(steps))


@given(sequences(), st.randoms())
def test_order_is_a_relabeling(seq, rnd):
    order = list(range(seq.n))
    rnd.shuffle(order)
    ordered = BuildSequence(seq.k, seq.steps, tuple(order))
    plain = evaluate(seq)
    shuffled = evaluate(ordered)
    assert shuffled.graph.relabel(order) == plain.graph
    for j in range(seq.n):
        assert shuffled.colors[order[j]] == plain.colors[j]


def test_format_uses_letters_for_two_colors_digits_beyond():
    two = BuildSequence(2, (Step(0, ADD), Step(1, join_color(0))))
    assert format_sequence(two).splitlines() == ["seed b", "joinb w"]
    three = BuildSequence(3, (Step(0, ADD), Step(2, join_color(1))))
    assert format_sequence(three).splitlines() == ["seed 0", "join1 2"]
