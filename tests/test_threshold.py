"""Threshold recognition and certificates: is_threshold against
the certificate pair it replaced (a list of isolated-or-universal removals
and a builder that turned it into a sequence), and the kernel with the
THRESHOLD masks (0, alive) against the one-color loop it replaced."""

from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graphs import ColoredGraph, bits
from threshkit.kthreshold import THRESHOLD, eliminate, elimination_picks, is_threshold
from threshkit.named import (
    complete_graph,
    cycle_graph,
    empty_graph,
    matching,
    path_graph,
)
from threshkit.sequences import ADD, JOIN_ALL, BuildSequence, Step, evaluate

from strategies import graphs


def oracle_threshold_picks(rows, alive):
    """The earlier one-color loop over raw ints: the removals, as (vertex,
    op index) pairs in removal order, that shrink alive to one vertex, or
    None when the graph rows induce on alive is not threshold.

    Op 0 (add) removes a vertex with no alive neighbour, op 1 (join_all) one
    adjacent to every other alive vertex. Each step removes the lowest-index
    vertex either op removes, preferring add.
    """
    picks = []
    while alive & (alive - 1):
        top = alive.bit_count() - 1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (rows[v] & alive).bit_count()
            if deg == 0:
                picks.append((v, 0))
                break
            if deg == top:
                picks.append((v, 1))
                break
            rest ^= low
        else:
            return None
        alive ^= low
    return picks


def test_is_threshold_is_the_threshold_dialect_elimination():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_threshold(g) == eliminate(ColoredGraph(g, (0,) * n), THRESHOLD)


def test_kernel_equals_one_color_loop_on_every_mask():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            for alive in range(1, 1 << n):
                assert elimination_picks(g.rows, alive, (0, alive)) == oracle_threshold_picks(g.rows, alive)


@settings(deadline=None)
@given(graphs(min_n=8, max_n=14), st.lists(st.booleans(), min_size=7, max_size=13),
       st.randoms(use_true_random=False), st.data())
def test_kernel_equals_one_color_loop_on_larger_graphs(g, word, rnd, data):
    # a random graph, and a threshold graph relabeled so that removals do
    # not follow the build order, each on random masks and its whole vertex set
    steps = (Step(0, ADD),) + tuple(Step(0, JOIN_ALL if b else ADD) for b in word)
    member = evaluate(BuildSequence(1, steps)).graph
    order = list(range(member.n))
    rnd.shuffle(order)
    member = member.relabel(order)
    for h in (g, member):
        masks = data.draw(st.lists(st.integers(1, h.full_mask), min_size=1, max_size=8))
        for alive in masks + [h.full_mask]:
            assert elimination_picks(h.rows, alive, (0, alive)) == oracle_threshold_picks(h.rows, alive)


def oracle_is_threshold(g):
    """The earlier is_threshold, walking the alive vertices with bits() and
    removing every vertex, followed by the earlier build_threshold_tree."""
    alive = g.full_mask
    removed = []
    while alive:
        count = alive.bit_count()
        pick = None
        for v in bits(alive):
            deg = (g.rows[v] & alive).bit_count()
            if deg == 0:
                pick = (v, "isolated")
                break
            if deg == count - 1:
                pick = (v, "universal")
                break
        if pick is None:
            return None
        removed.append(pick)
        alive ^= 1 << pick[0]
    steps = []
    order = []
    for v, kind in reversed(removed):
        steps.append(Step(0, ADD if kind == "isolated" else JOIN_ALL))
        order.append(v)
    return BuildSequence(1, tuple(steps), tuple(order))


def test_equals_oracle_on_every_small_graph():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_threshold(g) == oracle_is_threshold(g)


@settings(deadline=None)
@given(st.lists(st.booleans(), min_size=7, max_size=13), st.randoms(use_true_random=False),
       graphs(min_n=8, max_n=14))
def test_equals_oracle_on_larger_graphs(word, rnd, g):
    assert is_threshold(g) == oracle_is_threshold(g)
    # members, relabeled so that removals do not follow the build order
    steps = (Step(0, ADD),) + tuple(Step(0, JOIN_ALL if b else ADD) for b in word)
    member = evaluate(BuildSequence(1, steps)).graph
    order = list(range(member.n))
    rnd.shuffle(order)
    member = member.relabel(order)
    cert = is_threshold(member)
    assert cert is not None
    assert cert == oracle_is_threshold(member)


def test_known_members():
    for g in (empty_graph(5), complete_graph(5), path_graph(2), path_graph(3)):
        assert is_threshold(g) is not None


def test_known_non_members():
    for g in (path_graph(4), cycle_graph(4), matching(2), cycle_graph(5)):
        assert is_threshold(g) is None


def test_certificate_steps_are_valid():
    # undone in reverse order, each step removes a vertex that its operator
    # makes isolated (add) or universal (joinall) among those still present
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            seq = is_threshold(g)
            if seq is None:
                continue
            remaining = g.full_mask
            for step, v in reversed(list(zip(seq.steps, seq.order))):
                degree = (g.rows[v] & remaining).bit_count()
                assert step.color == 0
                if step.op == ADD:
                    assert degree == 0
                else:
                    assert step.op == JOIN_ALL
                    assert degree == remaining.bit_count() - 1
                remaining ^= 1 << v
            assert remaining == 0


@given(st.lists(st.booleans(), min_size=0, max_size=9))
def test_generated_words_are_recognized(word):
    steps = (Step(0, ADD),) + tuple(Step(0, JOIN_ALL if b else ADD) for b in word)
    g = evaluate(BuildSequence(1, steps)).graph
    assert is_threshold(g) is not None


def test_membership_counts_are_powers_of_two():
    for n in range(1, 7):
        members = sum(
            1 for g in all_graphs(EnumerationConfig(n)) if is_threshold(g) is not None
        )
        assert members == 1 << (n - 1)


def test_build_tree_evaluates_back_exactly():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            seq = is_threshold(g)
            if seq is None:
                continue
            assert evaluate(seq).graph == g
