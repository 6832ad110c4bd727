"""Colored elimination dialects: roundtrips, closures, neighborhood shapes,
and eliminate (the kernel elimination_picks plus the certificate builder),
the pruned coloring oracle of tests/oracles.py and is_k_threshold for
k != 2 against per-coloring loops, extend_white_sets against a walk over
every coloring, and the two-color search's white-set candidates against
the coloring tuples they replaced."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit import kthreshold
from threshkit.canonical import canonical_form
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graphs import ColoredGraph, Graph, bits
from threshkit.kthreshold import (
    EXTENDED,
    GENERAL2,
    Dialect,
    RESTRICTED,
    SPECIAL,
    eliminate,
    extend_white_sets,
    general_dialect,
    is_extended,
    is_good,
    is_k_threshold,
    is_restricted,
    is_special,
    is_threshold,
    neighborhood_shape,
)
from threshkit.limits import CapacityError, Limits
from threshkit.named import (
    complete_graph,
    cone,
    cycle_graph,
    gem,
    matching,
    octahedron,
    path_graph,
)
from threshkit.sequences import ADD, BLACK, BuildSequence, Step, evaluate, join_color

from oracles import (
    oracle_candidate_colorings,
    oracle_elimination_picks,
    oracle_pruned_coloring_search,
)
from strategies import (
    cographs_with_a_flip,
    colored_graphs,
    complement,
    cutrank_profile,
    gnp_graphs,
    graph_from_mask,
    graphs,
    prefix_colorings,
    random_member,
    switched_threshold_graphs,
)

DIALECTS = (general_dialect(2), SPECIAL, RESTRICTED, EXTENDED)
# the two-color dialects, with special's mirror image, which joins to black only
TWO_COLOR_DIALECTS = DIALECTS + (Dialect("special-black", 2, (ADD, join_color(BLACK))),)


def oracle_eliminate(cg, dialect):
    """The earlier eliminate: walks the alive vertices with bits() and
    compares operator kinds, building the steps as it goes."""
    g, colors = cg.graph, cg.colors
    if max(colors) >= dialect.k:
        raise ValueError(f"colors exceed dialect color count {dialect.k}")
    by_color = [0] * dialect.k
    for v, c in enumerate(colors):
        by_color[c] |= 1 << v
    alive = g.full_mask
    steps_rev = []
    order_rev = []
    while alive.bit_count() > 1:
        pick = None
        for x in bits(alive):
            rest = alive ^ (1 << x)
            nb = g.rows[x] & alive
            for op in dialect.ops:
                if op.kind == "add":
                    ok = nb == 0
                elif op.kind == "join_all":
                    ok = nb == rest
                else:
                    ok = nb == by_color[op.color] & rest
                if ok:
                    pick = (x, op)
                    break
            if pick:
                break
        if pick is None:
            return None
        x, op = pick
        steps_rev.append(Step(colors[x], op))
        order_rev.append(x)
        alive ^= 1 << x
    seed = alive.bit_length() - 1
    steps_rev.append(Step(colors[seed], ADD))
    order_rev.append(seed)
    return BuildSequence(dialect.k, tuple(reversed(steps_rev)), tuple(reversed(order_rev)))


ORACLE_DIALECTS = (SPECIAL, RESTRICTED, EXTENDED, general_dialect(2), general_dialect(3))


@pytest.mark.parametrize("dialect", ORACLE_DIALECTS, ids=lambda d: f"{d.name}{d.k}")
def test_eliminate_equals_oracle_on_every_small_coloring(dialect):
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            for colors in product(range(dialect.k), repeat=n):
                cg = ColoredGraph(g, colors)
                assert eliminate(cg, dialect) == oracle_eliminate(cg, dialect)


# the kernel writes out its mask loop for two masks (RESTRICTED, as SPECIAL
# and THRESHOLD); GENERAL2's three and EXTENDED's four take the plain loop
KERNEL_DIALECTS = (RESTRICTED, GENERAL2, EXTENDED)


def test_kernel_equals_plain_mask_loop_on_every_small_coloring():
    """The kernel against the plain loop over the masks of
    tests/oracles.py, on every 2-coloring of every class with n <= 7, for
    two, three and four masks."""
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            rows, full = g.rows, g.full_mask
            for white in range(1 << n):
                by_color = [full ^ white, white]
                for dialect in KERNEL_DIALECTS:
                    masks = kthreshold._class_masks(dialect, by_color, full)
                    assert (kthreshold.elimination_picks(rows, full, masks)
                            == oracle_elimination_picks(rows, full, masks)), (g, white, dialect)


def oracle_coloring_search(g, dialect):
    """The per-coloring loop: one ColoredGraph and one full elimination per
    coloring, in product order."""
    for coloring in product(range(dialect.k), repeat=g.n):
        seq = oracle_eliminate(ColoredGraph(g, coloring), dialect)
        if seq is not None:
            return coloring, seq
    return None


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: f"{d.name}{d.k}")
def test_brute_coloring_search_equals_per_graph_loop(dialect):
    """The tests' brute-force coloring search, the pruned walk of
    oracles.py, against the per-coloring loop."""
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert oracle_pruned_coloring_search(g, dialect) == oracle_coloring_search(g, dialect), g


@pytest.mark.parametrize("dialect", [SPECIAL, RESTRICTED, EXTENDED, general_dialect(2)],
                         ids=lambda d: d.name)
def test_extend_white_sets_equals_every_coloring_walk(dialect):
    """From its prefix class's family, each class on up to 6 vertices gets
    the white classes of all its valid colorings in product order, and
    the certificate the pruned coloring oracle returns, with whole or not."""
    families = {(): [0]}
    for n in range(1, 7):
        low = (1 << n - 1) - 1
        for g in all_graphs(EnumerationConfig(n)):
            prefix = families[tuple(r & low for r in g.rows[:-1])]
            cert, found = extend_white_sets(g, dialect, prefix)
            colorings = [c for c in product((0, 1), repeat=n)
                         if eliminate(ColoredGraph(g, c), dialect) is not None]
            assert found == [sum(c << v for v, c in enumerate(colors)) for colors in colorings]
            assert cert == extend_white_sets(g, dialect, prefix, False)[0]
            assert cert == oracle_pruned_coloring_search(g, dialect), g
            families[g.rows] = found


def test_extend_white_sets_takes_two_colors_only():
    with pytest.raises(ValueError, match="two-color"):
        extend_white_sets(path_graph(2), general_dialect(3), [0])


def oracle_prefix_search(g, k):
    """The earlier is_k_threshold for k != 2: the kernel on every coloring
    of prefix_colorings, in order, up to the first that eliminates."""
    dialect = general_dialect(k)
    rows, full = g.rows, g.full_mask
    for coloring in prefix_colorings(g.n, k):
        picks = kthreshold.elimination_picks(rows, full, kthreshold._op_masks(dialect, coloring, full))
        if picks is not None:
            return coloring, kthreshold._sequence(dialect, coloring, full, picks)
    return None


@pytest.mark.parametrize("k, n_max", [(3, 7), (1, 6), (4, 6)])
def test_k_threshold_equals_prefix_order_oracle(k, n_max):
    for n in range(1, n_max + 1):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_k_threshold(g, k) == oracle_prefix_search(g, k), g


@settings(max_examples=20, deadline=None)
@given(graphs(min_n=8, max_n=11), st.randoms(use_true_random=False))
def test_k_threshold_equals_prefix_order_oracle_on_larger_graphs(g, rnd):
    assert is_k_threshold(g, 3) == oracle_prefix_search(g, 3)
    # members, which random graphs of this size seldom are, on a random labeling
    member = random_member(rnd, general_dialect(3), g.n).graph.relabel(rnd.sample(range(g.n), g.n))
    found = is_k_threshold(member, 3)
    assert found is not None
    assert found == oracle_prefix_search(member, 3)


def test_k_threshold_kernel_calls(monkeypatch):
    """A work-count gate: is_k_threshold(k=3) on every graph with n <= 6
    makes 4939 kernel calls, one per prefix it tries (the prefix order made
    7479, one per full coloring). A change to the pruning changes it."""
    calls = []
    kernel = kthreshold.elimination_picks
    monkeypatch.setattr(kthreshold, "elimination_picks", lambda *args: calls.append(1) or kernel(*args))
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            is_k_threshold(g, 3)
    assert len(calls) == 4939


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=8, max_n=12), st.sampled_from(ORACLE_DIALECTS), st.randoms(use_true_random=False))
def test_eliminate_equals_oracle_on_larger_graphs(g, dialect, rnd):
    for _ in range(20):
        cg = ColoredGraph(g, tuple(rnd.randrange(dialect.k) for _ in range(g.n)))
        assert eliminate(cg, dialect) == oracle_eliminate(cg, dialect)
    # members, which the random colorings above seldom are
    cg = random_member(rnd, dialect, g.n)
    assert eliminate(cg, dialect) == oracle_eliminate(cg, dialect)


def test_general_dialect_validation():
    with pytest.raises(ValueError):
        general_dialect(0)
    assert general_dialect(3).k == 3


def test_eliminate_rejects_out_of_range_colors():
    cg = ColoredGraph(path_graph(2), (0, 2))
    with pytest.raises(ValueError):
        eliminate(cg, general_dialect(2))


def test_bichromatic_matching_membership():
    # one edge black, the other white: buildable with General(2)
    cg = ColoredGraph(matching(2), (0, 0, 1, 1))
    seq = eliminate(cg, general_dialect(2))
    assert seq is not None
    assert evaluate(seq) == cg
    # monochromatic 2K2 degenerates to plain threshold: rejected
    mono = ColoredGraph(matching(2), (0, 0, 0, 0))
    assert eliminate(mono, general_dialect(2)) is None


@settings(max_examples=200)
@given(colored_graphs(max_n=7), st.sampled_from(DIALECTS))
def test_eliminate_roundtrips_exactly(cg, dialect):
    seq = eliminate(cg, dialect)
    if seq is not None:
        assert evaluate(seq) == cg
        assert set(step.op.kind for step in seq.steps[1:]) <= {op.kind for op in dialect.ops}


@settings(max_examples=200)
@given(colored_graphs(max_n=7), st.sampled_from(DIALECTS))
def test_accepted_sequences_use_allowed_operators(cg, dialect):
    seq = eliminate(cg, dialect)
    if seq is not None:
        allowed = set(dialect.ops)
        assert all(step.op in allowed for step in seq.steps[1:])


def test_monochromatic_general_equals_threshold():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            mono = ColoredGraph(g, (0,) * n)
            assert (eliminate(mono, general_dialect(2)) is not None) == (
                is_threshold(g) is not None
            )


def test_one_color_search_equals_threshold():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            assert (is_k_threshold(g, 1) is not None) == (is_threshold(g) is not None)


def test_dialect_inclusions():
    # operator subsets give class inclusions
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            two = is_k_threshold(g, 2) is not None
            if is_threshold(g) is not None:
                assert is_special(g) is not None
            if is_special(g) is not None:
                assert two
                assert is_extended(g) is not None
            if is_restricted(g) is not None:
                assert two
                assert is_extended(g) is not None


def test_search_results_replay():
    for n in range(1, 6):
        for g in all_graphs(EnumerationConfig(n)):
            for search in (lambda h: is_k_threshold(h, 2), is_special, is_restricted, is_extended):
                res = search(g)
                if res is None:
                    continue
                coloring, seq = res
                assert evaluate(seq) == ColoredGraph(g, coloring)


def test_hereditary_two_threshold():
    for n in range(2, 6):
        for g in all_graphs(EnumerationConfig(n)):
            if is_k_threshold(g, 2) is None:
                continue
            for v in range(n):
                assert is_k_threshold(g.delete_vertex(v), 2) is not None


def test_complement_closure_restricted_extended():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            c = complement(g)
            assert (is_restricted(g) is not None) == (is_restricted(c) is not None)
            assert (is_extended(g) is not None) == (is_extended(c) is not None)


def test_cutrank_bounded_by_color_count():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            for k in (1, 2, 3):
                res = is_k_threshold(g, k)
                if res is not None:
                    assert cutrank_profile(g, res[1].order) <= k


def test_gem_is_not_k_threshold_for_any_k():
    # the apex neighborhood is a P4, which no single color class can cover,
    # so the gem sits outside the whole hierarchy
    big = Limits(coloring_budget=1 << 24)
    for k in range(2, 6):
        assert is_k_threshold(gem(), k, big) is None


def test_color_hierarchy_is_strict():
    big = Limits(coloring_budget=1 << 24)
    assert is_k_threshold(cycle_graph(4), 2, big) is not None
    assert is_k_threshold(cycle_graph(5), 2, big) is None
    assert is_k_threshold(cycle_graph(5), 3, big) is not None
    assert is_k_threshold(cycle_graph(6), 3, big) is None
    assert is_k_threshold(cycle_graph(6), 4, big) is not None


def test_coloring_budget_enforced(monkeypatch):
    # the budget guards the whole search up front, before any kernel call
    calls = []
    monkeypatch.setattr(kthreshold, "elimination_picks", lambda *args: calls.append(args))
    tight = Limits(coloring_budget=4)
    with pytest.raises(CapacityError):
        is_k_threshold(path_graph(5), 3, tight)
    assert calls == []


def _prefix_leaves(n, k, v=1, top=0):
    """The full colorings an unpruned prefix-order search reaches: vertex 0
    has color 0, and vertex v tries colors up to one above the highest
    before it."""
    if v == n:
        return 1
    return sum(_prefix_leaves(n, k, v + 1, max(top, c)) for c in range(min(top + 2, k)))


def test_first_use_count_is_the_prefix_search_leaves():
    for n in range(1, 8):
        for k in range(1, 6):
            assert kthreshold._first_use_colorings(n, k) == _prefix_leaves(n, k), (n, k)
    # Bell numbers once k >= n, and sums of Stirling numbers S(n, j), j <= 3
    assert [kthreshold._first_use_colorings(n, 100) for n in range(1, 8)] == [
        1, 2, 5, 15, 52, 203, 877]
    assert kthreshold._first_use_colorings(14, 3) == 797_162
    assert kthreshold._first_use_colorings(15, 3) == 2_391_485


def test_budget_counts_first_use_colorings(monkeypatch):
    # n = 14 at k = 3 fits the default budget (3^13 would not); n = 15 is
    # refused before any kernel call
    rnd = random.Random(14)
    assert is_k_threshold(random_member(rnd, general_dialect(3), 14).graph, 3) is not None
    calls = []
    monkeypatch.setattr(kthreshold, "elimination_picks", lambda *args: calls.append(args))
    with pytest.raises(CapacityError, match=r"^2391485 colorings exceed coloring_budget 1048576"
                                            r" \(set THRESHKIT_COLORING_BUDGET\)$"):
        is_k_threshold(path_graph(15), 3)
    assert calls == []


def test_neighborhood_shapes():
    g = gem()
    apex = next(v for v in range(g.n) if g.degrees[v] == 4)
    assert neighborhood_shape(g, apex) == "other"
    h = octahedron()
    assert neighborhood_shape(h, 0) == "join_of_two_thresholds"
    assert neighborhood_shape(matching(2), 0) == "threshold"
    assert neighborhood_shape(cone(matching(2)), 4) == "union_of_two_thresholds"
    # three nontrivial union blocks cannot be grouped into two threshold
    # parts, which is exactly why the cone over 3K2 fails to be good
    assert neighborhood_shape(cone(matching(3)), 6) == "other"
    assert neighborhood_shape(complete_graph(1), 0) == "empty"
    with pytest.raises(ValueError):
        neighborhood_shape(g, 9)


def oracle_neighborhood_shape(g, x):
    """The earlier neighborhood_shape, which built an induced subgraph and
    its complement as graphs."""
    nb = g.rows[x]
    if nb == 0:
        return "empty"
    h = g.induced(nb)
    if is_threshold(h) is not None:
        return "threshold"

    def two_block_split(parts):
        if len(parts) < 2:
            return False
        nontrivial = [p for p in parts if p.bit_count() >= 2]
        if len(nontrivial) > 2:
            return False
        return all(is_threshold(h.induced(p)) is not None for p in nontrivial)

    if two_block_split(h.components()):
        return "union_of_two_thresholds"
    if two_block_split(complement(h).components()):
        return "join_of_two_thresholds"
    return "other"


def test_neighborhood_shape_equals_oracle_on_every_small_graph():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            for x in range(n):
                assert neighborhood_shape(g, x) == oracle_neighborhood_shape(g, x)


@settings(deadline=None)
@given(graphs(min_n=8, max_n=14))
def test_neighborhood_shape_equals_oracle_on_larger_graphs(g):
    for x in range(g.n):
        assert neighborhood_shape(g, x) == oracle_neighborhood_shape(g, x)


def test_is_good_builds_no_graph(monkeypatch):
    hosts = [g for n in range(1, 7) for g in all_graphs(EnumerationConfig(n))]
    hosts += [cone(matching(3)), cone(octahedron()), gem()]
    expected = [is_good(g) for g in hosts]

    def no_graph(*args, **kwargs):
        raise AssertionError("built a graph")

    for method in ("__init__", "induced"):
        monkeypatch.setattr(Graph, method, no_graph)
    assert [is_good(g) for g in hosts] == expected
    assert False in expected and True in expected


def test_good_examples():
    assert is_good(cycle_graph(5))
    assert is_good(complete_graph(6))
    assert not is_good(gem())
    assert not is_good(cone(octahedron()))


@settings(max_examples=80)
@given(st.randoms(use_true_random=False), st.sampled_from(DIALECTS), st.integers(2, 9))
def test_generated_members_are_accepted(rnd, dialect, n):
    cg = random_member(rnd, dialect, n)
    seq = eliminate(cg, dialect)
    assert seq is not None
    assert evaluate(seq) == cg


@pytest.mark.parametrize("search, dialect", [
    (is_special, SPECIAL),
    (is_restricted, RESTRICTED),
    (is_extended, EXTENDED),
    (lambda g: is_k_threshold(g, 2), general_dialect(2)),
], ids=["special", "restricted", "extended", "kthreshold2"])
def test_polynomial_searches_need_no_size_bound(search, dialect):
    # at default limits, on graphs well past the old 20-vertex bound
    rnd = random.Random(f"{dialect.name}:64")
    g = random_member(rnd, dialect, 64).graph.relabel(rnd.sample(range(64), 64))
    coloring, seq = search(g)
    assert evaluate(seq) == ColoredGraph(g, coloring)
    assert {step.op for step in seq.steps[1:]} <= set(dialect.ops)
    gnp = graph_from_mask(64, rnd.getrandbits(64 * 63 // 2))
    assert search(gnp) is None


def assert_white_sets_equal_tuple_candidates(g, dialect):
    """The white-set candidates are the tuple candidates: as colorings in
    product order, the order the two-color search walks, they are equal."""
    whites = kthreshold._candidate_white_sets(g, dialect)
    colorings = sorted(tuple(white >> v & 1 for v in range(g.n)) for white in whites)
    assert colorings == oracle_candidate_colorings(g, dialect), g


def test_product_key_orders_candidates_as_the_reversed_bit_string():
    """The two-color search sorts its candidates by an integer key; the
    string of each white set's bits read from vertex 0 gives the same
    order on every candidate set of every class with n <= 8."""
    for n in range(1, 9):
        key = kthreshold._product_key(n)
        for g in all_graphs(EnumerationConfig(n)):
            for dialect in TWO_COLOR_DIALECTS:
                whites = kthreshold._candidate_white_sets(g, dialect)
                assert (sorted(whites, key=key)
                        == sorted(whites, key=lambda white: f"{white:0{n}b}"[::-1])), (g, dialect)


@pytest.mark.parametrize("dialect", TWO_COLOR_DIALECTS, ids=lambda d: d.name)
def test_white_set_candidates_equal_tuple_candidates_up_to_n7(dialect):
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert_white_sets_equal_tuple_candidates(g, dialect)


@settings(max_examples=200, deadline=None)
@given(st.one_of(gnp_graphs(min_n=8, max_n=14), cographs_with_a_flip(min_n=8, max_n=14),
                 switched_threshold_graphs(min_n=8, max_n=12)),
       st.sampled_from(TWO_COLOR_DIALECTS))
def test_white_set_candidates_equal_tuple_candidates_on_larger_graphs(g, dialect):
    assert_white_sets_equal_tuple_candidates(g, dialect)


def multithreshold_graph(weights, low, high) -> Graph:
    """Jamison and Sprague's multithreshold graph with two thresholds: uv
    is an edge iff low <= w(u) + w(v) < high."""
    n = len(weights)
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                if low <= weights[u] + weights[v] < high])


def test_kthreshold_is_not_the_multithreshold_class():
    """The class is defined by the paper's build sequences, not by
    Jamison and Sprague's thresholds ("Multithreshold graphs", J. Graph
    Theory, 2020): weights 0, 1, 2, 2, 3, 4 with thresholds (4, 5) give
    3K2, which no 2-colored build sequence makes."""
    g = multithreshold_graph((0, 1, 2, 2, 3, 4), 4, 5)
    assert canonical_form(g) == canonical_form(matching(3)) == "E@Q?"
    assert is_k_threshold(g, 2) is None
    assert oracle_pruned_coloring_search(g, GENERAL2) is None
