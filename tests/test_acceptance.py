"""Acceptance checks: every recognizer agrees with an independent method
at desk scale, the catalogs are exactly the minimal obstructions, and the
structural invariants hold. One test per criterion; each runs within its
stated time budget on a laptop-class machine. The suites run at their
default bounds, once per session (the default_run fixture).
"""

import random
import time

from oracles import raw_extensions
from strategies import complement, cutrank_profile, distance_hereditary_oracle

from threshkit.canonical import canonical_form
from threshkit.catalogs import Catalog, CatalogEntry, validate_catalog
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graph6 import decode_graph6, encode_graph6
from threshkit.graphs import Graph, is_distance_hereditary
from threshkit.kthreshold import (
    EXTENDED,
    RESTRICTED,
    SPECIAL,
    eliminate,
    general_dialect,
    is_extended,
    is_k_threshold,
    is_restricted,
    is_special,
    is_threshold,
)
from threshkit.named import complete_graph, path_graph
from threshkit.sequences import BuildSequence, Step, evaluate

GRAPHS_UP_TO_7 = 1 + 2 + 4 + 11 + 34 + 156 + 1044  # includes all 1044 with n = 7


def _graphs_upto(n_max):
    for n in range(1, n_max + 1):
        for g in all_graphs(EnumerationConfig(n)):
            yield g


def test_01_threshold_elimination_equals_fis_up_to_n7(default_run):
    rep, _ = default_run("thresholds")
    assert rep.ok, rep.to_text()
    assert rep.count("graphs.checked") == GRAPHS_UP_TO_7
    assert rep.count("threshold.agree") == GRAPHS_UP_TO_7
    assert rep.elapsed < 10.0


def test_02_special_brute_force_equals_eight_pattern_fis_up_to_n7(default_run):
    rep, _ = default_run("special")
    assert rep.ok, rep.to_text()
    assert rep.count("special.agree") == GRAPHS_UP_TO_7
    # discovery returns exactly the eight catalogued minimal obstructions
    assert rep.count("special.obstructions.found") == 8
    assert rep.count("special.obstructions.expected") == 8
    assert rep.elapsed < 300.0


def test_03_good_shape_check_equals_five_pattern_fis_up_to_n7(default_run):
    rep, _ = default_run("good")
    assert rep.ok, rep.to_text()
    assert rep.count("good.agree") == GRAPHS_UP_TO_7
    assert rep.count("good.obstructions.found") == 5
    assert rep.elapsed < 120.0


def test_04_partitioned_elimination_equals_colored_fis_up_to_n6(default_run):
    rep, _ = default_run("partitioned")
    assert rep.ok, rep.to_text()
    # 5758 = 2-colored graphs with n <= 6 up to color-preserving isomorphism
    assert rep.count("partitioned.agree") == 5758
    assert rep.count("partitioned.obstructions.found") == 25
    assert rep.count("partitioned.obstructions.expected") == 25
    assert rep.elapsed < 600.0


def test_05_switching_class_three_way_agreement_up_to_n7(default_run):
    rep, _ = default_run("switching")
    assert rep.ok, rep.to_text()
    assert rep.count("switch_threshold.agree") == GRAPHS_UP_TO_7
    assert rep.count("switch_cograph.agree") == GRAPHS_UP_TO_7
    assert rep.elapsed < 600.0


def test_06_catalog_minimality_and_negative_control(default_run):
    rep, _ = default_run("catalogs")
    assert rep.ok, rep.to_text()

    member = lambda g: is_threshold(g) is not None
    # control 1: an entry the recognizer accepts must be flagged
    accepted = Catalog(
        "threshold", (CatalogEntry("mutant", complete_graph(3), None, "control"),))
    assert any(p.condition == "rejected" for p in validate_catalog(accepted, member))
    # control 2: a non-minimal entry must be flagged
    non_minimal = Catalog(
        "threshold", (CatalogEntry("mutant", path_graph(5), None, "control"),))
    assert any(p.condition == "minimal" for p in validate_catalog(non_minimal, member))


def test_07_enumeration_and_threshold_counts(default_run):
    rep, _ = default_run("counts")
    assert rep.ok, rep.to_text()
    for n, expected in enumerate((1, 2, 4, 11, 34, 156, 1044), start=1):
        assert rep.count(f"enumeration.n{n}") == expected
    # generated: distinct canonical forms of all {add, join-all} build
    # words, a derivation independent of the recognizer
    for n in range(1, 9):
        assert rep.count(f"threshold.generated.n{n}") == 1 << (n - 1)
    for n in range(1, 8):
        assert rep.count(f"threshold.recognized.n{n}") == 1 << (n - 1)


def test_08_structural_invariants():
    # (a) evaluate(eliminate(x)) == x on 10^4 random members per dialect
    rng = random.Random(1803)
    for dialect in (general_dialect(2), SPECIAL, RESTRICTED, EXTENDED):
        for _ in range(10_000):
            steps = tuple(
                Step(rng.randrange(dialect.k), rng.choice(dialect.ops))
                for _ in range(rng.randint(1, 10)))
            cg = evaluate(BuildSequence(dialect.k, steps))
            seq = eliminate(cg, dialect)
            assert seq is not None, (dialect.name, steps)
            assert evaluate(seq) == cg, (dialect.name, steps)

    # (b) two-color membership is hereditary on all graphs n <= 6
    verdicts = {}
    for g in _graphs_upto(6):
        ok = is_k_threshold(g, 2) is not None
        verdicts[canonical_form(g)] = ok
        if ok and g.n > 1:
            for v in range(g.n):
                assert verdicts[canonical_form(g.delete_vertex(v))], g

    # (c) restricted and extended memberships are complement-closed, n <= 7
    for g in _graphs_upto(7):
        co = complement(g)
        assert (is_restricted(g) is None) == (is_restricted(co) is None), g
        assert (is_extended(g) is None) == (is_extended(co) is None), g

    # (d) cutrank stays <= k along every accepted k-color build order, n <= 7
    for k in (1, 2, 3):
        for g in _graphs_upto(7):
            res = is_k_threshold(g, k)
            if res is None:
                continue
            _, seq = res
            order = seq.order if seq.order is not None else tuple(range(g.n))
            assert cutrank_profile(g, order) <= k, (k, g)


def test_09_special_members_are_distance_hereditary():
    members = 0
    for g in _graphs_upto(7):
        if is_special(g) is not None:
            members += 1
            assert is_distance_hereditary(g), g
    assert members == 308
    # the fast checker agrees with the distance-preservation definition
    for g in _graphs_upto(6):
        assert is_distance_hereditary(g) == distance_hereditary_oracle(g), g


def test_10_graph6_round_trip():
    # every isomorphism class with n <= 8 appears among the canonical
    # representatives to n = 7 plus the raw one-vertex extensions at n = 8
    seen = 0
    for g in _graphs_upto(7):
        assert decode_graph6(encode_graph6(g)) == g
        seen += 1
    assert seen == GRAPHS_UP_TO_7
    extended = 0
    for g in raw_extensions(8):
        assert decode_graph6(encode_graph6(g)) == g
        extended += 1
    assert extended == 1044 * 128

    rng = random.Random(2026)
    for _ in range(10_000):
        n = rng.randint(1, 32)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        assert decode_graph6(encode_graph6(g)) == g
