"""Report serialization and the verification suites at reduced scale."""

import pytest

import threshkit.canonical as canonical
import threshkit.classes as classes
import threshkit.embed as embed
import threshkit.enumeration as enumeration
import threshkit.kthreshold as kthreshold
import threshkit.obstructions as obstructions
import threshkit.switching as switching
import threshkit.verify as verify
from threshkit.catalogs import load_catalog
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graph6 import encode_graph6
from threshkit.kthreshold import SPECIAL, extend_white_sets
from threshkit.limits import DEFAULT_LIMITS, CapacityError, Limits
from threshkit.named import complete_graph, empty_graph, path_graph
from threshkit.graphs import ColoredGraph
from threshkit.switching import extend_switch_sets, is_cograph
from threshkit.verify import (
    SCHEMA,
    SUITE_NAMES,
    VerificationReport,
    Witness,
    run_suite,
    suite_bound,
)
from threshkit.verify import _agree, _Run

from oracles import is_threshold_graph, oracle_pruned_coloring_search, oracle_switch_scan


def _sample_report():
    return VerificationReport(
        suite="demo",
        n_max=5,
        counts=(("alpha.checked", 42), ("beta members", 7)),
        witnesses=(
            Witness("-", "-", "aggregate failure"),
            Witness("Bg", "bww", "colored disagreement a=member b=non-member"),
        ),
        elapsed=1.25,
    )


def test_report_roundtrips_exactly():
    rep = _sample_report()
    text = rep.to_text()
    assert text.startswith(SCHEMA + "\n")
    assert text.endswith("end\n")
    assert VerificationReport.from_text(text) == rep


def test_report_roundtrips_awkward_elapsed():
    rep = VerificationReport("demo", 3, (), (), 0.1 + 0.2)
    assert VerificationReport.from_text(rep.to_text()) == rep


def test_ok_and_count_accessors():
    rep = _sample_report()
    assert not rep.ok
    assert rep.count("alpha.checked") == 42
    assert rep.count("beta members") == 7
    with pytest.raises(KeyError):
        rep.count("gamma")
    clean = VerificationReport("demo", 3, (), (), 0.0)
    assert clean.ok


def test_from_text_rejects_bad_schema():
    with pytest.raises(ValueError):
        VerificationReport.from_text("nonsense/9\nsuite x\nnmax 1\nelapsed 0.0\nend\n")


def test_from_text_rejects_missing_end():
    text = _sample_report().to_text().replace("\nend\n", "\n")
    with pytest.raises(ValueError):
        VerificationReport.from_text(text)


def test_from_text_rejects_missing_header_fields():
    for dropped in ("suite ", "nmax ", "elapsed "):
        lines = [l for l in _sample_report().to_text().splitlines()
                 if not l.startswith(dropped)]
        with pytest.raises(ValueError):
            VerificationReport.from_text("\n".join(lines) + "\n")


def test_from_text_rejects_unknown_and_malformed_lines():
    with pytest.raises(ValueError):
        VerificationReport.from_text(
            f"{SCHEMA}\nsuite x\nnmax 1\nelapsed 0.0\nbogus line\nend\n")
    with pytest.raises(ValueError):
        VerificationReport.from_text(
            f"{SCHEMA}\nsuite x\nnmax 1\nelapsed 0.0\nwitness only\ttwo\nend\n")


def test_witness_fields_may_not_contain_separators():
    with pytest.raises(ValueError):
        Witness("Bg", "-", "has\ttab")
    with pytest.raises(ValueError):
        Witness("Bg", "-", "has\nnewline")


def test_run_accumulator_sorts_witnesses():
    run = _Run("demo", 4)
    run.witness(complete_graph(3), "zeta")
    run.witness(path_graph(2), "eta")
    run.witness(None, "aggregate")
    run.witness(ColoredGraph(path_graph(2), (0, 1)), "colored")
    rep = run.report()
    details = [w.detail for w in rep.witnesses]
    # aggregate (empty sort key) first, then by canonical form
    assert details[0] == "aggregate"
    assert set(details) == {"aggregate", "zeta", "eta", "colored"}
    colored = [w for w in rep.witnesses if w.detail == "colored"][0]
    assert colored.colors == "bw"
    assert VerificationReport.from_text(rep.to_text()) == rep


def test_agree_counts_and_witnesses():
    run = _Run("demo", 4)
    _agree(run, "x", path_graph(2), {"a": True, "b": True})
    _agree(run, "x", complete_graph(3), {"a": False, "b": False})
    _agree(run, "x", path_graph(3), {"a": True, "b": False})
    rep = run.report()
    assert rep.count("x.agree") == 2
    assert rep.count("x.members") == 1
    assert rep.count("x.disagree") == 1
    assert not rep.ok
    assert "a=member" in rep.witnesses[0].detail
    assert "b=non-member" in rep.witnesses[0].detail


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_suite_names_are_exposed():
    assert set(SUITE_NAMES) == {
        "thresholds", "special", "good", "partitioned",
        "switching", "catalogs", "counts",
    }


@pytest.mark.parametrize("name,n_max", [
    ("thresholds", 5),
    ("special", 5),
    ("good", 5),
    ("partitioned", 4),
    ("switching", 5),
    ("catalogs", None),
    ("counts", 4),
])
def test_suites_pass_at_reduced_scale(name, n_max):
    rep = run_suite(name, n_max)
    assert rep.ok, rep.to_text()
    assert rep.suite == name
    assert rep.elapsed >= 0.0
    assert VerificationReport.from_text(rep.to_text()) == rep


@pytest.mark.parametrize("name, n_max, kernel_calls, scans", [
    ("special", 5, 473, 52),
    ("special", 7, 18092, 1252),
    ("partitioned", 4, 118, 118),
])
def test_suite_work_goes_through_the_traced_functions(monkeypatch, name, n_max, kernel_calls, scans):
    """Every coloring, or coloring prefix, that a search tries is one call of
    the elimination kernel kthreshold.elimination_picks and every FIS scan
    one call of find_first_embedding, through the module globals a tracer
    replaces. Rediscovery reads the suite's verdicts and classifies no graph
    again. A change that moves work off those calls changes these counts.
    The special suite's oracle extends the valid colorings of each class's
    prefix: 365 kernel calls at n <= 5 and 11,411 at n <= 7, where the
    per-graph brute-force search, pruned depth first, made 685 and 82,599
    (the suite then made 793 and 89,280)."""
    calls = {"kernel": 0, "scan": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kthreshold, "elimination_picks",
                        counted("kernel", kthreshold.elimination_picks))
    monkeypatch.setattr(obstructions, "find_first_embedding",
                        counted("scan", obstructions.find_first_embedding))
    assert run_suite(name, n_max).ok
    assert calls == {"kernel": kernel_calls, "scan": scans}


def test_partitioned_scans_search_few_patterns(monkeypatch):
    """A work-count gate for the scan: the count and degree-window filters
    leave 30 searches of the 118 partitioned scans at n <= 4 (563 without
    them). A change that searches patterns the filters rule out changes it.
    The scan list is built first: its automorphisms come from searches too."""
    obstructions._catalog_patterns("partitioned2t")
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(1) or search(*args))
    assert run_suite("partitioned", 4).ok
    assert len(searched) == 30


def test_switching_suite_runs_the_kernel_on_p4_free_switches_only(monkeypatch):
    """A work-count gate for the switching suite at n <= 6: its oracle
    extends the switch sets of each class's prefix, tests each candidate
    for a P4 through the new vertex only, and offers the threshold kernel
    only the P4-free ones whose prefix set is a threshold switch, so the
    kernel runs 1,768 times and the full P4 test, _p4, 208 times, once per
    class in is_switch_cograph, which has_cograph_switch calls first.
    Below each level's top, the oracle finds every switch set, not only
    the first, so the kernel ran fewer times, 1,585, when a per-graph brute
    scan was the oracle; that scan made 1,516 _p4 calls, is_switch_cograph's
    included.
    The kernel ran 1,688 times while the switch search tried the empty set
    first on every graph, not only where it is a restricted candidate (717
    of the switch search's calls then, 614 now), 1,995 while the restricted
    search also tried the colorings with vertex 0 white, and 4,234 when the
    scan offered every switch to both predicates, which made 2,208
    is_cograph calls; _p4 ran 2,812 times, as is_cograph, before the scan
    skipped the sets whose switch repeats a P4 it had found. Counted
    through every module global that names the two functions, as a tracer
    replaces them."""
    calls = {"kernel": 0, "p4": 0}

    def count(key, modules, name):
        fn = getattr(modules[0], name)

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        for module in modules:
            assert getattr(module, name) is fn
            monkeypatch.setattr(module, name, wrapper)

    count("kernel", (kthreshold, switching, classes), "elimination_picks")
    count("p4", (switching,), "_p4")
    assert run_suite("switching", 6).ok
    assert calls == {"kernel": 1768, "p4": 208}


def check_prefix_oracles(n_max, limits=DEFAULT_LIMITS):
    """The special and switching suites' oracles by prefix extension
    against the per-graph oracles of tests/oracles.py, the pruned coloring
    walk for SPECIAL and the per-set switch scan, certificates included,
    on every class with
    n <= n_max, walked in level order as the suites walk them: full
    families below n_max, first hits on it. Returns the number of classes."""
    special, switch_sets = _Run("special", n_max, limits), _Run("switching", n_max, limits)
    classes = 0
    for n in range(1, n_max + 1):
        for g in all_graphs(EnumerationConfig(n), limits):
            assert (special.extend(g, extend_white_sets, SPECIAL, empty=[0])
                    == oracle_pruned_coloring_search(g, SPECIAL)), g
            assert (switch_sets.extend(g, extend_switch_sets, empty=([0], [0]))
                    == oracle_switch_scan(g, (is_cograph, is_threshold_graph))), g
            classes += 1
    return classes


def test_prefix_oracles_equal_the_per_graph_oracles_up_to_n7():
    assert check_prefix_oracles(7) == 1252


@pytest.mark.parametrize("name, n_max, lists", [
    ("switching", 5, 4),
    ("partitioned", 4, 1),
])
def test_suite_computes_pattern_constants_once_per_list(monkeypatch, name, n_max, lists):
    """The scan lists carry their pattern constants: a whole suite run, from
    cold scan lists, computes them once per list and never once per host.
    The switching suite has four lists: each catalog and its descendants."""
    obstructions._catalog_patterns.cache_clear()
    computed, scans = [], []
    constants = embed._constants
    monkeypatch.setattr(embed, "_constants",
                        lambda patterns: computed.append(patterns) or constants(patterns))
    scan = obstructions.find_first_embedding
    monkeypatch.setattr(obstructions, "find_first_embedding",
                        lambda *args: scans.append(1) or scan(*args))
    assert run_suite(name, n_max).ok
    assert len(computed) == len(set(computed)) == lists
    assert len(scans) > 100


def test_thresholds_suite_counts_small():
    rep = run_suite("thresholds", 5)
    assert rep.count("graphs.checked") == 1 + 2 + 4 + 11 + 34
    assert rep.count("threshold.agree") == 52
    assert rep.count("threshold.members") == 1 + 2 + 4 + 8 + 16


def test_counts_suite_reports_both_derivations():
    rep = run_suite("counts", 4)
    assert rep.count("enumeration.n4") == 11
    assert rep.count("threshold.generated.n5") == 16
    assert rep.count("threshold.recognized.n4") == 8


@pytest.fixture
def enumerations(monkeypatch):
    """Records every call that enumerates graphs, in the suites and in discovery."""
    calls = []
    for module in (verify, obstructions):
        for name in ("all_graphs", "all_colored_graphs"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    return calls


@pytest.mark.parametrize("name", [name for name in SUITE_NAMES if name != "catalogs"])
def test_suite_capacity_error_precedes_enumeration(enumerations, name):
    with pytest.raises(CapacityError, match=r"^enumeration at n=7 exceeds enumeration_max_n 6"
                                            r" \(set THRESHKIT_ENUMERATION_MAX_N\)$"):
        run_suite(name, 9, Limits(enumeration_max_n=6))
    assert enumerations == []


@pytest.mark.parametrize("find", [obstructions.find_minimal_obstructions,
                                  obstructions.find_minimal_colored_obstructions])
def test_discovery_capacity_error_precedes_enumeration(enumerations, find):
    with pytest.raises(CapacityError, match=r"^enumeration at n=7 exceeds enumeration_max_n 6"
                                            r" \(set THRESHKIT_ENUMERATION_MAX_N\)$"):
        find(lambda g: True, 7, Limits(enumeration_max_n=6))
    assert enumerations == []


def test_suite_bound_checks_before_any_work(enumerations):
    assert [suite_bound(name) for name in SUITE_NAMES] == [7, 7, 7, 6, 7, 0, 7]
    assert suite_bound("catalogs", 0) == 0  # catalogs takes no range
    assert suite_bound("special", 3) == 3
    with pytest.raises(ValueError, match="unknown suite"):
        suite_bound("no-such-suite")
    with pytest.raises(ValueError, match="at least 1"):
        suite_bound("special", 0)
    with pytest.raises(CapacityError):
        suite_bound("special", 9)
    assert enumerations == []


def test_enumeration_within_the_bound_still_runs(enumerations):
    assert run_suite("thresholds", 3, Limits(enumeration_max_n=3)).ok
    assert enumerations == ["all_graphs"] * 3


def test_cold_verify_labels_a_pinned_number_of_graphs(monkeypatch):
    """A work-count gate over discovery, catalogs and counts as well as the
    enumeration: with the caches cleared, one run of all seven suites at
    their default bounds makes 2,461 plain and 6,929 colored labelings."""
    colored = []
    min_order = canonical._min_order
    monkeypatch.setattr(canonical, "_min_order",
                        lambda *args: colored.append(args[2] is not None) or min_order(*args))
    enumeration._representatives.cache_clear()
    enumeration._colored_representatives.cache_clear()
    obstructions._catalog_patterns.cache_clear()
    for name in SUITE_NAMES:
        assert run_suite(name).ok, name
    assert (colored.count(False), colored.count(True)) == (2461, 6929)


def test_catalogs_capacity_error_precedes_canonical_work(monkeypatch):
    """The largest catalog entry has 8 vertices; under a smaller canonical
    bound the suite fails before its first canonical form."""
    orders = []
    min_order = canonical._min_order
    monkeypatch.setattr(canonical, "_min_order", lambda *args: orders.append(args[0]) or min_order(*args))
    with pytest.raises(CapacityError, match=r"^canonical form on 8 vertices exceeds canonical_max_n 5"
                                            r" \(set THRESHKIT_CANONICAL_MAX_N\)$"):
        run_suite("catalogs", None, Limits(canonical_max_n=5))
    assert orders == []
    assert run_suite("catalogs", None, Limits(canonical_max_n=8)).ok
    assert max(orders) == 8


def test_counts_capacity_error_precedes_canonical_work(monkeypatch):
    """The counts suite labels generated threshold graphs on one vertex more
    than it enumerates, so under a canonical bound of 7 it fails before its
    first canonical form."""
    orders = []
    min_order = canonical._min_order
    monkeypatch.setattr(canonical, "_min_order", lambda *args: orders.append(args[0]) or min_order(*args))
    with pytest.raises(CapacityError, match=r"^canonical form on 8 vertices exceeds canonical_max_n 7"
                                            r" \(set THRESHKIT_CANONICAL_MAX_N\)$"):
        run_suite("counts", None, Limits(canonical_max_n=7))
    assert orders == []


def test_catalog_problems_become_witnesses(monkeypatch):
    # a predicate that accepts every graph rejects no catalog entry
    monkeypatch.setattr(classes, "is_good", lambda g: True)
    rep = run_suite("catalogs")
    cat = load_catalog("good")
    assert rep.count("catalog.good.problems") == len(cat.entries)
    assert {(w.graph6, w.detail) for w in rep.witnesses} == {
        (encode_graph6(e.graph), f"catalog.good: {e.name} rejected: entry accepted by recognizer")
        for e in cat.entries
    }


def test_counts_suite_checks_the_enumeration_count_at_n8(monkeypatch):
    """The n = 8 enumeration count is checked; a short hand-built level
    stands in for the real one, which the test never enumerates."""
    short = (empty_graph(8), complete_graph(8), path_graph(8))
    real = verify.all_graphs
    monkeypatch.setattr(verify, "all_graphs",
                        lambda config, limits: short if config.n == 8 else real(config, limits))
    rep = run_suite("counts", 8)
    assert rep.count("enumeration.n8") == 3
    assert "counts: enumeration at n=8 gave 3, expected 12346" in {w.detail for w in rep.witnesses}
