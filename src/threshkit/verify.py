"""Verification suites: desk-scale machine checks that the recognizers agree.

Each suite exhaustively enumerates small graphs, runs two or more
independently implemented recognizers for the same class, and reports every
disagreement as a witness. A clean report for a suite is the machine
verification of the corresponding characterization at that scale.

The five agreement suites (thresholds, special, good, partitioned and
switching) are one body, _agreement, plus a check of one graph per suite.
The body enumerates plain or 2-colored graphs, counts and checks them,
and rediscovers the catalog. A check compares its recognizers' verdicts
and certificates with _agree and returns the production verdict, so a new
agreement suite is a check and a _SUITES entry.

Each piece of work is done once per suite. A suite that rediscovers walks
the levels through discovery itself: its counted check is discovery's
membership predicate, so each graph is built and checked once, in the
order of the plain walk.

The special and switching checks take their brute-force answers from
oracles by prefix extension, which carry work from graph to graph. The
walk checks each level in sorted order, and the first n - 1 vertices of a
canonical (minimal graph6) graph induce the canonical graph of their
class one level below: the prefix property of orderly generation (Read,
"Every one a winner", 1978), which discovery also relies on. Every class
checked is hereditary, so each valid coloring, or switch set, of a class
extends one of its prefix class's by the last vertex. The run keeps, by
class rows and for the level below only, the SPECIAL-valid white classes
in product order (extend_white_sets) and the cograph and threshold switch
sets without vertex 0 in ascending masks (extend_switch_sets); a
candidate switch set is a cograph switch when no induced P4 passes
through the last vertex. On the run's top level the oracles stop at their
first hits and keep nothing. _Run.extend calls both oracles as they
are. They return the first valid coloring in product order and the first
switch sets in ascending masks, certificates included, and the tests
compare them with a walk over every coloring and a scan of every switch
set (tests/oracles.py). Both fast switch searches, switch_to_threshold
and has_cograph_switch, must return the switch oracle's certificates.

Canonical forms are computed under the run's limits; suite_bound checks,
before any work, the largest graph a suite labels beyond its enumerated
range: the largest catalog entry in catalogs, and the threshold graphs
that counts generates on one vertex more; for catalogs it also checks
the switch sets of its largest switching class, and for special and
switching the 2^n_max colorings and 2^(n_max - 1) switch sets an oracle
may keep for one class.

The FIS scans read their patterns from the shipped catalogs. The catalogs
suite derives the switch-threshold catalog independently, as the
switching classes of 3K2, C5 and C4+2K1, and compares the two.

Reports serialize to a versioned key-value text document that parses back
to an equal report (see to_text / from_text).
"""

from __future__ import annotations

import time
from functools import cache, partial
from itertools import product

from .canonical import canonical_form
from .catalogs import load_catalog, validate_catalog
from .classes import BY_CATALOG, BY_NAME
from .enumeration import EnumerationConfig, all_colored_graphs, all_graphs, check_range
from .graph6 import format_graph_line
from .graphs import ColoredGraph, Graph
from .kthreshold import (
    SPECIAL,
    extend_white_sets,
    is_good,
    is_restricted,
    is_special,
    is_threshold,
)
from .limits import DEFAULT_LIMITS, Limits
from .named import named_graphs
from .obstructions import find_minimal_colored_obstructions, find_minimal_obstructions
from .records import frozen
from .sequences import ADD, JOIN_ALL, BuildSequence, Step, evaluate
from .switching import (
    _require_switch_sets,
    extend_switch_sets,
    has_cograph_switch,
    switch_to_threshold,
    switching_class,
)

__all__ = [
    "SCHEMA",
    "SUITE_NAMES",
    "Witness",
    "VerificationReport",
    "suite_bound",
    "run_suite",
]

SCHEMA = "threshkit-report/1"

ENUMERATION_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)  # OEIS A000088


@frozen
class Witness:
    """One failing case: the graph, its coloring ("-" if none), the verdicts."""

    graph6: str
    colors: str
    detail: str

    def __post_init__(self) -> None:
        for piece in (self.graph6, self.colors, self.detail):
            if "\t" in piece or "\n" in piece:
                raise ValueError("witness fields may not contain tabs or newlines")


@frozen
class VerificationReport:
    suite: str
    n_max: int
    counts: tuple[tuple[str, int], ...]
    witnesses: tuple[Witness, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def count(self, key: str) -> int:
        for name, value in self.counts:
            if name == key:
                return value
        raise KeyError(key)

    def to_text(self) -> str:
        lines = [SCHEMA, f"suite {self.suite}", f"nmax {self.n_max}", f"elapsed {self.elapsed!r}"]
        for key, value in self.counts:
            lines.append(f"count {key} {value}")
        for w in self.witnesses:
            lines.append(f"witness {w.graph6}\t{w.colors}\t{w.detail}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> VerificationReport:
        lines = text.splitlines()
        if not lines or lines[0] != SCHEMA:
            raise ValueError(f"expected schema line {SCHEMA!r}")
        if not lines or lines[-1] != "end":
            raise ValueError("report must finish with an end line")
        suite = n_max = elapsed = None
        counts: list[tuple[str, int]] = []
        witnesses: list[Witness] = []
        for line in lines[1:-1]:
            head, _, rest = line.partition(" ")
            if head == "suite":
                suite = rest
            elif head == "nmax":
                n_max = int(rest)
            elif head == "elapsed":
                elapsed = float(rest)
            elif head == "count":
                key, _, value = rest.rpartition(" ")
                counts.append((key, int(value)))
            elif head == "witness":
                fields = rest.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"witness line needs three fields: {line!r}")
                witnesses.append(Witness(*fields))
            else:
                raise ValueError(f"unknown report line {line!r}")
        if suite is None or n_max is None or elapsed is None:
            raise ValueError("missing suite, nmax or elapsed line")
        return cls(suite, n_max, tuple(counts), tuple(witnesses), elapsed)


class _Run:
    """Accumulates counters and witnesses while a suite executes."""

    def __init__(self, suite: str, n_max: int, limits: Limits = DEFAULT_LIMITS):
        self.suite = suite
        self.n_max = n_max
        self.limits = limits
        self.counts: dict[str, int] = {}
        self.witnesses: list[tuple[str, Witness]] = []
        # an oracle's families by the rows of their classes, for the level
        # below the one being checked and for that level
        self._below: dict[tuple[int, ...], object] = {}
        self._level: dict[tuple[int, ...], object] = {}
        self._level_n = 0
        self.started = time.perf_counter()

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def set(self, key: str, value: int) -> None:
        self.counts[key] = value

    def witness(self, graph, detail: str) -> None:
        """graph may be a Graph, a ColoredGraph, or None for aggregate failures."""
        if graph is None:
            self.witnesses.append(("", Witness("-", "-", detail)))
            return
        g6, _, colors = format_graph_line(graph).partition(" ")
        g = graph if isinstance(graph, Graph) else graph.graph
        self.witnesses.append((canonical_form(g, self.limits), Witness(g6, colors or "-", detail)))

    def extend(self, g: Graph, oracle, *args, empty):
        """The answer of an oracle by prefix extension for g, a class of the
        walk, from oracle(g, *args, family, whole) -> (answer, family of g).

        The walk goes through the levels in order. The first n - 1 vertices
        of a canonical graph on n vertices induce the canonical graph of
        their class (the prefix property of orderly generation), whose
        family was kept on the level below; for n = 1 it is empty, the
        family of the graph on no vertices. On the run's top level the
        oracle stops at its answer and nothing is kept.
        """
        if g.n != self._level_n:
            self._below, self._level, self._level_n = self._level, {}, g.n
        low = (1 << g.n - 1) - 1
        family = self._below[tuple(r & low for r in g.rows[:-1])] if g.n > 1 else empty
        whole = g.n < self.n_max
        answer, family = oracle(g, *args, family, whole)
        if whole:
            self._level[g.rows] = family
        return answer

    def report(self) -> VerificationReport:
        witnesses = tuple(w for _, w in sorted(self.witnesses, key=lambda p: (p[0], p[1].detail)))
        return VerificationReport(
            self.suite,
            self.n_max,
            tuple(sorted(self.counts.items())),
            witnesses,
            time.perf_counter() - self.started,
        )


def _agree(run: _Run, prefix: str, graph, verdicts: dict[str, bool],
           oracle=None, fast=None) -> None:
    """All verdicts must be equal; given both, a member's fast certificate
    must equal the brute-force oracle's exactly."""
    values = set(verdicts.values())
    if len(values) == 1:
        run.bump(f"{prefix}.agree")
        if values.pop():
            run.bump(f"{prefix}.members")
    else:
        run.bump(f"{prefix}.disagree")
        detail = " ".join(f"{k}={'member' if v else 'non-member'}"
                          for k, v in sorted(verdicts.items()))
        run.witness(graph, f"{prefix}: {detail}")
    if oracle is not None and fast is not None and oracle != fast:
        run.bump(f"{prefix}.certificate.disagree")
        run.witness(graph, f"{prefix}: fast certificate differs from the brute-force one")


def _rediscover(run: _Run, cls: str, found: list) -> None:
    """Compare the minimal obstructions that discovery found for the class,
    up to the run's n_max, with its catalog, both ways.

    Discovery ran with the suite's own check as the class's membership
    predicate, so no graph is classified twice.
    """
    prefix, limits = f"{cls}.obstructions", run.limits
    expected_forms = BY_NAME[cls].catalog_names(run.n_max, limits)
    # discovery returns canonical graphs, so a graph6 line is already the
    # canonical form and labeling them again would repeat its work
    found_forms = {format_graph_line(g): g for g in found}
    run.set(f"{prefix}.found", len(found_forms))
    run.set(f"{prefix}.expected", len(expected_forms))
    for form, g in sorted(found_forms.items()):
        if form not in expected_forms:
            run.bump(f"{prefix}.disagree")
            run.witness(g, f"{prefix}: uncatalogued minimal obstruction")
    for form, name in sorted(expected_forms.items()):
        if form not in found_forms:
            run.bump(f"{prefix}.disagree")
            run.witness(None, f"{prefix}: catalog entry {name} not rediscovered (form {form})")


def _agreement(run: _Run, check, colored: bool = False, rediscover: bool = False) -> None:
    """The body of the agreement suites: check(run, g) on every graph, or
    every 2-colored graph, up to n_max, returning the production verdict;
    with rediscover, the walk is discovery's, with the check as its
    membership predicate, for the suite's class."""
    def member(g) -> bool:
        run.bump("graphs.checked")
        return check(run, g)

    if rediscover:
        find = find_minimal_colored_obstructions if colored else find_minimal_obstructions
        _rediscover(run, run.suite, find(member, run.n_max, run.limits))
        return
    for n in range(1, run.n_max + 1):
        for g in (all_colored_graphs(n, run.limits) if colored
                  else all_graphs(EnumerationConfig(n), run.limits)):
            member(g)


def _check_thresholds(run: _Run, g: Graph) -> bool:
    """Greedy elimination vs the three-pattern FIS, plus certificate replay."""
    seq = is_threshold(g)
    _agree(run, "threshold", g, {
        "elimination": seq is not None,
        "fis": BY_NAME["threshold"].fis(g).accepted,
    })
    if seq is not None and evaluate(seq).graph != g:
        run.bump("threshold.replay.disagree")
        run.witness(g, "threshold: build tree does not evaluate back to the input")
    return seq is not None


def _check_special(run: _Run, g: Graph) -> bool:
    """Brute coloring search vs the fast search vs the eight-pattern FIS."""
    oracle, fast = run.extend(g, extend_white_sets, SPECIAL, empty=[0]), is_special(g)
    _agree(run, "special", g, {
        "brute": oracle is not None,
        "elimination": fast is not None,
        "fis": BY_NAME["special"].fis(g).accepted,
    }, oracle, fast)
    return fast is not None


def _check_good(run: _Run, g: Graph) -> bool:
    """Neighborhood-shape check vs the five-pattern FIS."""
    ok = is_good(g)
    _agree(run, "good", g, {"shape": ok, "fis": BY_NAME["good"].fis(g).accepted})
    return ok


def _check_partitioned(run: _Run, cg: ColoredGraph) -> bool:
    """Colored elimination vs the colored FIS."""
    row = BY_NAME["partitioned"]
    ok = row.member(cg)
    _agree(run, "partitioned", cg, {"elimination": ok, "fis": row.fis(cg).accepted})
    return ok


def _check_switching(run: _Run, g: Graph) -> bool:
    """Brute and fast switch search vs restricted elimination vs FIS, and the
    cograph analog, from one brute-force oracle for both switch classes,
    by prefix extension, with each fast search's certificate against the
    oracle's. The fast switch search tries the restricted search's
    candidate sets, so the brute oracle and the FIS scan are the checks
    independent of both."""
    cograph_oracle, oracle = run.extend(g, extend_switch_sets, empty=([0], [0]))
    fast, cograph_fast = switch_to_threshold(g), has_cograph_switch(g)
    _agree(run, "switch_threshold", g, {
        "brute": oracle is not None,
        "switch_search": fast is not None,
        "elimination": is_restricted(g) is not None,
        "fis": BY_NAME["switch-threshold"].fis(g).accepted,
    }, oracle, fast)
    _agree(run, "switch_cograph", g, {
        "brute": cograph_oracle is not None,
        "switch_search": cograph_fast is not None,
        "fis": BY_NAME["switch-cograph"].fis(g).accepted,
    }, cograph_oracle, cograph_fast)
    return fast is not None


@cache
def _switch_threshold_seeds() -> tuple[Graph, ...]:
    """The graphs whose switching classes make up the switch-threshold
    catalog: 3K2, C5 and C4+2K1."""
    reg = named_graphs()
    return tuple(reg[name] for name in ("3k2", "c5", "c4-2k1"))


def suite_catalogs(run: _Run) -> None:
    """validate_catalog for every shipped family, plus the switching-class cross-check."""
    limits = run.limits
    for family, row in BY_CATALOG.items():
        cat = load_catalog(family)
        run.set(f"catalog.{family}.entries", len(cat.entries))
        problems = validate_catalog(cat, row.member, limits)
        run.set(f"catalog.{family}.problems", len(problems))
        for p in problems:
            run.witness(cat.lookup(p.entry).obstruction,
                        f"catalog.{family}: {p.entry} {p.condition}: {p.detail}")
    # The switch-threshold catalog is also computable from first principles:
    # the switching classes of its seeds, as canonical forms.
    computed = {form for seed in _switch_threshold_seeds() for form in switching_class(seed, limits)}
    catalogued = {canonical_form(e.graph, limits) for e in load_catalog("switch_threshold").entries}
    run.set("catalog.switch_threshold.computed", len(computed))
    if computed != catalogued:
        run.witness(None, "catalog.switch_threshold: computed switching classes differ from catalog")


def suite_counts(run: _Run) -> None:
    """Enumeration counts and the 2^(n-1) threshold count, two ways each."""
    n_max, limits = run.n_max, run.limits
    for n in range(1, n_max + 1):
        got = len(all_graphs(EnumerationConfig(n), limits))
        run.set(f"enumeration.n{n}", got)
        if n <= len(ENUMERATION_COUNTS) and got != ENUMERATION_COUNTS[n - 1]:
            run.witness(None, f"counts: enumeration at n={n} gave {got}, expected {ENUMERATION_COUNTS[n - 1]}")
    # Unlabeled threshold graphs: every {add, joinall} word gives one, distinct
    # words give non-isomorphic graphs, so the count is exactly 2^(n-1). The
    # generator side is independent of the recognizer.
    for n in range(1, _generated_max(n_max) + 1):
        forms = set()
        for word in product((ADD, JOIN_ALL), repeat=n - 1):
            steps = (Step(0, ADD),) + tuple(Step(0, op) for op in word)
            forms.add(canonical_form(evaluate(BuildSequence(1, steps)).graph, limits))
        run.set(f"threshold.generated.n{n}", len(forms))
        if len(forms) != 1 << (n - 1):
            run.witness(None, f"counts: generated threshold forms at n={n} gave {len(forms)}")
        if n <= n_max:
            counted = sum(
                1 for g in all_graphs(EnumerationConfig(n), limits) if is_threshold(g) is not None
            )
            run.set(f"threshold.recognized.n{n}", counted)
            if counted != 1 << (n - 1):
                run.witness(None, f"counts: recognized threshold count at n={n} gave {counted}")


def _generated_max(n_max: int) -> int:
    """The most vertices of a threshold graph that the counts suite generates."""
    return min(n_max + 1, 8)


# name -> (the function that fills a run of the suite, default bound)
_SUITES = {
    "thresholds": (partial(_agreement, check=_check_thresholds), 7),
    "special": (partial(_agreement, check=_check_special, rediscover=True), 7),
    "good": (partial(_agreement, check=_check_good, rediscover=True), 7),
    "partitioned": (partial(_agreement, check=_check_partitioned, colored=True, rediscover=True), 6),
    "switching": (partial(_agreement, check=_check_switching), 7),
    "catalogs": (suite_catalogs, 0),
    "counts": (suite_counts, 7),
}

SUITE_NAMES = tuple(_SUITES)


def suite_bound(name: str, n_max: int | None = None, limits: Limits = DEFAULT_LIMITS) -> int:
    """The bound a run of the named suite uses, n_max or, for None, the
    suite's default, after the checks run_suite makes before any work:
    ValueError for an unknown suite or an empty range, CapacityError for a
    bound above the limit, a graph the suite labels above the canonical
    bound, or colorings or switch sets an oracle walks above the coloring
    budget."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    default_n = _SUITES[name][1]
    if n_max is None:
        n_max = default_n
    # every suite but catalogs (default bound 0) enumerates 1..n_max and
    # would pass vacuously on an empty range
    if default_n > 0:
        check_range(f"suite {name}", n_max, limits)
    # every canonical form in catalogs is of a catalog entry or a smaller
    # graph, and its largest switching class walk is of its largest seed
    if name == "catalogs":
        n = max(e.graph.n for f in BY_CATALOG for e in load_catalog(f).entries)
        limits.require("canonical_max_n", n, f"canonical form on {n} vertices exceeds")
        _require_switch_sets(max(_switch_threshold_seeds(), key=lambda g: g.n), limits)
    elif name == "counts":
        n = _generated_max(n_max)
        limits.require("canonical_max_n", n, f"canonical form on {n} vertices exceeds")
    # the oracles by prefix extension keep, for each class, up to all its
    # 2-colorings or all its switch sets without vertex 0
    elif name == "special":
        limits.require("coloring_budget", 1 << n_max, f"2^{n_max} colorings exceed")
    elif name == "switching":
        limits.require("coloring_budget", 1 << n_max - 1, f"2^{n_max - 1} switch sets exceed")
    return n_max


def run_suite(name: str, n_max: int | None = None, limits: Limits = DEFAULT_LIMITS) -> VerificationReport:
    """Run one named suite; n_max None picks the suite's default bound."""
    run = _Run(name, suite_bound(name, n_max, limits), limits)
    _SUITES[name][0](run)
    return run.report()
