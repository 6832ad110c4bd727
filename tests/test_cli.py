"""End-to-end command-line behavior, including the exit-code contract."""

import io
import random
import time

import pytest

import threshkit.classes as classes
import threshkit.cli as cli
import threshkit.kthreshold as kthreshold
from threshkit.canonical import canonical_form
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graph6 import encode_graph6
from threshkit.graphs import disjoint_union
from threshkit.kthreshold import EXTENDED, RESTRICTED, SPECIAL, general_dialect
from threshkit.named import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gem,
    matching,
    path_graph,
)
from threshkit.obstructions import FisResult
from threshkit.verify import VerificationReport, Witness

from strategies import random_member, random_switch_cograph


def _input_file(tmp_path, *lines):
    path = tmp_path / "graphs.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_recognize_member_exits_zero(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(complete_graph(3)))
    assert cli.main(["recognize", "--class", "threshold", "--input", path]) == cli.OK
    out = capsys.readouterr().out
    assert ": member (threshold)" in out
    assert "seed" in out  # certificate build sequence is printed


def test_recognize_non_member_exits_one_with_obstruction(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["recognize", "--class", "threshold", "--input", path]) == cli.NON_MEMBER
    out = capsys.readouterr().out
    assert ": non-member (threshold)" in out
    assert "obstruction c4 embedding" in out


def test_recognize_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(path_graph(3)) + "\n"))
    assert cli.main(["recognize", "--class", "threshold"]) == cli.OK
    assert ": member" in capsys.readouterr().out


def test_recognize_parse_error_exits_two(tmp_path, capsys):
    path = _input_file(tmp_path, "!!notagraph")
    assert cli.main(["recognize", "--class", "threshold", "--input", path]) == cli.USAGE
    assert "error:" in capsys.readouterr().err


def test_kthreshold_requires_k(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["recognize", "--class", "kthreshold", "--input", path]) == cli.USAGE
    assert "--k is required" in capsys.readouterr().err


def test_k_rejected_outside_kthreshold(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    args = ["recognize", "--class", "threshold", "--k", "2", "--input", path]
    assert cli.main(args) == cli.USAGE


def test_fis_method_rejected_without_patterns(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    args = ["recognize", "--class", "extended", "--method", "fis", "--input", path]
    assert cli.main(args) == cli.USAGE
    assert "no forbidden-subgraph recognizer" in capsys.readouterr().err


def test_kthreshold_two_accepts_c4(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    args = ["recognize", "--class", "kthreshold", "--k", "2", "--input", path]
    assert cli.main(args) == cli.OK
    out = capsys.readouterr().out
    assert "coloring" in out and "seed" in out


def test_partitioned_needs_colored_input(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(path_graph(3)))
    args = ["recognize", "--class", "partitioned", "--input", path]
    assert cli.main(args) == cli.USAGE
    # a usage error, not a parse error with a byte offset
    assert capsys.readouterr().err == (
        "error: class partitioned needs '<graph6> <colorstring>' input\n"
    )


def test_colored_input_rejected_elsewhere(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(path_graph(3)) + " bww")
    args = ["recognize", "--class", "threshold", "--input", path]
    assert cli.main(args) == cli.USAGE
    assert capsys.readouterr().err == "error: class threshold takes uncolored input\n"
    assert cli.main(["switch", "--set", "0", "--input", path]) == cli.USAGE
    assert capsys.readouterr().err == "error: switch takes uncolored input\n"


@pytest.mark.parametrize("method", ["fis", "elimination", "both"])
def test_partitioned_rejects_a_third_color_under_every_method(tmp_path, capsys, method):
    # the FIS scan alone would find no pattern with color 2 and accept
    path = _input_file(tmp_path, "A_ 02")
    args = ["recognize", "--class", "partitioned", "--method", method, "--input", path]
    assert cli.main(args) == cli.USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class partitioned takes colors b and w only\n"


def test_partitioned_colored_member(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(path_graph(3)) + " bww")
    args = ["recognize", "--class", "partitioned", "--input", path]
    assert cli.main(args) == cli.OK
    assert ": member (partitioned)" in capsys.readouterr().out


def test_partitioned_colored_non_member(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(matching(2)) + " bbbb")
    args = ["recognize", "--class", "partitioned", "--input", path]
    assert cli.main(args) == cli.NON_MEMBER
    assert "obstruction" in capsys.readouterr().out


def test_capacity_exit_via_env_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THRESHKIT_COLORING_BUDGET", "1")
    path = _input_file(tmp_path, encode_graph6(cycle_graph(5)))
    args = ["recognize", "--class", "kthreshold", "--k", "3", "--input", path]
    assert cli.main(args) == cli.CAPACITY
    assert "capacity:" in capsys.readouterr().err


def test_capacity_exit_names_the_variable_that_raises_the_limit(tmp_path, monkeypatch, capsys):
    """k = 3 on 15 vertices has 2,391,485 colorings numbered by first use,
    over the default budget."""
    monkeypatch.delenv("THRESHKIT_COLORING_BUDGET", raising=False)
    path = _input_file(tmp_path, encode_graph6(path_graph(15)))
    args = ["recognize", "--class", "kthreshold", "--k", "3", "--input", path]
    assert cli.main(args) == cli.CAPACITY
    assert capsys.readouterr().err == (
        "capacity: 2391485 colorings exceed coloring_budget 1048576"
        " (set THRESHKIT_COLORING_BUDGET)\n")


def test_kthreshold_with_many_colors_answers_on_five_vertices(tmp_path, capsys):
    """At most 52 colorings of 5 vertices are numbered by first use, however
    large k is, so --k 100 answers, as --k 5 does, under the default budget."""
    path = _input_file(tmp_path, *(encode_graph6(g) for g in all_graphs(EnumerationConfig(5))))
    args = ["recognize", "--class", "kthreshold", "--input", path, "--k"]
    code = cli.main(args + ["100"])
    out, err = capsys.readouterr()
    assert code in (cli.OK, cli.NON_MEMBER) and err == ""
    assert cli.main(args + ["5"]) == code
    assert capsys.readouterr().out == out


def test_kthreshold_work_grows_with_the_graph_not_with_k(tmp_path, monkeypatch, capsys):
    """Colors numbered by first use stay below n, so a huge --k hands the
    kernel no more masks than --k n does: at most n + 1 on C5, a 3-threshold
    member, and the same output as --k 5."""
    path = _input_file(tmp_path, encode_graph6(cycle_graph(5)))
    args = ["recognize", "--class", "kthreshold", "--input", path, "--k"]
    assert cli.main(args + ["5"]) == cli.OK
    expected = capsys.readouterr().out
    masks = []
    kernel = kthreshold.elimination_picks
    monkeypatch.setattr(kthreshold, "elimination_picks",
                        lambda rows, alive, ops: masks.append(len(ops)) or kernel(rows, alive, ops))
    assert cli.main(args + ["1000000"]) == cli.OK
    assert capsys.readouterr().out == expected
    assert masks and max(masks) <= 6
    start = time.perf_counter()
    assert cli.main(args + [str(10 ** 18)]) == cli.OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == expected


def test_kthreshold_coloring_past_ten_colors_is_comma_separated(tmp_path, monkeypatch, capsys):
    """11K2 needs 11 colors, one more than a digit per vertex can show."""
    monkeypatch.setenv("THRESHKIT_COLORING_BUDGET", str(10 ** 20))
    path = _input_file(tmp_path, encode_graph6(matching(11)))
    args = ["recognize", "--class", "kthreshold", "--k", "11", "--input", path]
    assert cli.main(args) == cli.OK
    out = capsys.readouterr().out
    assert ": member (kthreshold)" in out
    (coloring,) = [line.split()[1] for line in out.splitlines() if line.startswith("  coloring ")]
    assert sorted(set(map(int, coloring.split(",")))) == list(range(11))


@pytest.mark.parametrize("raw", ["many", "1.5", "-1", ""])
def test_bad_env_limit_exits_two_naming_the_variable(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("THRESHKIT_COLORING_BUDGET", raw)
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["recognize", "--class", "threshold", "--input", path]) == cli.USAGE
    assert "THRESHKIT_COLORING_BUDGET" in capsys.readouterr().err


def test_bad_env_limit_at_import_exits_two(tmp_path):
    import os
    import subprocess
    import sys

    import threshkit

    env = dict(os.environ, THRESHKIT_ENUMERATION_MAX_N="eight")
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(threshkit.__file__))
    code = "import sys; from threshkit.cli import main; sys.exit(main(['verify', '--suite', 'counts']))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == cli.USAGE
    assert "THRESHKIT_ENUMERATION_MAX_N" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("suite", ["thresholds", "special", "good", "partitioned", "switching", "counts"])
@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_verify_empty_range_exits_two(capsys, suite, nmax):
    assert cli.main(["verify", "--suite", suite, "--nmax", nmax]) == cli.USAGE
    assert "at least 1" in capsys.readouterr().err


def test_catalogs_suite_ignores_the_bound(capsys):
    assert cli.main(["verify", "--suite", "catalogs", "--nmax", "0"]) == cli.OK


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_obstructions_empty_range_exits_two(capsys, nmax):
    assert cli.main(["obstructions", "--family", "threshold", "--nmax", nmax]) == cli.USAGE
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("cls", ["special", "restricted", "extended", "kthreshold", "switch-cograph"])
def test_polynomial_searches_take_64_vertex_graphs(tmp_path, capsys, cls):
    rnd = random.Random(f"{cls}:64")
    if cls == "switch-cograph":
        g = random_switch_cograph(rnd, 64)
    else:
        dialect = {"special": SPECIAL, "restricted": RESTRICTED,
                   "extended": EXTENDED, "kthreshold": general_dialect(2)}[cls]
        g = random_member(rnd, dialect, 64).graph
    path = _input_file(tmp_path, encode_graph6(g))
    args = ["recognize", "--class", cls, "--method", "elimination", "--input", path]
    assert cli.main(args + (["--k", "2"] if cls == "kthreshold" else [])) == cli.OK
    assert f": member ({cls})" in capsys.readouterr().out


def test_switch_cograph_member_on_38_vertices_answers_at_default_limits(tmp_path, monkeypatch, capsys):
    """The depth-first oracle_least_cograph_switch visits 544,943 partial
    sets on this member, about 30 s."""
    monkeypatch.delenv("THRESHKIT_COLORING_BUDGET", raising=False)
    line = (r"eU^HmUaH]SXQqcLZEluSbgkZIRdTbUSdBIQdKYf}Sf@xAKAqcWCL^fzelr|uSB?bLZfzct}^mUOb?bXJ{~[ct}"
            r"^mQVRdZceSB?bZxYKALmqcWCZ\L^fzcb_")
    path = _input_file(tmp_path, line)
    start = time.perf_counter()
    assert cli.main(["recognize", "--class", "switch-cograph", "--input", path]) == cli.OK
    assert time.perf_counter() - start < 1.0
    assert "  switch set 2,3,5,6,8,10,11,13,16,18,27,34\n" in capsys.readouterr().out


def test_verify_capacity_exit_via_env(monkeypatch, capsys):
    monkeypatch.setenv("THRESHKIT_ENUMERATION_MAX_N", "4")
    assert cli.main(["verify", "--suite", "counts", "--nmax", "5"]) == cli.CAPACITY


def test_disagreement_exit_three(tmp_path, monkeypatch, capsys):
    lying = lambda g: FisResult(False, "p4", (0, 1))
    monkeypatch.setattr(classes, "recognize_threshold_fis", lying)
    path = _input_file(tmp_path, encode_graph6(complete_graph(2)))
    assert cli.main(["recognize", "--class", "threshold", "--input", path]) == cli.DISAGREE
    assert "DISAGREEMENT" in capsys.readouterr().out


def test_verify_small_suite(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    args = ["verify", "--suite", "thresholds", "--nmax", "4", "--out", str(out_file)]
    assert cli.main(args) == cli.OK
    stdout = capsys.readouterr().out
    assert out_file.read_text() == stdout
    rep = VerificationReport.from_text(stdout)
    assert rep.ok and rep.suite == "thresholds" and rep.n_max == 4


def test_verify_failing_report_exits_one(monkeypatch, capsys):
    bad = VerificationReport(
        "thresholds", 4, (), (Witness("-", "-", "boom"),), 0.0)
    monkeypatch.setattr(cli, "run_suite", lambda name, nmax, limits: bad)
    assert cli.main(["verify", "--suite", "thresholds"]) == cli.NON_MEMBER
    assert "boom" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["recognize", "--class", "threshold", "--input"],
        ["switch", "--set", "search", "--input"],
    ],
)
def test_missing_input_file_exits_two(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.txt")
    assert cli.main(argv + [missing]) == cli.USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.txt" in err
    assert "Traceback" not in err


def test_unwritable_verify_out_exits_two(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    out_file = tmp_path / "no-such-dir" / "report.txt"
    args = ["verify", "--suite", "thresholds", "--nmax", "3", "--out", str(out_file)]
    assert cli.main(args) == cli.USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "report.txt" in err
    assert not out_file.exists()
    assert ran == []  # the path is opened before the suite runs


@pytest.mark.parametrize("nmax, code", [("9", cli.CAPACITY), ("0", cli.USAGE)])
def test_refused_verify_leaves_an_existing_out_file_as_it_was(tmp_path, capsys, nmax, code):
    out_file = tmp_path / "r.txt"
    out_file.write_bytes(b"an earlier report\n")
    args = ["verify", "--suite", "special", "--nmax", nmax, "--out", str(out_file)]
    assert cli.main(args) == code
    assert out_file.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("suite, bound", [("catalogs", "5"), ("counts", "7")])
def test_canonical_bound_refusal_leaves_an_existing_out_file_as_it_was(
        tmp_path, monkeypatch, capsys, suite, bound):
    """catalogs labels its 8-vertex entries and counts the threshold graphs
    it generates on 8 vertices, so these bounds refuse the run before the
    report file is opened."""
    monkeypatch.setenv("THRESHKIT_CANONICAL_MAX_N", bound)
    out_file = tmp_path / "r.txt"
    out_file.write_bytes(b"an earlier report\n")
    assert cli.main(["verify", "--suite", suite, "--out", str(out_file)]) == cli.CAPACITY
    assert capsys.readouterr().err == (
        f"capacity: canonical form on 8 vertices exceeds canonical_max_n {bound}"
        " (set THRESHKIT_CANONICAL_MAX_N)\n")
    assert out_file.read_bytes() == b"an earlier report\n"


def test_coloring_budget_refusal_leaves_an_existing_out_file_as_it_was(
        tmp_path, monkeypatch, capsys):
    """catalogs walks the 2^5 switch sets of 3K2, so a smaller budget refuses
    the run before the report file is opened."""
    monkeypatch.setenv("THRESHKIT_COLORING_BUDGET", "31")
    out_file = tmp_path / "r.txt"
    out_file.write_bytes(b"an earlier report\n")
    assert cli.main(["verify", "--suite", "catalogs", "--out", str(out_file)]) == cli.CAPACITY
    assert capsys.readouterr().err == (
        "capacity: 2^5 switch sets exceed coloring_budget 31 (set THRESHKIT_COLORING_BUDGET)\n")
    assert out_file.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("suite, budget, refused", [
    ("special", 127, "2^7 colorings"),
    ("switching", 63, "2^6 switch sets"),
])
def test_suite_budget_refusal_leaves_an_existing_out_file_as_it_was(
        tmp_path, monkeypatch, capsys, suite, budget, refused):
    """special keeps up to all 2^7 colorings of a class at its default bound
    and switching up to all 2^6 switch sets without vertex 0, so a smaller
    budget refuses the run before the report file is opened."""
    monkeypatch.setenv("THRESHKIT_COLORING_BUDGET", str(budget))
    out_file = tmp_path / "r.txt"
    out_file.write_bytes(b"an earlier report\n")
    assert cli.main(["verify", "--suite", suite, "--out", str(out_file)]) == cli.CAPACITY
    assert capsys.readouterr().err == (
        f"capacity: {refused} exceed coloring_budget {budget} (set THRESHKIT_COLORING_BUDGET)\n")
    assert out_file.read_bytes() == b"an earlier report\n"


def test_obstructions_threshold(capsys):
    assert cli.main(["obstructions", "--family", "threshold", "--nmax", "4"]) == cli.OK
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "found 3 minimal obstructions with n <= 4, 3 catalogued"
    names = {line.split("\t")[1] for line in out[:-1]}
    assert names == {"2k2", "p4", "c4"}


def test_obstructions_two_colors_include_known_trio(capsys):
    assert cli.main(["obstructions", "--family", "kthreshold2", "--nmax", "6"]) == cli.OK
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "found 13 minimal obstructions with n <= 6, 13 catalogued"
    forms = {line.split("\t")[0] for line in out[:-1]}
    for g in (gem(), matching(3), cycle_graph(5)):
        assert canonical_form(g) in forms
    assert "UNCATALOGUED" not in capsys.readouterr().out


def test_obstructions_partitioned_small(capsys):
    assert cli.main(["obstructions", "--family", "partitioned", "--nmax", "4"]) == cli.OK
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith("catalogued")
    assert "UNCATALOGUED" not in "\n".join(out)


def test_switch_applies_explicit_set(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(complete_graph(2)))
    assert cli.main(["switch", "--set", "0", "--input", path]) == cli.OK
    assert capsys.readouterr().out.strip() == encode_graph6(empty_graph(2))


def test_switch_empty_set_is_identity(tmp_path, capsys):
    g6 = encode_graph6(cycle_graph(4))
    path = _input_file(tmp_path, g6)
    assert cli.main(["switch", "--set", "-", "--input", path]) == cli.OK
    assert capsys.readouterr().out.strip() == g6


def test_switch_rejects_out_of_range_vertex(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["switch", "--set", "7", "--input", path]) == cli.USAGE


@pytest.mark.parametrize("given, message", [
    ("0,,1", "error: switch vertex '' is not an integer (offset 2)\n"),
    ("x", "error: switch vertex 'x' is not an integer (offset 0)\n"),
])
def test_switch_rejects_a_token_that_is_not_a_vertex(tmp_path, capsys, given, message):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["switch", "--set", given, "--input", path]) == cli.USAGE
    assert capsys.readouterr().err == message


def test_switch_search_finds_certificate(tmp_path, capsys):
    path = _input_file(tmp_path, encode_graph6(cycle_graph(4)))
    assert cli.main(["switch", "--set", "search", "--input", path]) == cli.OK
    out = capsys.readouterr().out
    assert "switch set" in out and "target" in out


def test_switch_search_reports_none(tmp_path, capsys):
    host = disjoint_union(cycle_graph(4), empty_graph(2))
    path = _input_file(tmp_path, encode_graph6(host))
    assert cli.main(["switch", "--set", "search", "--input", path]) == cli.NON_MEMBER
    assert ": none" in capsys.readouterr().out


def test_usage_errors_from_argparse(capsys):
    assert cli.main([]) == cli.USAGE
    assert cli.main(["obstructions", "--family", "nope", "--nmax", "4"]) == cli.USAGE
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == cli.OK
    assert "recognize" in capsys.readouterr().out


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("threshkit")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run(
        [exe, "verify", "--suite", "catalogs"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("threshkit-report/1")


def test_obstructions_looks_up_only_catalog_entries_within_nmax():
    """The kthreshold2 catalog has entries on up to 8 vertices, but a search
    up to 5 vertices needs canonical forms of at most 5, so a canonical
    bound of 5 leaves the output unchanged. Each run is a fresh process,
    because the enumeration is cached."""
    import os
    import subprocess
    import sys

    import threshkit

    code = ("import sys; from threshkit.cli import main; "
            "sys.exit(main(['obstructions', '--family', 'kthreshold2', '--nmax', '5']))")
    runs = []
    for bound in (None, "5"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
        env.pop("THRESHKIT_CANONICAL_MAX_N", None)
        if bound is not None:
            env["THRESHKIT_CANONICAL_MAX_N"] = bound
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[1] == runs[0]
    assert runs[0][0] == cli.OK and runs[0][2] == ""
    assert runs[0][1].endswith("found 2 minimal obstructions with n <= 5, 2 catalogued\n")


@pytest.mark.parametrize("cls, line", [
    ("restricted", "Cr"),
    ("switch-threshold", "Cr"),
    ("partitioned", "Cr bwbw"),
])
def test_small_canonical_bound_leaves_fis_scans_alone(cls, line):
    """The pattern tables are the package's own work, so a canonical bound
    below their size does not stop a scan of a 4-vertex input. Each run is
    a fresh process, because the tables are cached."""
    import os
    import subprocess
    import sys

    import threshkit

    code = ("import sys; from threshkit.cli import main; "
            f"sys.exit(main(['recognize', '--class', {cls!r}, '--method', 'fis']))")
    runs = []
    for bound in (None, "5"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
        env.pop("THRESHKIT_CANONICAL_MAX_N", None)
        if bound is not None:
            env["THRESHKIT_CANONICAL_MAX_N"] = bound
        proc = subprocess.run([sys.executable, "-c", code], input=line + "\n", env=env,
                              capture_output=True, text=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[1] == runs[0]
    assert runs[0][0] in (cli.OK, cli.NON_MEMBER) and runs[0][2] == ""
