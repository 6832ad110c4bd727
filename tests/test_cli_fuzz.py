"""The exit-code contract under arbitrary input.

Argument vectors, graph lines on standard input and THRESHKIT_* values are
drawn at random. Every call must end in an exit code from 0 to 4 without
an exception escaping main(), and no suite or discovery may pass on an
empty range. Bounds stay at n <= 4 so that each call is quick.
"""

import contextlib
import io
import os
import sys

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import threshkit.cli as cli
from threshkit.classes import BY_FAMILY, BY_NAME
from threshkit.graph6 import color_string, encode_graph6
from threshkit.limits import ENV_VARS
from threshkit.verify import SUITE_NAMES

from strategies import graph_from_mask

ENV = tuple(ENV_VARS.values())

def _at_most_four(text: str) -> bool:
    try:
        return int(text) <= 4
    except ValueError:
        return True


junk = st.text(max_size=8)
small = st.integers(-2, 4).map(str)
# --nmax and --k stay small, also when drawn as text: a larger one takes seconds
small_junk = junk.filter(_at_most_four)


def either(*choices, text=junk):
    """A well-formed value nine times in ten, arbitrary text otherwise."""
    return st.integers(0, 9).flatmap(lambda i: text if i == 0 else st.one_of(*choices))


OPTIONS = {
    "recognize": {
        "--class": either(st.sampled_from(tuple(BY_NAME))),
        "--method": either(st.sampled_from(("fis", "elimination", "both"))),
        "--k": either(small, text=small_junk),
    },
    "verify": {
        "--suite": either(st.sampled_from(SUITE_NAMES)),
        "--nmax": either(small, text=small_junk),
        "--out": st.sampled_from((os.devnull, os.path.join(os.devnull, "report.txt"))),
    },
    "obstructions": {
        "--family": either(st.sampled_from(tuple(BY_FAMILY))),
        "--nmax": either(small, text=small_junk),
    },
    "switch": {
        "--set": either(st.just("search"), st.lists(small, max_size=4).map(",".join)),
    },
}
REQUIRED = {"--class", "--suite", "--family", "--set"}


def usually(draw, flag: bool) -> bool:
    """True nine times in ten where flag holds, two in ten otherwise."""
    return draw(st.integers(0, 9)) < (9 if flag else 2)


@st.composite
def argvs(draw):
    command = draw(either(st.sampled_from(tuple(OPTIONS))))
    argv = [command]
    for flag, values in OPTIONS.get(command, {}).items():
        # --nmax is always given, since a suite's default bound takes seconds
        if flag == "--nmax" or usually(draw, flag in REQUIRED or "kthreshold" in argv):
            argv += [flag, draw(values)]
    if usually(draw, False):
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@st.composite
def graph_line(draw, colored: bool):
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = graph_from_mask(n, sum(bit << i for i, bit in enumerate(edges)))
    line = encode_graph6(g)
    if colored:
        line += " " + draw(either(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n).map(color_string)))
    return line


@st.composite
def stdin_texts(draw, argv):
    """One to three lines, 2-colored where argv names the partitioned class."""
    colored = usually(draw, "partitioned" in argv)
    return "\n".join(draw(st.lists(either(graph_line(colored)), min_size=1, max_size=3)))


@st.composite
def calls(draw):
    argv = draw(argvs())
    return argv, draw(stdin_texts(argv))


# what an environment can hold: no NUL and no lone surrogate
env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
env_values = st.dictionaries(st.sampled_from(ENV), either(st.integers(0, 10).map(str), text=env_text), max_size=2)


def _nmax(argv):
    if "--nmax" in argv:
        try:
            return int(argv[argv.index("--nmax") + 1])
        except (IndexError, ValueError):
            return None
    return None


@settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(call=calls(), env=env_values)
def test_main_keeps_the_exit_code_contract(call, env):
    argv, stdin = call
    saved_env = {name: os.environ.get(name) for name in ENV}
    saved_stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        for name in ENV:
            os.environ.pop(name, None)
        os.environ.update(env)
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    assert code in (cli.OK, cli.NON_MEMBER, cli.USAGE, cli.DISAGREE, cli.CAPACITY)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    nmax = _nmax(argv)
    ranged = argv[0] == "obstructions" or (argv[0] == "verify" and "--suite catalogs" not in " ".join(argv))
    if ranged and nmax is not None and nmax < 1:
        assert code == cli.USAGE
