"""Golden verification reports and the verdict-fed rediscovery.

One SHA-256 digest per suite pins the report text at the suite's default
bound, without the elapsed line, the one line that differs between runs.
A change to any count, witness or suite header changes a digest.
"""

import hashlib

import pytest

from threshkit.classes import BY_NAME
from threshkit.limits import DEFAULT_LIMITS
from threshkit.verify import SUITE_NAMES, _SUITES

GOLDEN = {
    "thresholds": "5bdc99f4560c9328fe7a77762f024b3242559dc697dc711f1ea98e454831a86c",
    "special": "335c26a86837c8fded6656504774d52ff83bf8d7158ebec436b647e9b4f45aec",
    "good": "a4fc3eeaea789823190ad3edfb1147d91b985e2146aef9f2d32a0dcbd3ce65da",
    "partitioned": "9ca465294b8239ba4cda94d88fcd39c48e3a0400116f834687902765b384056f",
    "switching": "c70cb7beca38fb994d49fbee78d244478148da0e1be1a434decd6cf3295bb5d7",
    "catalogs": "8b371ed42ef9087234cd2d3ef53dea8a3e98ac6c16741e1cd60044827fe79a87",
    "counts": "a1864302b81e3bb662dbcc6a90dc1fd8b7cf11f5b3b494e12a9e0ac3054de2d4",
}


def test_every_suite_is_pinned():
    assert set(GOLDEN) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_matches_golden_digest(default_run, name):
    report, _ = default_run(name)
    text = "".join(line + "\n" for line in report.to_text().splitlines()
                   if not line.startswith("elapsed "))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("cls", ["special", "good", "partitioned"])
def test_rediscovery_from_suite_verdicts_equals_discovery(default_run, cls):
    """The suites feed discovery their own verdicts; that must find exactly
    what discovery with the class's membership predicate finds."""
    _, found = default_run(cls)
    n_max = _SUITES[cls][1]
    assert found[cls] == BY_NAME[cls].find_obstructions(n_max, DEFAULT_LIMITS)
