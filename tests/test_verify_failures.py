"""Golden failure reports of the five agreement suites.

Each case runs one suite at a reduced bound with one side sabotaged
through a module global the suite calls: some FIS scans flipped, a fast
search returning a different member certificate, a broken replay, or
production verdicts flipped so that rediscovery disagrees with the
catalog. One SHA-256 digest per case pins the report text without its
elapsed line, so the witness lines and *.disagree counts of a failing
suite stay byte-identical.
"""

import hashlib
from types import SimpleNamespace

import pytest

import threshkit.classes as classes
import threshkit.obstructions as obstructions
import threshkit.verify as verify
from threshkit.named import path_graph
from threshkit.switching import SwitchCertificate
from threshkit.verify import run_suite


def _picked(g) -> bool:
    """A fixed, label-dependent share of the graphs on 3 or more vertices."""
    return g.n >= 3 and sum(g.rows) % 5 == 0


def _wrap(monkeypatch, module, name, change):
    """Replace module.name by a function that passes the real one's result,
    and its arguments, to change."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(real(*args), *args))


def flip_scans(monkeypatch):
    def change(hit, host, patterns, host_coloring=None):
        if not _picked(host):
            return hit
        return None if hit is not None else ("flipped", tuple(range(host.n)))
    _wrap(monkeypatch, obstructions, "find_first_embedding", change)


def break_replay(monkeypatch):
    _wrap(monkeypatch, verify, "evaluate",
          lambda built, seq: SimpleNamespace(graph=path_graph(4)) if seq.n == 4 else built)


def other_special_certificate(monkeypatch):
    def change(cert, g):
        if cert is None or g.n != 4:
            return cert
        coloring, seq = cert
        return tuple(1 - c for c in coloring), seq
    _wrap(monkeypatch, verify, "is_special", change)


def flip_special(monkeypatch):
    _wrap(monkeypatch, verify, "is_special",
          lambda cert, g: None if cert is not None and _picked(g) else cert)
    # the verdict changes, never the family kept for the next level
    _wrap(monkeypatch, verify, "extend_white_sets",
          lambda found, g, dialect, whites, whole: (None, found[1]) if g.n == 2 else found)


def flip_good(monkeypatch):
    _wrap(monkeypatch, verify, "is_good", lambda ok, g: ok != _picked(g))


def flip_partitioned(monkeypatch):
    _wrap(monkeypatch, classes, "eliminate",
          lambda seq, cg, dialect: None if _picked(cg.graph) and cg.colors[0] == 0 else seq)


def other_switch_certificate(monkeypatch):
    _wrap(monkeypatch, verify, "switch_to_threshold",
          lambda cert, g: cert if cert is None or g.n != 4 else SwitchCertificate(cert.set | 1, cert.target))


def other_cograph_switch_certificate(monkeypatch):
    _wrap(monkeypatch, verify, "has_cograph_switch",
          lambda cert, g: cert if cert is None or g.n != 4 else SwitchCertificate(cert.set | 1, cert.target))


def flip_switch_sides(monkeypatch):
    _wrap(monkeypatch, verify, "extend_switch_sets",
          lambda found, g, family, whole: ((None, found[0][1]), found[1]) if _picked(g) else found)
    _wrap(monkeypatch, verify, "is_restricted", lambda cert, g: None if g.n == 5 else cert)
    # the oracle's cograph hit is None on a picked graph, so the stand-in
    # certificate of a flipped non-member is compared with nothing
    _wrap(monkeypatch, verify, "has_cograph_switch",
          lambda cert, g: cert if not _picked(g) else None if cert else SwitchCertificate(0, g))


# case -> (suite, n_max, sabotage, a count key the sabotage must raise)
CASES = {
    "thresholds-scans": ("thresholds", 5, flip_scans, "threshold.disagree"),
    "thresholds-replay": ("thresholds", 5, break_replay, "threshold.replay.disagree"),
    "special-scans": ("special", 5, flip_scans, "special.disagree"),
    "special-certificate": ("special", 5, other_special_certificate, "special.certificate.disagree"),
    "special-verdicts": ("special", 5, flip_special, "special.obstructions.disagree"),
    "good-scans": ("good", 5, flip_scans, "good.disagree"),
    "good-verdicts": ("good", 5, flip_good, "good.obstructions.disagree"),
    "partitioned-scans": ("partitioned", 4, flip_scans, "partitioned.disagree"),
    "partitioned-verdicts": ("partitioned", 4, flip_partitioned, "partitioned.obstructions.disagree"),
    "switching-scans": ("switching", 5, flip_scans, "switch_cograph.disagree"),
    "switching-certificate": ("switching", 5, other_switch_certificate,
                              "switch_threshold.certificate.disagree"),
    "switching-sides": ("switching", 5, flip_switch_sides, "switch_threshold.disagree"),
    "switching-cograph-certificate": ("switching", 5, other_cograph_switch_certificate,
                                      "switch_cograph.certificate.disagree"),
}

GOLDEN = {
    "thresholds-scans": "e71fc89daab4f709f9e8f7e1ad1d87341fc855abe636fbcb05076168734a75e5",
    "thresholds-replay": "9f79564f434e8eb6e67ef94ebb13a3f3fb719fbf0dac576f99ff1e80870317b8",
    "special-scans": "e03205226e37eb996bf20a50d2a36e923b5a687468960101b413da43956d38de",
    "special-certificate": "93a896e75ff388768de9d7004dd8e2dc6b05dfd3dba1f618a0d00d04b6efc6e3",
    "special-verdicts": "ef6f9f3aa231326c6bbb20061c1d507821f868260c816a37476c61ca24f0cc3c",
    "good-scans": "e071d5f01d319affa9d23c01f08c6735a20c3a9a91c166e38249964e518240c7",
    "good-verdicts": "b64a95de84395cd5cd72cb744cc77c4c3e317a5a1f6909edb0e3573a88813092",
    "partitioned-scans": "77503dbaa365eb1895cde6ab45fad17760f2075363fb6147241f146ccf92593c",
    "partitioned-verdicts": "2ec4e5683573d5b46077183b133422043dc35330c7b87d29b988b9014280f70c",
    "switching-scans": "1559847e3d8ea156c07ac3abc2b04864dc9a0b3ab4bfea90dbd0605435063fc7",
    "switching-certificate": "75475e48f7ecc28b04d40b8b637f36f3631bcbe631673349ea69163be0105972",
    "switching-sides": "4edfbb9d89f9360b2358f239f4343fcc244c692572e35ccbdea5ff8d3a2a0cf4",
    "switching-cograph-certificate": "16b4745c95cf4b9833aafa671f6772aea17493b4a4d45e939dd38c0f53a74c65",
}


def _digest(report) -> str:
    text = "".join(line + "\n" for line in report.to_text().splitlines()
                   if not line.startswith("elapsed "))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_failure_report_matches_golden_digest(monkeypatch, case):
    suite, n_max, sabotage, key = CASES[case]
    sabotage(monkeypatch)
    report = run_suite(suite, n_max)
    assert report.count(key) > 0
    assert _digest(report) == GOLDEN[case], report.to_text()
