"""The scripts in scripts/ run end to end, each in a process of its own."""

import os
import subprocess
import sys
from pathlib import Path

import threshkit
from threshkit.verify import VerificationReport

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_discover_obstructions_script():
    proc = _run("discover_obstructions.py", "--families", "threshold", "partitioned", "--nmax", "4")
    assert proc.returncode == 0, proc.stderr
    assert "== threshold (n <= 4)" in proc.stdout and "== partitioned (n <= 4)" in proc.stdout
    assert "found 3 minimal obstructions with n <= 4, 3 catalogued" in proc.stdout
    assert "UNCATALOGUED" not in proc.stdout


def test_run_verification_script(tmp_path):
    proc = _run("run_verification.py", "--suites", "thresholds", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["thresholds.report.txt"]
    report = VerificationReport.from_text((tmp_path / "thresholds.report.txt").read_text())
    assert report.ok and report.suite == "thresholds" and report.n_max == 7
