"""Smoke test of the narrative scripts in ``demos/``.

Each demo runs in its own interpreter against the package in ``src/``, so a
change to a public name or signature that a demo uses fails here.  The
single-trip walkthrough's stdout is also pinned by its digest, so a changed
plan or outcome shows too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of the stdout of each demo whose output is pinned
STDOUT_SHA256 = {
    "single_trip_walkthrough": "3a131ca01464d73414fc44914283948aa43f14dfe4dcb658f1f8b8b736eec137",
}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], \
            proc.stdout
