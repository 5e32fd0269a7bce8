"""Smoke test of the narrative scripts in ``demos/`` and README's examples.

Each demo, and each fenced ``python`` block of README.md, runs in its own
interpreter against the package in ``src/``, so a change to a public name or
signature that a demo or the library-use text uses fails here.  README's
sweep file example must load as the bundled recipe it shows.  The
single-trip walkthrough's stdout is also pinned by its digest, so a changed
plan or outcome shows too.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from offloadsim.config import bundled_recipe_path, load_sweep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
README_SWEEPS = [block for block in re.findall(r"^```json\n(.*?)^```$", README,
                                               re.DOTALL | re.MULTILINE)
                 if '"sweep"' in block]
# sha256 of the stdout of each demo whose output is pinned
STDOUT_SHA256 = {
    "single_trip_walkthrough": "3a131ca01464d73414fc44914283948aa43f14dfe4dcb658f1f8b8b736eec137",
}


def test_demos_found():
    assert len(DEMOS) >= 4


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], \
            proc.stdout


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr


def test_readme_sweep_example_is_the_fig2a_recipe(tmp_path):
    """README's sweep file, saved as ``fig2a.json``, loads as the bundled
    fig2a: the documented schema cannot drift from the loader."""
    [block] = README_SWEEPS
    (tmp_path / "fig2a.json").write_text(block)
    shown, bundled = (load_sweep(str(path)) for path in (tmp_path / "fig2a.json",
                                                          bundled_recipe_path("fig2a")))
    assert shown.base == bundled.base
    assert (shown.parameter, shown.values, shown.metrics) == (
        bundled.parameter, bundled.values, bundled.metrics)
    assert [p.scenario_id for p in shown.points] == [p.scenario_id for p in bundled.points]
