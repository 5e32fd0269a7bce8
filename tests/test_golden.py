"""Every workload's jobs against the benchmark's golden digests.

These recompute digests through ``perfbench/jobs.py``'s own job functions,
as the benchmark runs them: every chunk digest of random-trips bank seed 0
and the verdict digest of oracle-check bank seed 0 (the float path), and
every figure recipe, one ``run_sweep`` per sweep point, and both cli-run
scenarios (the batch path).  Nothing under ``perfbench/`` is written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class Untimed:
    """A job meter that skips the reference runs: digests need no timing."""

    def add(self, seconds):
        return 1.0


@pytest.fixture(scope="module")
def jobs():
    """``perfbench/jobs.py``, imported without writing bytecode beside it,
    with its meter untimed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        module = importlib.import_module("jobs")
        mp.setattr(module, "Meter", Untimed)
        yield module


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def test_random_trips_bank_0_matches_golden(jobs, golden):
    _, requested, ops, _, _ = jobs.random_trips_work(jobs.setup("random-trips"), 0)
    assert requested == jobs.ROUTES_PER_JOB * jobs.TRIPS_PER_ROUTE
    assert len(ops) == jobs.ROUTES_PER_JOB // jobs.ROUTES_PER_CHUNK
    attempted, failed, messages = jobs.check("random-trips", ops, golden)
    assert attempted == requested and failed == 0, messages


def test_oracle_check_bank_0_matches_golden(jobs, golden):
    _, _, ops, _, _ = jobs.oracle_work(jobs.setup("oracle-check"), 0)
    assert ops[-1][0] == "verdicts/0"
    attempted, failed, messages = jobs.check("oracle-check", ops, golden)
    assert attempted == len(ops) and failed == 0, messages


def test_figures_work_matches_golden(jobs, golden):
    _, requested, ops, _, _ = jobs.figures_work(jobs.setup("figures"), 0)
    assert sorted(name for name, _, _ in ops) == sorted(jobs.RECIPES)
    assert requested > 0
    attempted, failed, messages = jobs.check("figures", ops, golden)
    assert attempted == len(jobs.RECIPES) and failed == 0, messages


def test_cli_work_matches_golden(jobs, golden, tmp_path, capsys):
    _, _, ops, _, _ = jobs.cli_work(jobs.setup("cli-run"), 0, tmp_path)
    capsys.readouterr()  # the command's table
    assert [name for name, _, _ in ops] == list(jobs.SCENARIOS)
    attempted, failed, messages = jobs.check("cli-run", ops, golden)
    assert attempted == len(jobs.SCENARIOS) and failed == 0, messages
