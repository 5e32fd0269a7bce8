"""Every workload's jobs against the benchmark's golden digests.

These recompute digests through ``perfbench/jobs.py``'s own job functions,
as the benchmark runs them: every chunk digest of random-trips and the
verdict digest of oracle-check on each of the 16 bank seeds (the float path),
and every figure recipe, one ``run_sweep`` per sweep point, and both cli-run
scenarios (the batch path); 422 digests in all, every one in
``perfbench/golden.json``.  Nothing under ``perfbench/`` is written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BANK_SEEDS = range(16)  # jobs.BANK: a job's seed picks bank seed seed % 16


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


def test_every_bank_seed_has_golden_digests(jobs, golden):
    assert list(BANK_SEEDS) == list(range(jobs.BANK))
    chunks = jobs.ROUTES_PER_JOB // jobs.ROUTES_PER_CHUNK
    want = ({f"random-trips:{b}/{c}" for b in BANK_SEEDS for c in range(chunks)}
            | {f"oracle-check:verdicts/{b}" for b in BANK_SEEDS}
            | {f"figures:{name}" for name in jobs.RECIPES}
            | {f"cli-run:{name}" for name in jobs.SCENARIOS})
    assert set(golden) == want and len(want) == 422


@pytest.mark.parametrize("bank_seed", BANK_SEEDS)
def test_random_trips_bank_matches_golden(jobs, golden, bank_seed):
    _, requested, ops, _, _ = jobs.random_trips_work(jobs.setup("random-trips"), bank_seed)
    assert requested == jobs.ROUTES_PER_JOB * jobs.TRIPS_PER_ROUTE
    assert len(ops) == jobs.ROUTES_PER_JOB // jobs.ROUTES_PER_CHUNK
    attempted, failed, messages = jobs.check("random-trips", ops, golden)
    assert attempted == requested and failed == 0, messages


@pytest.mark.parametrize("bank_seed", BANK_SEEDS)
def test_oracle_check_bank_matches_golden(jobs, golden, bank_seed):
    _, _, ops, _, _ = jobs.oracle_work(jobs.setup("oracle-check"), bank_seed)
    assert ops[-1][0] == f"verdicts/{bank_seed}"
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
