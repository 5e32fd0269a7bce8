"""The package's draws pinned to ``numpy.random``: run seeds, each run's
PCG64 state and its uniform(-1, 1) draws, in a batch and in one
realization's stream, equal numpy's bit for bit, for seeds at every 32-bit
word boundary and past SeedSequence's four-word pool; and neither path
imports ``numpy.random``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offloadsim
from offloadsim import prediction
from offloadsim.prediction import derive_run_seed

# 0, each side of the 32-, 64- and 96-bit word boundaries, and past 2**128,
# where the entropy has more words than the pool and takes the extra mixing
BOUNDARIES = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
              2 ** 96, 2 ** 128 + 1, 2 ** 200 + 3)
SEEDS = st.sampled_from(BOUNDARIES) | st.integers(0, 2 ** 160)


def numpy_run_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, k)).generate_state(1, np.uint64)[0])


def pcg_state(state: np.ndarray, k: int) -> tuple[int, int]:
    """Run k's (state, increment) from a (4, runs) kernel state."""
    hi, lo, inc_hi, inc_lo = (int(word) for word in state[:, k])
    return hi << 64 | lo, inc_hi << 64 | inc_lo


@pytest.mark.parametrize("seed", BOUNDARIES)
def test_run_seed_equals_numpy_at_each_boundary(seed):
    for k in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 130):
        assert derive_run_seed(seed, k) == numpy_run_seed(seed, k)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=SEEDS, k=st.sampled_from(BOUNDARIES) | st.integers(0, 2 ** 40))
def test_run_seed_equals_numpy(seed, k):
    assert derive_run_seed(seed, k) == numpy_run_seed(seed, k)


@pytest.mark.parametrize("name,args", [
    ("base_seed", (0.9, 0)), ("base_seed", (True, 0)), ("base_seed", (-1, 0)),
    ("base_seed", ("1", 0)), ("base_seed", (np.int64(-2), 0)),
    ("run_index", (0, 1.0)), ("run_index", (0, False)), ("run_index", (0, -1))])
def test_run_seed_rejects_a_bad_argument(name, args):
    """A fraction or a bool was once truncated to an int: (0.9, 0) read as (0, 0)."""
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
        derive_run_seed(*args)


def test_run_seed_takes_numpy_integers():
    assert derive_run_seed(np.uint64(2 ** 63), np.int32(4)) == numpy_run_seed(2 ** 63, 4)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, runs=st.integers(1, 6), n=st.integers(1, 50))
def test_states_and_draws_equal_numpy(seed, runs, n):
    """Each run's state after seeding and after ``n`` draws, and the draws,
    equal those of ``default_rng(derive_run_seed(seed, k))``."""
    state = prediction._seeded(seed, runs)
    assert state.shape == (4, runs) and state.dtype == np.uint64
    draws, after = prediction._uniforms(state, n)
    assert draws.shape == (n, runs) and after.shape == (4, runs)
    for k in range(runs):
        generator = np.random.default_rng(derive_run_seed(seed, k))
        bits = generator.bit_generator
        assert pcg_state(state, k) == (bits.state["state"]["state"],
                                       bits.state["state"]["inc"])
        assert np.array_equal(draws[:, k], generator.uniform(-1.0, 1.0, size=n))
        assert pcg_state(after, k) == (bits.state["state"]["state"],
                                       bits.state["state"]["inc"])


def test_passes_of_a_few_rows_equal_one_pass(monkeypatch):
    """Bounding a pass to 2 rows of 4 runs, 25 draws take 13 passes, the last
    of one row, and give the draws and states of one pass."""
    state = prediction._seeded(3, 4)
    whole = prediction._uniforms(state, 25)
    monkeypatch.setattr(prediction, "_BLOCK", 9)
    parts = prediction._uniforms(state, 25)
    assert all(np.array_equal(a, b) for a, b in zip(whole, parts))


@pytest.mark.parametrize("seed", BOUNDARIES + (np.uint64(2 ** 64 - 3),))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 200))
def test_one_run_draws_equal_numpy(seed, n):
    """One realization's stream, drawn on Python ints, equals numpy's
    generator seeded with the same integer."""
    want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    assert prediction._stream(seed, n) == want.tolist()


def run_without_numpy_random(code: str, *args: str) -> str:
    """The last line ``code`` prints, run in a fresh interpreter with the
    package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(offloadsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_batch_path_never_imports_numpy_random(tmp_path):
    """A cold ``run`` on dt-default and a figure recipe through ``run_sweep``
    draw every batch without loading ``numpy.random``."""
    code = """
        import sys
        from offloadsim import cli, config, metrics
        assert cli.main(["run", "--scenario", "dt-default", "--out", sys.argv[1]]) == 0
        metrics.run_sweep(config.load_sweep(str(config.bundled_recipe_path("fig2a"))))
        print("numpy.random" in sys.modules)
    """
    assert run_without_numpy_random(code, str(tmp_path / "dt.csv")) == "False"


def test_one_run_path_never_imports_numpy_random():
    """One realization, a trip on it through the engine and the stepped
    oracle, their comparison, and a cold ``oracle-check`` on dt-default draw
    without loading ``numpy.random``."""
    code = """
        import sys
        from offloadsim import cli
        from offloadsim.config import bundled_scenario_path, load_experiment
        from offloadsim.engine import run_trip
        from offloadsim.oracle import compare_runs, run_trip_stepped
        from offloadsim.prediction import realize_route
        spec = load_experiment(str(bundled_scenario_path("scenario_dt_default")))
        nominal = spec.scaled_route()
        realized = realize_route(nominal, spec.errors)
        policy = spec.policies[0]
        analytic = run_trip(realized, nominal, spec.task, policy, spec.errors, spec.energy)
        stepped = run_trip_stepped(realized, nominal, spec.task, policy, spec.errors)
        compare_runs(analytic, stepped, spec.task.size_mb, realized.total_time)
        assert cli.main(["oracle-check", "--scenario", "dt-default", "--seeds", "3"]) == 0
        print("numpy.random" in sys.modules)
    """
    assert run_without_numpy_random(code) == "False"
