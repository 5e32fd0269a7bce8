"""The record rule: a validated input is a frozen dataclass, a result is a
NamedTuple (so ``_replace``/``_fields``/``_asdict``, not the dataclass
functions, apply to results)."""

import dataclasses
import pickle

import pytest

from conftest import make_task
from offloadsim import (AgreementReport, AggregateResult, EnergyBreakdown, EnergyModel, ErrorSpec,
                        MetricSummary, RouteProfile, RouteSegment, RunOutcome, ScenarioSpec,
                        StepOutcome, SweepSpec, TransferTask, compare_runs, realize_batch,
                        realize_route, run_policies, run_scenario, run_trip, run_trip_stepped)
from offloadsim.policies import Policy

RESULTS = (EnergyBreakdown, RunOutcome, StepOutcome, AgreementReport, MetricSummary,
           AggregateResult)
INPUTS = (RouteSegment, RouteProfile, TransferTask, EnergyModel, ErrorSpec, ScenarioSpec,
          SweepSpec)
POLICIES = (Policy.PREFETCH_DELAY_TOLERANT, Policy.PREDICTION_ONLY_DELAY_TOLERANT,
            Policy.NO_PREDICTION_OFFLOAD, Policy.MOBILE_ONLY)


@pytest.fixture(scope="module")
def records(route_4ap, default_route):
    """One record of each result type, each from the call that returns it."""
    errors = ErrorSpec(0.10, 0.20, seed=3)
    task = make_task(60.0)
    realized = realize_route(default_route, errors)
    outcome = run_trip(realized, default_route, task, POLICIES[0], errors)
    stepped = run_trip_stepped(realized, default_route, task, POLICIES[0], errors)
    aggregate = run_scenario(ScenarioSpec("records", route_4ap, task, POLICIES, runs=3))
    return {
        EnergyBreakdown: outcome.energy,
        RunOutcome: outcome,
        StepOutcome: stepped,
        AgreementReport: compare_runs(outcome, stepped, task.size_mb, realized.total_time),
        MetricSummary: aggregate.summaries[POLICIES[0]]["energy_j"],
        AggregateResult: aggregate,
    }


def test_results_are_namedtuples_and_inputs_frozen_dataclasses():
    for cls in RESULTS:
        assert not dataclasses.is_dataclass(cls), cls
        assert issubclass(cls, tuple) and cls._fields, cls
    for cls in INPUTS:
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_a_result_is_immutable(records, cls):
    record = records[cls]
    assert type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_a_result_round_trips_through_pickle(records, cls):
    record = records[cls]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


def test_run_policies_rows_are_run_trips_records(default_route):
    """Each policy's row of one pass has the type and fields of a trip's
    outcome, its energy those of a trip's energy."""
    errors = ErrorSpec(0.10, 0.20)
    task = make_task(60.0)
    batch = realize_batch(default_route, errors, 5, 3)
    rows = run_policies(batch, task, POLICIES, errors)
    realized = realize_route(default_route, errors)
    for policy in POLICIES:
        trip = run_trip(realized, default_route, task, policy, errors)
        row = rows[policy]
        assert type(row) is type(trip) is RunOutcome
        assert row._fields == trip._fields
        assert type(row.energy) is type(trip.energy) is EnergyBreakdown
        assert row.energy._fields == trip.energy._fields
        assert all(value.shape == (3,) for value in (*row[:4], *row.energy, *row[5:]))
