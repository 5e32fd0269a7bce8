"""Vehicular mobile-data offloading to WiFi hotspots: simulator and planners.

A trip is a pre-segmented connectivity timeline; policies decide how hard to
drive the mobile channel and what to prefetch into upcoming hotspot caches;
the engine integrates the realized transfer and accounts bytes, delay, and
energy; the metrics layer runs paired Monte-Carlo comparisons.
"""

from .engine import EnergyBreakdown, RunOutcome, run_policies, run_trip
from .metrics import (
    AggregateResult,
    InsufficientSamples,
    MetricSummary,
    ScenarioSpec,
    SweepSpec,
    ci_halfwidth,
    derive_run_seed,
    relative_gain,
    render_csv,
    run_scenario,
    run_sweep,
    scenario_outcomes,
)
from .model import (
    AccessKind,
    EnergyModel,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
    scale_route,
)
from .oracle import AgreementReport, StepOutcome, compare_runs, run_trip_stepped
from .policies import (
    Channel,
    Policy,
    PolicyClassMismatch,
    plan_entry,
    plan_exit,
)
from .prediction import (
    ErrorSpec,
    PredictionProfile,
    RealizedBatch,
    build_prediction,
    realize_batch,
    realize_route,
)

__version__ = "0.1.0"

__all__ = [
    "AccessKind",
    "AgreementReport",
    "AggregateResult",
    "Channel",
    "EnergyBreakdown",
    "EnergyModel",
    "ErrorSpec",
    "InsufficientSamples",
    "MetricSummary",
    "Policy",
    "PolicyClassMismatch",
    "PredictionProfile",
    "RealizedBatch",
    "RouteProfile",
    "RouteSegment",
    "RunOutcome",
    "ScenarioSpec",
    "StepOutcome",
    "SweepSpec",
    "TrafficClass",
    "TransferTask",
    "build_prediction",
    "ci_halfwidth",
    "compare_runs",
    "derive_run_seed",
    "plan_entry",
    "plan_exit",
    "realize_batch",
    "realize_route",
    "relative_gain",
    "render_csv",
    "run_policies",
    "run_scenario",
    "run_sweep",
    "run_trip",
    "run_trip_stepped",
    "scale_route",
    "scenario_outcomes",
]
