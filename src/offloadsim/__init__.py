"""Vehicular mobile-data offloading to WiFi hotspots: simulator and planners.

A trip is a pre-segmented connectivity timeline; policies decide how hard to
drive the mobile channel and what to prefetch into upcoming hotspot caches;
the engine integrates the realized transfer and accounts bytes, delay, and
energy; the metrics layer runs paired Monte-Carlo comparisons.
"""

from .engine import (
    EnergyBreakdown,
    RunOutcome,
    TransferState,
    WifiVisit,
    account_energy,
    integrate_transfer,
    run_trip,
)
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
    write_csv,
)
from .model import (
    AccessKind,
    EnergyModel,
    RouteProfile,
    RouteSegment,
    SnrBand,
    TrafficClass,
    TransferTask,
    mb_to_mbit,
    mbit_to_mb,
    scale_route,
    snr_to_throughput,
)
from .oracle import AgreementReport, StepOutcome, compare_runs, run_trip_stepped
from .policies import (
    CachePlan,
    Channel,
    EntryAction,
    Policy,
    PolicyClassMismatch,
    TransferPlan,
    plan_entry,
    plan_exit,
    plan_exit_delay_sensitive,
    plan_exit_delay_tolerant,
)
from .prediction import (
    ErrorSpec,
    HotspotForecast,
    PredictionProfile,
    build_prediction,
    realize_route,
)

__version__ = "0.1.0"

__all__ = [
    "AccessKind",
    "AgreementReport",
    "AggregateResult",
    "CachePlan",
    "Channel",
    "EnergyBreakdown",
    "EnergyModel",
    "EntryAction",
    "ErrorSpec",
    "HotspotForecast",
    "InsufficientSamples",
    "MetricSummary",
    "Policy",
    "PolicyClassMismatch",
    "PredictionProfile",
    "RouteProfile",
    "RouteSegment",
    "RunOutcome",
    "ScenarioSpec",
    "SnrBand",
    "StepOutcome",
    "SweepSpec",
    "TrafficClass",
    "TransferPlan",
    "TransferState",
    "TransferTask",
    "WifiVisit",
    "account_energy",
    "build_prediction",
    "ci_halfwidth",
    "compare_runs",
    "derive_run_seed",
    "integrate_transfer",
    "mb_to_mbit",
    "mbit_to_mb",
    "plan_entry",
    "plan_exit",
    "plan_exit_delay_sensitive",
    "plan_exit_delay_tolerant",
    "realize_route",
    "relative_gain",
    "render_csv",
    "run_scenario",
    "run_sweep",
    "run_trip",
    "run_trip_stepped",
    "scale_route",
    "snr_to_throughput",
    "write_csv",
]
