"""Deterministic discrete-time simulator for distributed multi-robot patrolling.

Robots gossip timestamped idleness estimates over range-limited links, hand
off a report-priority scalar that biases target selection toward the base
station, and pick patrol targets by a utility that trades off staleness,
travel time, and reporting urgency. The package ships the full metric suite
(graph/worst idleness, base-station awareness delays), failure and bandwidth
experiments, batch tooling, and an event-log replay verifier.
"""

from .errors import (
    ConfigurationError,
    MetricsError,
    PatrolSimError,
    VerificationError,
)
from .scenario import (
    ScenarioConfig,
    Simulation,
    TrialResult,
    parameter_sweep,
    parse_config,
    run_batch,
    run_trial,
)

__all__ = [
    "ConfigurationError",
    "MetricsError",
    "PatrolSimError",
    "VerificationError",
    "ScenarioConfig",
    "Simulation",
    "TrialResult",
    "parameter_sweep",
    "parse_config",
    "run_batch",
    "run_trial",
]

__version__ = "0.1.0"
