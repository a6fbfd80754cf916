"""Mechanical DNA unzipping as a killed birth-death walk in a random base
environment, with exact Bayesian recovery of the hidden sequence.

Modules: ``energy`` (environment and transition law), ``walker`` (replica
simulation and sufficient statistics), ``inference`` (site posteriors, global
MAP decoding, error probabilities), ``rates`` (analytic moments and decay
rates), ``protocols`` (force ladders and the energy estimator), ``cli``
(batch front-end).
"""

from .energy import (
    BASES,
    Base,
    BaseSequence,
    EnergyEnvironment,
    EnergyTable,
    Environment,
    ForceField,
    ModelParams,
    environment_from_json,
    hop_probability,
)
from .inference import (
    DecodeResult,
    ErrorReport,
    Prior,
    RateFit,
    SitePosterior,
    build_edge_potentials,
    decode_map,
    empirical_rate_from_logs,
    error_report,
    log_partition,
    site_posterior,
)
from .protocols import (
    EnergyEstimate,
    LevelLadder,
    ProtocolPlan,
    build_protocol,
    estimate_energy,
    h_margins,
    rc_energy,
    run_protocol,
    sequence_from_energies,
    window_schedule,
)
from .rates import (
    MarginSet,
    RateReport,
    count_moments,
    decision_margins,
    expected_unzip_time,
    gap_value,
    lc_bound,
    obstacle_height,
    pbar,
    rate_report,
    rc_site,
)
from .walker import (
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    accumulate_checkpoints,
    simulate_ensemble,
    simulate_walk,
    verify_conservation,
)

__all__ = [
    "AggregateStats",
    "BASES",
    "Base",
    "BaseSequence",
    "DecodeResult",
    "EnergyEnvironment",
    "EnergyEstimate",
    "EnergyTable",
    "Environment",
    "ErrorReport",
    "ForceField",
    "LevelLadder",
    "MarginSet",
    "ModelParams",
    "Prior",
    "ProtocolPlan",
    "RateFit",
    "RateReport",
    "SeedSpec",
    "SitePosterior",
    "StepCapExceeded",
    "accumulate_checkpoints",
    "build_edge_potentials",
    "build_protocol",
    "count_moments",
    "decision_margins",
    "decode_map",
    "empirical_rate_from_logs",
    "environment_from_json",
    "error_report",
    "estimate_energy",
    "expected_unzip_time",
    "gap_value",
    "h_margins",
    "hop_probability",
    "lc_bound",
    "log_partition",
    "obstacle_height",
    "pbar",
    "rate_report",
    "rc_energy",
    "rc_site",
    "run_protocol",
    "sequence_from_energies",
    "simulate_ensemble",
    "simulate_walk",
    "site_posterior",
    "verify_conservation",
    "window_schedule",
]

__version__ = "0.1.0"
