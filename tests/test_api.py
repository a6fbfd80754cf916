"""The public surface: ``unzipseq.__all__``, ``unzipseq.inference.__all__`` and
``unzipseq.protocols.__all__`` are pinned, so a removed wrapper cannot come back
(nor a public name vanish) unnoticed."""

import importlib

import pytest

import unzipseq
from unzipseq import inference, protocols

PUBLIC = {
    "AggregateStats", "BASES", "Base", "BaseSequence", "DecodeResult", "EdgePotentials",
    "EnergyEnvironment", "EnergyEstimate", "EnergyTable", "Environment", "ErrorReport",
    "ForceField", "LevelLadder", "MarginSet", "ModelParams", "Prior",
    "ProtocolPlan", "RateFit", "RateReport", "SeedSpec", "SitePosterior", "StepCapExceeded",
    "WalkStats", "accumulate_checkpoints", "build_edge_potentials", "build_protocol",
    "check_injectivity", "count_moments", "decision_margins", "decode_map",
    "empirical_rate_from_logs", "environment_from_json", "error_report", "estimate_energy",
    "expected_unzip_time", "gap_value", "h_margins", "hop_probability", "lc_bound",
    "log_partition", "obstacle_height", "pbar", "rate_report", "rate_residuals",
    "rc_energy", "rc_site", "run_protocol", "sequence_from_energies",
    "simulate_continuous_walk", "simulate_discrete_walk", "simulate_ensemble",
    "site_posterior", "transition_rates", "verify_conservation",
    "window_schedule",
}
INFERENCE = {
    "Prior", "SitePosterior", "EdgePotentials", "DecodeResult", "ErrorReport", "RateFit",
    "site_posterior", "build_edge_potentials", "decode_map", "log_partition",
    "sequence_log_posterior", "log_block_probs", "error_report", "empirical_rate_from_logs",
    "rate_residuals",
}
PROTOCOLS = {
    "LevelLadder", "window_schedule", "ProtocolPlan", "PlanLevel", "build_protocol",
    "ProtocolAbort", "run_protocol", "EnergyEstimate", "estimate_energy", "HMargins",
    "h_margins", "rc_energy", "ReconstructionResult", "sequence_from_energies",
}


def test_package_all_is_pinned():
    assert len(unzipseq.__all__) == len(set(unzipseq.__all__))
    assert set(unzipseq.__all__) == PUBLIC
    for name in unzipseq.__all__:
        assert hasattr(unzipseq, name), name


def test_inference_all_is_pinned():
    assert len(inference.__all__) == len(set(inference.__all__))
    assert set(inference.__all__) == INFERENCE


def test_protocols_all_is_pinned():
    assert len(protocols.__all__) == len(set(protocols.__all__))
    assert set(protocols.__all__) == PROTOCOLS


@pytest.mark.parametrize("module", ["energy", "walker", "inference", "rates", "protocols", "cli"])
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"unzipseq.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
