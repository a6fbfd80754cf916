"""The public surface: ``unzipseq.__all__`` is pinned, so a removed wrapper
cannot come back (nor a public name vanish) unnoticed."""

import importlib

import pytest

import unzipseq

PUBLIC = {
    "AggregateStats", "BASES", "Base", "BaseSequence", "DecodeResult", "EdgePotentials",
    "EnergyEnvironment", "EnergyEstimate", "EnergyTable", "Environment", "ErrorReport",
    "ForceField", "LevelLadder", "LevelStats", "MarginSet", "ModelParams", "Prior",
    "ProtocolPlan", "RateFit", "RateReport", "SeedSpec", "SitePosterior", "StepCapExceeded",
    "WalkStats", "accumulate_checkpoints", "build_edge_potentials", "build_protocol",
    "check_injectivity", "count_moments", "decision_margins", "decode_map", "empirical_rate",
    "empirical_rate_from_logs", "environment_from_json", "error_report", "estimate_energy",
    "expected_unzip_time", "gap_value", "h_margins", "hop_probability", "lc_bound",
    "log_partition", "obstacle_height", "pbar", "q_prob", "rate_report", "rate_residuals",
    "rc_energy", "rc_site", "run_protocol", "sequence_from_energies",
    "simulate_continuous_walk", "simulate_discrete_walk", "simulate_ensemble",
    "site_posterior", "transition_rates", "validate_ladder", "verify_conservation",
    "window_schedule",
}


def test_package_all_is_pinned():
    assert len(unzipseq.__all__) == len(set(unzipseq.__all__))
    assert set(unzipseq.__all__) == PUBLIC
    for name in unzipseq.__all__:
        assert hasattr(unzipseq, name), name


@pytest.mark.parametrize("module", ["energy", "walker", "inference", "rates", "protocols", "cli"])
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"unzipseq.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
