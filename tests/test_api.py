"""The public surface: ``unzipseq.__all__`` and the ``__all__`` of every library
module are pinned, so a removed wrapper cannot come back (nor a public name
vanish) unnoticed."""

import importlib

import pytest

import unzipseq
from unzipseq import energy, inference, protocols, rates, walker

PUBLIC = {
    "AggregateStats", "BASES", "Base", "BaseSequence", "DecodeResult", "EnergyEnvironment",
    "EnergyEstimate", "EnergyTable", "Environment", "ErrorReport", "ForceField", "LevelLadder",
    "MarginSet", "ModelParams", "Prior", "ProtocolPlan", "RateFit", "RateReport", "SeedSpec",
    "SitePosterior", "StepCapExceeded", "accumulate_checkpoints", "build_edge_potentials",
    "build_protocol", "count_moments", "decision_margins", "decode_map", "empirical_rate_from_logs",
    "environment_from_json", "error_report", "estimate_energy", "expected_unzip_time",
    "gap_value", "h_margins", "hop_probability", "lc_bound", "log_partition",
    "obstacle_height", "pbar", "rate_report", "rc_energy", "rc_site", "run_protocol",
    "sequence_from_energies", "simulate_ensemble", "simulate_walk", "site_posterior",
    "verify_conservation", "window_schedule",
}
INFERENCE = {
    "Prior", "SitePosterior", "DecodeResult", "ErrorReport", "RateFit",
    "site_posterior", "build_edge_potentials", "decode_map", "log_partition",
    "sequence_log_posterior", "log_block_probs", "error_report", "empirical_rate_from_logs",
}
ENERGY = {
    "Base", "BASES", "BaseSequence", "EnergyTable", "ForceField", "ModelParams", "Environment",
    "EnergyEnvironment", "DEFAULT_G0", "hop_probability", "environment_from_json",
}
RATES = {
    "pbar", "log_inv_pbar", "SiteMoments", "count_moments", "joint_up_count_log_pmf",
    "pair_count_log_pmf", "gap_value", "MarginSet", "decision_margins", "rc_site", "lc_bound",
    "obstacle_height", "UnzipTime", "expected_unzip_time", "RateReport", "rate_report",
}
WALKER = {
    "SeedSpec", "AggregateStats", "StepCapExceeded", "DEFAULT_STEP_CAP",
    "simulate_walk", "simulate_ensemble", "accumulate_checkpoints", "verify_conservation",
    "zero_stats",
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


@pytest.mark.parametrize("module,names", [(energy, ENERGY), (rates, RATES), (walker, WALKER)],
                         ids=["energy", "rates", "walker"])
def test_module_all_is_pinned(module, names):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == names


@pytest.mark.parametrize("module", ["energy", "walker", "inference", "rates", "protocols", "cli"])
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"unzipseq.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
