"""Tests of the benchmark's own parts: the exact-law sampler, the independent
model arithmetic and the tracer.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lawstats import (  # noqa: E402
    edge_g0,
    exit_rates,
    law_stats_doc,
    log_inv_pbar,
    random_sequence,
    sample_counts,
    up_probabilities,
)
from unzipseq import energy, rates, walker  # noqa: E402
from unzipseq.walker import AggregateStats, SeedSpec, simulate_ensemble, verify_conservation  # noqa: E402

G1, BETA, R_SCALE = 3.0, 1.0, 1.0


def _env(seq: str, g1: float = G1):
    return energy.environment_from_json({"sequence": seq, "beta": BETA, "r": R_SCALE, "g1": g1})


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("R", [1, 1000, 10**7])
def test_law_stats_satisfy_flow_identities(mode, R):
    rng = np.random.default_rng(11)
    seq = random_sequence(rng, 200)
    agg = AggregateStats.from_json_dict(law_stats_doc(seq, R, mode, rng, g1=G1, beta=BETA, r=R_SCALE))
    assert verify_conservation(agg) == []
    assert (agg.sojourn is not None) == (mode == "continuous")


def test_model_arithmetic_matches_package():
    rng = np.random.default_rng(3)
    seq = random_sequence(rng, 300)
    env = _env(seq)
    g0 = edge_g0(seq)
    np.testing.assert_array_equal(g0, env.edge_g0)
    np.testing.assert_allclose(up_probabilities(g0, G1, BETA)[1:], env.up_probabilities[1:],
                               rtol=1e-12)
    lip = log_inv_pbar(g0, G1, BETA)
    ref = np.array([rates.log_inv_pbar(env, x) for x in range(1, env.M)])
    np.testing.assert_allclose(lip[1:], ref, rtol=1e-12, atol=1e-12)


def test_law_sampler_matches_walker():
    """Two-sample check of per-site L+ (and S) means: exact-law ensembles
    against walker ensembles at M = 30, R = 2000, against the exact variance."""
    rng = np.random.default_rng(2024)
    seq = random_sequence(rng, 30)
    env = _env(seq)
    R, K = 2000, 4
    g0 = edge_g0(seq)
    p = up_probabilities(g0, G1, BETA)
    rate = exit_rates(g0, G1, BETA, R_SCALE)
    ip = np.exp(log_inv_pbar(g0, G1, BETA))
    var_up = ip * (ip - 1.0)
    law_up = np.zeros(env.M)
    law_s = np.zeros(env.M)
    walk_up = np.zeros(env.M)
    walk_s = np.zeros(env.M)
    for k in range(K):
        up, _, soj = sample_counts(p, rate, R, rng)
        law_up += up
        law_s += soj
        agg = simulate_ensemble(env, R, "continuous", SeedSpec(77, (k,)))
        walk_up += agg.up
        walk_s += agg.sojourn
    n = K * R
    sites = np.flatnonzero(var_up[1:] > 0) + 1
    z_up = (law_up[sites] - walk_up[sites]) / np.sqrt(2 * n * var_up[sites])
    assert np.max(np.abs(z_up)) < 5.0, z_up
    # per-walk S_x is exponential with mean e^{beta g0} / (r pbar), so Var = mean^2
    mean_s = ip * np.exp(BETA * g0) / R_SCALE
    z_s = (law_s[1:] - walk_s[1:]) / np.sqrt(2 * n * mean_s[1:] ** 2)
    assert np.max(np.abs(z_s)) < 5.0, z_s
    z_law = (law_up[sites] - n * ip[sites]) / np.sqrt(n * var_up[sites])
    assert np.max(np.abs(z_law)) < 5.0, z_law


TRACED_SMALL = (
    ("cli", "main"),
    ("energy", "environment_from_json"),
    ("walker", "simulate_ensemble"),
    ("walker", "no_such_function"),
)


def test_tracer_counts_and_restores(tmp_path):
    import unzipseq.cli as cli
    from tracer import Tracer

    original = walker.simulate_ensemble
    tracer = Tracer(TRACED_SMALL)
    env = tmp_path / "env.json"
    env.write_text('{"sequence": "ACGTTGCA", "beta": 1.0, "r": 1.0, "g1": 3.0}')
    tracer.install()
    try:
        assert cli.main(["simulate", "--env", str(env), "--R", "5", "--seed", "1",
                         "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert walker.simulate_ensemble is original
    assert cli.simulate_ensemble is original
    assert tracer.calls_of("walker.simulate_ensemble") == 1
    assert tracer.calls_of("cli.main") == 1
    assert tracer.replicas == 5 and tracer.steps > 0
    assert tracer.absent == ["walker.no_such_function"]
    tracer.save(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert list(spans["parent"]) == [-1, 0, 0]  # main, then its two children
    dur = spans["end"] - spans["start"]
    assert np.all(dur >= 0)
    assert tracer.self_of("cli.main") == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-9)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_output_checks_accept_correct_outputs_and_catch_a_wrong_cost(mode, tmp_path):
    import json

    import unzipseq.cli as cli
    from workloads import _env_doc, check_infer, check_rates

    rng = np.random.default_rng(5)
    seq = random_sequence(rng, 8)
    stats = law_stats_doc(seq, 1000, mode, rng, g1=G1, beta=BETA, r=R_SCALE)
    env = tmp_path / "env.json"
    env.write_text(json.dumps(_env_doc(seq)))
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps(stats))
    out = tmp_path / "out"
    assert cli.main(["infer", "--env", str(env), "--stats", str(stats_path), "--mode", mode,
                     "--out", str(out)]) == 0
    assert cli.main(["rates", "--env", str(env), "--out", str(out)]) == 0
    assert check_infer(out, seq, stats, mode) == []
    assert check_rates(out, seq) == []
    doc = json.loads((out / "decode.json").read_text())
    doc["cost"] *= 1.0 + 1e-6
    (out / "decode.json").write_text(json.dumps(doc))
    assert any("I(MAP)" in p for p in check_infer(out, seq, stats, mode))
