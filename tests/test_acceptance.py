"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Seeds are fixed; every statistical check below was verified to hold
with wide margin for these seeds, and the analytic expectations come from
the independent reference implementations in ``bruteforce``.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from unzipseq.cli import main as cli_main
from unzipseq.energy import BASES, Base, BaseSequence, EnergyTable, ModelParams
from unzipseq.inference import (
    build_edge_potentials,
    decode_map,
    empirical_rate_from_logs,
    log_block_probs,
    log_partition,
    sequence_log_posterior,
    site_posterior,
)
from unzipseq.protocols import (
    LevelLadder,
    build_protocol,
    estimate_energy,
    rc_energy,
    run_protocol,
    sequence_from_energies,
)
from unzipseq.rates import decision_margins, rc_site
from unzipseq.walker import (
    SeedSpec,
    accumulate_checkpoints,
    simulate_ensemble,
    simulate_walk,
    verify_conservation,
)

from bruteforce import brute_pair_pmf, oracle_summary, path_cost
from conftest import make_env, random_sequence

# Fixed experiment environment for criteria 2-4: M = 10 molecule with the
# standard table, beta = 1, constant stretch work interior to the energies.
SEQ10 = "ACAATTGGGG"
G1 = 2.3
SIM_SEED = 99


def _report(n: int, label: str, t0: float) -> None:
    print(f"\n[ACCEPTANCE] criterion {n} ({label}): PASS in {time.time() - t0:.1f}s")


@pytest.fixture(scope="module")
def env10():
    return make_env(SEQ10, G1)


@pytest.fixture(scope="module")
def grid_curves(env10):
    """Cumulative stats on the R-grid for both modes (criteria 3 and 4)."""
    t0 = time.time()
    grid = list(range(2000, 20001, 2000))
    out = {}
    for mode in ("discrete", "continuous"):
        out[mode] = accumulate_checkpoints(env10, mode, SeedSpec(SIM_SEED), grid)
    return grid, out, time.time() - t0


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for mode, m_cap, count in (("discrete", 8, 50), ("continuous", 6, 50)):
        for _ in range(count):
            M = int(rng.integers(3, m_cap + 1))
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            R = int(rng.choice([1, 10]))
            env = make_env(random_sequence(rng, M), float(rng.uniform(1.8, 2.9)), beta=beta)
            stats = simulate_ensemble(env, R, mode, SeedSpec(int(rng.integers(1 << 30))))
            phi = build_edge_potentials(stats, env)
            b1 = env.seq.base(1)
            oracle = oracle_summary(stats, env, mode, b1, h_max=3)
            dec = decode_map(phi, b1)
            assert tuple(dec.map_sequence.bases) == oracle["map"]
            assert log_partition(phi, b1) == pytest.approx(oracle["log_z"], rel=1e-10)
            assert math.exp(log_block_probs(phi, b1, dec.map_sequence, 1)[0]) == pytest.approx(
                oracle["p_any"], rel=1e-10, abs=1e-13
            )
            for h in (1, 2, 3):
                assert math.exp(log_block_probs(phi, b1, dec.map_sequence, h)[-1]) == pytest.approx(
                    oracle["p_blocks"][h], rel=1e-10, abs=1e-13
                )
            for idx in rng.integers(0, len(oracle["seqs"]), size=3):
                alpha = BaseSequence(tuple(Base(int(v)) for v in oracle["seqs"][idx]))
                assert math.exp(sequence_log_posterior(alpha, phi, b1)) == pytest.approx(
                    float(oracle["weights"][idx]), rel=1e-10, abs=1e-13
                )
            checked += 1
    assert checked == 100
    assert time.time() - t0 < 60
    _report(1, "oracle equivalence, 100 instances", t0)


def test_criterion_2_count_law_verification(env10):
    t0 = time.time()
    R = 100_000
    M = env10.M
    from unzipseq.rates import count_moments

    sums = np.zeros(M)
    sq = np.zeros(M)
    fourth = np.zeros(M)
    joint: list[dict[tuple[int, int], int]] = [dict() for _ in range(M)]
    means = [0.0] * M
    for x in range(1, M):
        means[x] = count_moments(env10, x).e_up
    for rep in range(R):
        w = simulate_walk(env10, "discrete", SeedSpec(SIM_SEED), rep)
        up = w.up
        down = w.down
        for x in range(1, M):
            v = float(up[x])
            sums[x] += v
            d = v - means[x]
            sq[x] += d * d
            fourth[x] += d**4
            if x >= 2:
                key = (int(up[x]), int(down[x]))
                joint[x][key] = joint[x].get(key, 0) + 1
    # means and variances within 4 standard errors at every site
    for x in range(1, M):
        m = count_moments(env10, x)
        emp_mean = sums[x] / R
        se_mean = math.sqrt(m.var_up / R)
        if se_mean > 0:
            assert abs(emp_mean - m.e_up) < 4 * se_mean, (x, emp_mean, m.e_up)
        emp_var = sq[x] / R  # second moment about the analytic mean
        m4 = fourth[x] / R
        se_var = math.sqrt(max(m4 - emp_var**2, 0.0) / R)
        if se_var > 0:
            assert abs(emp_var - m.var_up) < 4 * se_var, (x, emp_var, m.var_up)
    # joint (L+, L-) chi-squared against the closed form at the 1e-3 level
    for x in range(2, M):
        cells = {}
        for a in range(1, 200):
            row_mass = 0.0
            for c in range(0, 400):
                p = brute_pair_pmf(env10, x, a, c)
                row_mass += p
                if R * p >= 20:
                    cells[(a, c)] = p
            if row_mass < 1e-9 and a > 5:
                break
        assert len(cells) >= 5, f"site {x}: too few testable cells"
        stat = 0.0
        tail_obs = sum(v for k, v in joint[x].items() if k not in cells)
        tail_p = 1.0 - sum(cells.values())
        for key, p in cells.items():
            obs = joint[x].get(key, 0)
            stat += (obs - R * p) ** 2 / (R * p)
        if tail_p > 0:
            stat += (tail_obs - R * tail_p) ** 2 / (R * tail_p)
        dof = len(cells)  # cells + pooled tail - 1
        p_value = float(chi2.sf(stat, dof))
        assert p_value >= 1e-3, (x, stat, dof, p_value)
    assert time.time() - t0 < 60
    _report(2, "analytic count moments and joint pmf at R=1e5", t0)


def test_criterion_3_rate_function(env10, grid_curves):
    t0 = time.time()
    grid, curves, sim_seconds = grid_curves
    # x = 2 exercises the boundary convention: edge 1 informs the continuous
    # rate but not the discrete one
    for mode in ("discrete", "continuous"):
        for x in (2, 3, 5, 7):
            pts = []
            for R, agg in zip(grid, curves[mode]):
                sp = site_posterior(agg, env10, x)
                pts.append((R, sp.log_p_error))
            fit = empirical_rate_from_logs(pts)
            rc = rc_site(env10, x, mode)
            assert abs(fit.slope - rc) <= 0.15 * rc, (mode, x, fit.slope, rc)
    assert (time.time() - t0) + sim_seconds < 300
    _report(3, "site error slope within 15% of 1/R_c, both modes", t0 - sim_seconds)


def test_criterion_4_any_error_bound(env10, grid_curves):
    t0 = time.time()
    grid, curves, _ = grid_curves
    b1 = env10.seq.base(1)
    pts = []
    for R, agg in zip(grid, curves["continuous"]):
        phi = build_edge_potentials(agg, env10)
        pts.append((R, log_block_probs(phi, b1, decode_map(phi, b1).map_sequence, 1)[0]))
    fit = empirical_rate_from_logs(pts)
    delta_f_minus = decision_margins(env10.table, env10.beta, mode="continuous").minus
    stderr = fit.slope_stderr if math.isfinite(fit.slope_stderr) else 0.0
    assert fit.slope >= delta_f_minus - 2 * stderr, (fit.slope, delta_f_minus)
    _report(4, "global error slope >= Delta F-", t0)


def test_criterion_5_flow_invariants_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(7777)
    total = 0
    n_envs = 250
    walks_per_env = 4000
    for e in range(n_envs):
        M = int(rng.integers(2, 8))
        mode = "continuous" if e % 5 == 0 else "discrete"
        g1 = float(rng.uniform(1.2, 1.9)) if M <= 4 and e % 3 == 0 else float(
            rng.uniform(1.9, 3.3)
        )
        env = make_env(random_sequence(rng, M), g1)
        seed = SeedSpec(int(rng.integers(1 << 40)))
        for rep in range(walks_per_env):
            w = simulate_walk(env, mode, seed, rep)
            ok = w.up[M - 1] == 1 and w.steps == int(np.sum(w.up)) + int(np.sum(w.down))
            for x in range(2, M):
                if w.down[x] != w.up[x - 1] - 1:
                    ok = False
            if not ok:
                assert verify_conservation(w) == []  # names the broken identity
            total += 1
    assert total == 1_000_000
    _report(5, "flow identities exact over 1e6 fuzzed walks", t0)


def test_criterion_6_degeneracy_handling():
    t0 = time.time()
    # all-C molecule vs the all-G twin
    env = make_env("CCCCCCCC", 2.5)
    stats = simulate_ensemble(env, 500, "continuous", SeedSpec(606))
    phi = build_edge_potentials(stats, env)
    cost_c = path_cost(phi, BaseSequence.from_string("C" * 8))
    cost_g = path_cost(phi, BaseSequence.from_string("G" * 8))
    assert cost_c == cost_g  # exact tie, bit for bit
    free = decode_map(phi, None)
    assert {"CCCCCCCC", "GGGGGGGG"} <= {str(s) for s in free.ties}
    conditioned = decode_map(phi, Base.C)
    assert str(conditioned.map_sequence) == "C" * 8 and not conditioned.tie

    # the AC alternation and its GT twin
    env2 = make_env("ACACACAC", 2.4)
    stats2 = simulate_ensemble(env2, 500, "continuous", SeedSpec(607))
    phi2 = build_edge_potentials(stats2, env2)
    cost_ac = path_cost(phi2, BaseSequence.from_string("ACACACAC"))
    cost_gt = path_cost(phi2, BaseSequence.from_string("GTGTGTGT"))
    assert cost_ac == cost_gt
    free2 = decode_map(phi2, None)
    assert {"ACACACAC", "GTGTGTGT"} <= {str(s) for s in free2.ties}
    cond2 = decode_map(phi2, Base.A)
    assert str(cond2.map_sequence) == "ACACACAC" and not cond2.tie

    # discrete-mode twin costs also tie exactly
    stats_d = simulate_ensemble(env, 500, "discrete", SeedSpec(608))
    phi_d = build_edge_potentials(stats_d, env)
    assert path_cost(phi_d, BaseSequence.from_string("C" * 8)) == path_cost(
        phi_d, BaseSequence.from_string("G" * 8)
    )

    # same story at the energy level
    table = EnergyTable.default()
    res = sequence_from_energies([3.14] * 7, table, None)
    assert {str(s) for s in res.sequences} == {"C" * 8, "G" * 8}
    fixed = sequence_from_energies([3.14] * 7, table, Base.C)
    assert [str(s) for s in fixed.sequences] == ["C" * 8]
    _report(6, "degenerate twins tie exactly; b1 resolves them", t0)


def test_criterion_7_protocol_end_to_end():
    t0 = time.time()
    ladder = LevelLadder.from_table(EnergyTable.default())
    energies = (1.78, 1.55, 1.78, 1.78, 1.55, 1.78, 1.55, 1.55, 1.78)
    M = len(energies) + 1
    params = ModelParams(beta=1.0)
    plan = build_protocol("uniform-pair", ladder, M, replicas=2000, max_level=10)
    for seed in range(101, 121):
        stats = run_protocol(energies, params, plan, SeedSpec(seed), "discrete")
        for x in range(2, M):
            est = estimate_energy(stats, x, ladder)
            assert not est.undecided, (seed, x)
            assert est.value == pytest.approx(energies[x - 1]), (seed, x, est.value)
    # analytic bounds: positive everywhere, absorbing bound blind to the tail
    x = 5
    for k in range(1, ladder.K + 1):
        assert rc_energy(energies, x, ladder, 1.0, "uniform-pair", k=k) > 0.0
    assert rc_energy(energies, x, ladder, 1.0, "focus-at-x") > 0.0
    absorbing = rc_energy(energies, x, ladder, 1.0, "absorbing-tail")
    assert absorbing > 0.0
    perturbed = list(energies)
    for z in range(x, M - 1):
        perturbed[z] = 3.85
    assert rc_energy(perturbed, x, ladder, 1.0, "absorbing-tail") == absorbing
    _report(7, "ladder protocol recovers g0 at every site, 20 seeds", t0)


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.time()
    env_doc = {"sequence": "ATCGG", "beta": 1.0, "r": 1.0, "g1": 2.2}
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(env_doc))
    proto_cfg = tmp_path / "proto.json"
    proto_cfg.write_text(
        json.dumps({"energies": [3.14, 1.78, 3.14], "max_level": 3, "R_per_level": 200})
    )
    commands = {
        "simulate": ["simulate", "--env", env_path, "--R", 30, "--seed", 5,
                     "--mode", "continuous", "--format", "csv", "--trace"],
        "infer": ["infer", "--env", env_path, "--R", 30, "--seed", 5,
                  "--mode", "continuous", "--oracle"],
        "rates": ["rates", "--env", env_path],
        "protocol": ["protocol", "--config", proto_cfg, "--seed", 5],
    }
    for name, args in commands.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (out_a, out_b):
            rc = cli_main([str(a) for a in args] + ["--out", str(out)])
            assert rc == 0, name
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), (
                name,
                fname,
            )
    _report(8, "byte-identical reruns for all four commands", t0)


def test_invariant_decode_convergence_50_seeds():
    """Inference-module invariant: zero wrong bases at R=5000, M=20, 50 seeds."""
    t0 = time.time()
    rng = np.random.default_rng(2030)
    letters = random_sequence(rng, 20)
    env = make_env(letters, 2.3)
    wrong = 0
    for seed in range(50):
        stats = simulate_ensemble(env, 5000, "discrete", SeedSpec(5000 + seed))
        phi = build_edge_potentials(stats, env)
        dec = decode_map(phi, env.seq.base(1))
        wrong += sum(
            1 for a, b in zip(str(dec.map_sequence), letters) if a != b
        )
    assert wrong == 0
    print(f"\n[ACCEPTANCE] invariant (decode convergence, 50 seeds): PASS in {time.time() - t0:.1f}s")
