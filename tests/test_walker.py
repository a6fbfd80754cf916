import math

import numpy as np
import pytest

from unzipseq.rates import count_moments, pbar
from unzipseq.walker import (
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    accumulate_checkpoints,
    simulate_continuous_walk,
    simulate_discrete_walk,
    simulate_ensemble,
    verify_conservation,
    zero_stats,
)

from bruteforce import brute_pair_pmf, brute_pbar
from conftest import make_env, random_sequence


def test_m2_single_forced_step():
    env = make_env("AT", 0.4)
    for seed in (0, 1, 99):
        w = simulate_discrete_walk(env, SeedSpec(seed), 0)
        assert w.up[1] == 1 and w.steps == 1
        assert verify_conservation(w) == []


def test_flow_identities_random_walks():
    rng = np.random.default_rng(7)
    for _ in range(60):
        M = int(rng.integers(2, 8))
        env = make_env(random_sequence(rng, M), float(rng.uniform(1.8, 3.2)))
        mode_cont = bool(rng.integers(0, 2))
        fn = simulate_continuous_walk if mode_cont else simulate_discrete_walk
        w = fn(env, SeedSpec(int(rng.integers(1 << 30))), 0)
        assert verify_conservation(w) == []
        assert w.up[M - 1] == 1
        for x in range(2, M):
            assert w.down[x] == w.up[x - 1] - 1
        assert w.steps == int(np.sum(w.up)) + int(np.sum(w.down))


def test_geometric_up_count_m3():
    # dg = 0 at the last edge: the walk leaves site 1, falls back Geom(1/2)
    # times, so L+_1 = 1 + Geometric and E L+_1 = 1/pbar_1 = 1 + e^0 = 2
    env = make_env("AAA", 1.78)
    assert 1.0 / pbar(env, 1) == pytest.approx(2.0)
    n = 20000
    tot = 0
    for rep in range(n):
        w = simulate_discrete_walk(env, SeedSpec(5), rep)
        assert w.up[2] == 1  # the killing edge is crossed exactly once
        tot += int(w.up[1])
    mean = tot / n
    se = math.sqrt(count_moments(env, 1).var_up / n)
    assert abs(mean - 2.0) < 4 * se


def test_continuous_embedded_chain_matches_discrete():
    env = make_env("ATCGG", 2.1)
    for rep in range(10):
        wd = simulate_discrete_walk(env, SeedSpec(17), rep)
        wc = simulate_continuous_walk(env, SeedSpec(17), rep)
        assert np.array_equal(wd.up, wc.up) and np.array_equal(wd.down, wc.down)
        assert wc.sojourn is not None and wd.sojourn is None
        assert wc.wall_time == pytest.approx(float(np.sum(wc.sojourn)), abs=0.0)


def test_continuous_m2_sojourn_mean():
    # single exponential holding time at site 1 with rate r e^{-beta g0(b1,b2)}
    env = make_env("GC", 0.7, beta=1.0, r=2.0)
    rate = 2.0 * math.exp(-3.90)
    n = 20000
    agg = simulate_ensemble(env, n, "continuous", SeedSpec(23))
    mean = float(agg.sojourn[1]) / n
    se = (1.0 / rate) / math.sqrt(n)  # exponential: sd == mean
    assert abs(mean - 1.0 / rate) < 4 * se


def test_sojourn_mean_matches_closed_form():
    env = make_env("AAAAAA", 1.3, beta=1.0, r=1.5)
    n = 20000
    agg = simulate_ensemble(env, n, "continuous", SeedSpec(31))
    for x in range(1, env.M):
        m = count_moments(env, x)
        se = math.sqrt(m.var_sojourn / n)
        assert abs(float(agg.sojourn[x]) / n - m.e_sojourn) < 4 * se


def test_up_count_mean_flat_landscape():
    # flat landscape: E L+_x = M - x at every site
    env = make_env("A" * 10, 1.78)
    R = 100_000
    agg = simulate_ensemble(env, R, "discrete", SeedSpec(41))
    for x in range(1, 10):
        m = count_moments(env, x)
        assert m.e_up == pytest.approx(10 - x)
        se = math.sqrt(m.var_up / R)
        emp = float(agg.up[x]) / R
        assert abs(emp - m.e_up) <= 4 * se or se == 0.0
    assert agg.up[9] == R


def test_pair_frequencies_match_closed_form():
    # joint (L+_x, L-_x) frequencies vs the exact pmf, 4 SE per cell
    env = make_env("ATCG", 2.2)
    R = 30000
    counts: dict[tuple[int, int], int] = {}
    for rep in range(R):
        w = simulate_discrete_walk(env, SeedSpec(53), rep)
        key = (int(w.up[2]), int(w.down[2]))
        counts[key] = counts.get(key, 0) + 1
    checked = 0
    for (a, c), obs in counts.items():
        p = brute_pair_pmf(env, 2, a, c)
        exp = R * p
        if exp >= 20:
            se = math.sqrt(R * p * (1 - p))
            assert abs(obs - exp) < 4.5 * se, (a, c, obs, exp)
            checked += 1
    assert checked >= 5


def test_ensemble_basics():
    env = make_env("ATCGG", 2.0)
    seed = SeedSpec(11)
    single = simulate_discrete_walk(env, seed, 0)
    ens1 = simulate_ensemble(env, 1, "discrete", seed)
    assert np.array_equal(single.up, ens1.up) and ens1.R == 1
    ens = simulate_ensemble(env, 40, "discrete", seed)
    assert ens.up[env.M - 1] == 40
    assert verify_conservation(ens) == []
    with pytest.raises(ValueError):
        simulate_ensemble(env, 0, "discrete", seed)
    with pytest.raises(ValueError):
        simulate_ensemble(env, 5, "sometimes", seed)


def test_ensemble_determinism_and_nesting():
    env = make_env("ATCGG", 2.0)
    a = simulate_ensemble(env, 30, "continuous", SeedSpec(77))
    b = simulate_ensemble(env, 30, "continuous", SeedSpec(77))
    assert np.array_equal(a.up, b.up) and np.array_equal(a.down, b.down)
    assert np.array_equal(a.sojourn, b.sojourn) and a.wall_time == b.wall_time
    ck = accumulate_checkpoints(env, "continuous", SeedSpec(77), [10, 30])
    assert np.array_equal(ck[1].up, a.up)
    assert np.array_equal(ck[1].sojourn, a.sojourn)
    small = simulate_ensemble(env, 10, "continuous", SeedSpec(77))
    assert np.array_equal(ck[0].up, small.up)


def test_different_seeds_differ():
    env = make_env("ATCGGTACGG", 2.3)
    a = simulate_ensemble(env, 50, "discrete", SeedSpec(1))
    b = simulate_ensemble(env, 50, "discrete", SeedSpec(2))
    assert not np.array_equal(a.up, b.up)


def test_step_cap_abort():
    # zero force on a GC-rich molecule: absorption needs ~e^{beta sum g0} steps
    env = make_env("GCGCGCGC", 0.0)
    with pytest.raises(StepCapExceeded) as err:
        simulate_discrete_walk(env, SeedSpec(3), 4, step_cap=50)
    assert err.value.replica == 4 and err.value.cap == 50


def test_verify_conservation_constructed_violations():
    env = make_env("ATCGG", 2.0)
    good = simulate_ensemble(env, 5, "discrete", SeedSpec(9))
    assert verify_conservation(good) == []
    bad_down = AggregateStats(
        up=good.up, down=good.down + np.eye(good.M, dtype=np.int64)[2],
        sojourn=None, steps=good.steps, wall_time=None, mode="discrete", R=5,
    )
    msgs = verify_conservation(bad_down)
    assert any("down[2]" in m for m in msgs)
    bad_last = AggregateStats(
        up=good.up - np.eye(good.M, dtype=np.int64)[good.M - 1],
        down=good.down, sojourn=None, steps=good.steps, wall_time=None,
        mode="discrete", R=5,
    )
    msgs = verify_conservation(bad_last)
    assert any("up[M-1]" in m for m in msgs)


def test_stats_json_roundtrip():
    env = make_env("ATCGG", 2.0)
    for mode in ("discrete", "continuous"):
        agg = simulate_ensemble(env, 7, mode, SeedSpec(13))
        doc = agg.to_json_dict()
        back = AggregateStats.from_json_dict(doc)
        assert np.array_equal(back.up, agg.up) and np.array_equal(back.down, agg.down)
        assert back.steps == agg.steps and back.R == agg.R and back.mode == mode
        if mode == "continuous":
            assert np.array_equal(back.sojourn, agg.sojourn)


def test_zero_stats():
    z = zero_stats(5, "continuous")
    assert z.R == 0 and z.steps == 0 and float(np.sum(z.sojourn)) == 0.0


def test_trace_mode():
    env = make_env("ATCGG", 2.0)
    w = simulate_discrete_walk(env, SeedSpec(5), 0, trace=True)
    assert (w.path[0], w.path_times[0]) == (1, 0.0)
    assert w.path[-1] == env.M
    assert w.path.size == w.path_times.size == w.steps + 1
    wc = simulate_continuous_walk(env, SeedSpec(5), 0, trace=True)
    assert np.all(np.diff(wc.path_times) >= 0)
    plain = simulate_discrete_walk(env, SeedSpec(5), 0)
    assert plain.path is None and plain.path_times is None


def test_pbar_consistency_with_brute():
    env = make_env("ATCGGTA", 2.4, beta=0.8)
    for x in range(1, env.M):
        assert pbar(env, x) == pytest.approx(brute_pbar(env, x), rel=1e-12)
