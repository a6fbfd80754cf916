import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from unzipseq import inference
from unzipseq.energy import BASES, Base, BaseSequence, EnergyTable
from unzipseq.inference import (
    Prior,
    _forward_sweep,
    build_edge_potentials,
    decode_map,
    empirical_rate_from_logs,
    error_report,
    log_block_probs,
    log_partition,
    sequence_log_posterior,
    site_posterior,
)
from unzipseq.walker import (
    AggregateStats,
    SeedSpec,
    accumulate_checkpoints,
    simulate_ensemble,
    simulate_walk,
    zero_stats,
)

from bruteforce import (
    block_recursion,
    brute_pair_pmf,
    edge_cost_tables,
    law_stats,
    map_dfs,
    oracle_site_conditional,
    oracle_summary,
    partition_recursion,
    path_cost,
)
from conftest import make_env, random_sequence


def _stats_with(env, mode, up=None, down=None, sojourn=None, R=1):
    M = env.M
    z = zero_stats(M, mode, R)
    up_a = z.up.copy()
    down_a = z.down.copy()
    soj_a = z.sojourn.copy() if z.sojourn is not None else None
    for x, v in (up or {}).items():
        up_a[x] = v
    for x, v in (down or {}).items():
        down_a[x] = v
    for x, v in (sojourn or {}).items():
        soj_a[x] = v
    steps = int(up_a.sum() + down_a.sum())
    return AggregateStats(up=up_a, down=down_a, sojourn=soj_a, steps=steps,
                          wall_time=None if soj_a is None else float(soj_a.sum()),
                          mode=mode, R=R)


# ---------------------------------------------------------------- local info


def local_information(stats, env, x, triple):
    """Likelihood cost of the two edges meeting at x for candidate bases
    (a_{x-1}, a_x, a_{x+1}), read off the potentials with the uniform prior's
    log 4 per site (sites x, x+1, and site 1 when x = 2) added back."""
    phi = build_edge_potentials(stats, env)
    a, b, c = triple
    return phi[x - 1, a, b] + phi[x, b, c] - (3 if x == 2 else 2) * math.log(4.0)


def test_local_information_zero_stats_continuous():
    env = make_env("ATCG", 2.0)
    stats = zero_stats(env.M, "continuous")
    triple = (Base.A, Base.T, Base.C)
    assert local_information(stats, env, 2, triple) == 0.0


def test_local_information_single_count_log2():
    # one up-crossing on an edge with dg = 0 costs exactly log 2
    env = make_env("AAAA", 1.78)
    stats = _stats_with(env, "discrete", up={2: 1})
    val = local_information(stats, env, 2, (Base.A, Base.A, Base.A))
    assert val == pytest.approx(math.log(2.0), rel=1e-15)


def test_local_information_matches_hand_expansion():
    env = make_env("ATCG", 2.1)
    stats = simulate_ensemble(env, 2, "discrete", SeedSpec(3))
    tables = edge_cost_tables(stats, env, "discrete")
    for x in (2, 3):
        for triple in ((Base.A, Base.C, Base.G), (Base.T, Base.T, Base.A)):
            expected = tables[x - 1, triple[0], triple[1]] + tables[x, triple[1], triple[2]]
            got = local_information(stats, env, x, triple)
            assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(IndexError):
        site_posterior(stats, env, 1)


# ---------------------------------------------------------------- site level


def test_site_posterior_zero_stats_uniform():
    env = make_env("ATCG", 2.0)
    for mode in ("discrete", "continuous"):
        post = site_posterior(zero_stats(env.M, mode), env, 2)
        for b in BASES:
            assert post.probs[b] == pytest.approx(0.25, abs=1e-12)
        assert post.tie
        assert (post.map_base, post.tie) == (Base.A, True)
        assert post.p_error == pytest.approx(0.75, abs=1e-12)


def test_site_posterior_degenerate_table_returns_prior():
    env = make_env("ATCG", 2.0, table=EnergyTable(np.full((4, 4), 2.5)))
    prior = Prior.iid([0.4, 0.3, 0.2, 0.1], env.M)
    stats = simulate_ensemble(env, 20, "discrete", SeedSpec(8))
    post = site_posterior(stats, env, 2, prior)
    for i, b in enumerate(BASES):
        assert post.probs[b] == pytest.approx([0.4, 0.3, 0.2, 0.1][i], abs=1e-12)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_site_posterior_brute_force_bayes_m3(mode):
    # exact Bayes by enumerating the closed-form likelihood of the statistics
    env = make_env("ATG", 2.0)
    walk = simulate_walk(env, mode, SeedSpec(13), 0)
    a, c = int(walk.up[2]), int(walk.down[2])
    masses = {}
    for gamma in BASES:
        env_g = make_env("A" + gamma.name + "G", 2.0)
        like = brute_pair_pmf(env_g, 2, a, c)
        if mode == "continuous":
            s1, s2 = float(walk.sojourn[1]), float(walk.sojourn[2])
            lam1 = math.exp(-float(env_g.table.values[Base.A, gamma]))
            n1 = c + 1  # visits to site 1
            like *= lam1**n1 * s1 ** (n1 - 1) * math.exp(-lam1 * s1) / math.gamma(n1)
            lam2 = math.exp(-float(env_g.table.values[gamma, Base.G])) + math.exp(-2.0)
            n2 = a + c  # visits to site 2
            like *= lam2**n2 * s2 ** (n2 - 1) * math.exp(-lam2 * s2) / math.gamma(n2)
        masses[gamma] = 0.25 * like
    Z = sum(masses.values())
    post = site_posterior(walk, env, 2)
    for gamma in BASES:
        assert post.probs[gamma] == pytest.approx(masses[gamma] / Z, abs=1e-10)
    assert post.map_base == max(BASES, key=lambda b: masses[b])
    assert post.p_error == pytest.approx(
        1.0 - max(masses.values()) / Z, abs=1e-10
    )


def test_site_map_estimate_plain():
    env = make_env("ATCG", 2.0)
    post = site_posterior(zero_stats(env.M, "discrete"), env, 2,
                          Prior.iid([0.7, 0.1, 0.1, 0.1], env.M))
    assert post.map_base is Base.A and not post.tie
    assert post.p_error == pytest.approx(0.3, abs=1e-12)


def test_site_posterior_tie_scales_with_costs():
    # a real 4e-11 edge of A over T at costs of order 1 is a decision, not a tie
    env = make_env("ATCG", 2.0)
    prior = Prior.iid([0.25 + 1e-11, 0.25 - 1e-11, 0.25, 0.25], env.M)
    post = site_posterior(zero_stats(env.M, "discrete"), env, 2, prior)
    assert post.map_base is Base.A and not post.tie
    # an exact tie among costs of order 1e10 (R ~ 1e7) is still a tie
    flat = make_env("ATCG", 2.0, table=EnergyTable(np.full((4, 4), 2.5)))
    stats = _stats_with(flat, "continuous", up={1: 3 * 10**9, 2: 2 * 10**9, 3: 10**7},
                        down={2: 3 * 10**9 - 10**7, 3: 2 * 10**9 - 10**7},
                        sojourn={1: 4.1e9, 2: 3.3e9, 3: 2.2e9}, R=10**7)
    post = site_posterior(stats, flat, 2)
    assert post.tie and post.map_base is Base.A
    assert np.all(post.probs == 0.25)


def test_site_error_probability_point_mass():
    env = make_env("AAAA", 1.3)
    stats = simulate_ensemble(env, 300, "discrete", SeedSpec(2))
    post = site_posterior(stats, env, 2)
    p = post.p_error
    assert 0.0 < p < 1e-6
    assert post.log_p_error == pytest.approx(math.log(p), rel=1e-9)


def test_site_log_error_probability_underflow_regime():
    env = make_env("ATCGGA", 2.2)
    grid = [2000, 4000, 8000]
    from unzipseq.walker import accumulate_checkpoints

    snaps = accumulate_checkpoints(env, "discrete", SeedSpec(5), grid)
    lps = [site_posterior(s, env, 3).log_p_error
           for s in snaps]
    assert all(math.isfinite(v) for v in lps)
    assert lps[0] > lps[1] > lps[2]
    # in this regime the plain probability may underflow, the log never does
    last = site_posterior(snaps[-1], env, 3)
    assert lps[-1] < -500 or last.p_error > 0


def test_numerical_stability_at_r_1e7():
    # synthetic statistics at the R = 1e7 scale: everything must stay finite
    # and the posterior must concentrate on the truth
    from unzipseq.rates import count_moments

    env = make_env("ATCGGA", 2.2, r=1.5)
    R = 10_000_000
    M = env.M
    up = {x: round(R * count_moments(env, x).e_up) for x in range(1, M)}
    down = {x: round(R * count_moments(env, x).e_down) for x in range(2, M)}
    soj = {x: R * count_moments(env, x).e_sojourn for x in range(1, M)}
    stats = _stats_with(env, "continuous", up=up, down=down, sojourn=soj, R=R)
    for x in range(2, M):
        post = site_posterior(stats, env, x)
        assert post.map_base == env.seq.base(x)
        lp = post.log_p_error
        assert math.isfinite(lp) and lp < -1e5
    phi = build_edge_potentials(stats, env)
    dec = decode_map(phi, env.seq.base(1))
    assert str(dec.map_sequence) == "ATCGGA" and not dec.tie
    lp_any = log_block_probs(phi, env.seq.base(1), dec.map_sequence, 1)[0]
    assert math.isfinite(lp_any) and lp_any < -1e5
    rep = error_report(stats, env, None, env.seq.base(1))
    assert rep.log_p_any == pytest.approx(lp_any, rel=1e-12)
    assert rep.p_any == 0.0  # honest underflow
    with pytest.raises(IndexError):
        site_posterior(stats, env, 1)


# ---------------------------------------------------------------- potentials


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_edge_potentials_reconstruct_global_cost(mode):
    rng = np.random.default_rng(19)
    env = make_env("ATCGGT", 2.2)
    stats = simulate_ensemble(env, 5, mode, SeedSpec(19))
    prior = Prior.iid([0.4, 0.25, 0.2, 0.15], env.M)
    phi = build_edge_potentials(stats, env, prior)
    tables = edge_cost_tables(stats, env, mode)
    prior_arr = prior.probs
    for _ in range(40):
        alpha = [Base(int(v)) for v in rng.integers(0, 4, env.M)]
        direct = sum(tables[x, alpha[x - 1], alpha[x]] for x in range(1, env.M))
        direct -= sum(math.log(prior_arr[x, alpha[x - 1]]) for x in range(1, env.M + 1))
        assert path_cost(phi, alpha) == pytest.approx(direct, rel=1e-10)


def test_edge_potentials_zero_stats_constant():
    env = make_env("ATCGG", 2.0)
    phi = build_edge_potentials(zero_stats(env.M, "continuous"), env)
    for e in range(1, env.M):
        assert np.ptp(phi[e]) == pytest.approx(0.0, abs=1e-15)


def test_edge_potentials_continuous_hand_expansion():
    env = make_env("ATCG", 1.9, r=1.3)
    stats = simulate_ensemble(env, 1, "continuous", SeedSpec(29))
    phi = build_edge_potentials(stats, env)
    for e in range(1, env.M):
        for u in BASES:
            for v in BASES:
                g0 = float(env.table.values[u, v])
                expected = (
                    env.beta * g0 * float(stats.up[e])
                    + float(stats.sojourn[e]) * env.params.rate_scale * math.exp(-env.beta * g0)
                    - math.log(0.25)
                )
                if e == 1:
                    expected -= math.log(0.25)
                assert phi[e, u, v] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- global MAP


@pytest.mark.parametrize("mode,M", [("discrete", 8), ("continuous", 6)])
def test_oracle_equivalence_small(mode, M):
    rng = np.random.default_rng(101)
    for trial in range(6):
        env = make_env(random_sequence(rng, int(rng.integers(3, M + 1))),
                       float(rng.uniform(1.8, 2.8)), beta=float(rng.choice([0.5, 1.0, 2.0])))
        R = int(rng.choice([1, 10]))
        stats = simulate_ensemble(env, R, mode, SeedSpec(int(rng.integers(1 << 30))))
        phi = build_edge_potentials(stats, env)
        b1 = env.seq.base(1)
        oracle = oracle_summary(stats, env, mode, b1, h_max=3)
        dec = decode_map(phi, b1)
        assert tuple(dec.map_sequence.bases) == oracle["map"]
        assert dec.cost == pytest.approx(oracle["map_cost"], rel=1e-10)
        assert log_partition(phi, b1) == pytest.approx(oracle["log_z"], rel=1e-10)
        assert math.exp(log_block_probs(phi, b1, dec.map_sequence, 1)[0]) == pytest.approx(
            oracle["p_any"], rel=1e-10, abs=1e-12
        )
        for h in (1, 2, 3):
            assert math.exp(log_block_probs(phi, b1, dec.map_sequence, h)[-1]) == pytest.approx(
                oracle["p_blocks"][h], rel=1e-10, abs=1e-12
            )


def test_inference_follows_the_recorded_time_model():
    # the statistics fix the time model: discrete ones are decoded without a
    # mode argument, the discrete view of continuous ones runs the discrete
    # model, and a mode outside MODES is refused
    env = make_env("ACATTG", 2.3)
    b1 = env.seq.base(1)
    continuous = simulate_ensemble(env, 20, "continuous", SeedSpec(41))
    view = dataclasses.replace(continuous, mode="discrete", sojourn=None, wall_time=None)
    for stats in (simulate_ensemble(env, 20, "discrete", SeedSpec(43)), view):
        rep = error_report(stats, env, b1=b1)
        oracle = oracle_summary(stats, env, "discrete", b1)
        assert tuple(rep.decode.map_sequence.bases) == oracle["map"]
        assert rep.log_partition == pytest.approx(oracle["log_z"], rel=1e-10)
        assert rep.p_any == pytest.approx(oracle["p_any"], rel=1e-10, abs=1e-12)
    with pytest.raises(ValueError, match="mode must be one of"):
        build_edge_potentials(dataclasses.replace(view, mode="quantum"), env)


def test_site_count_mismatch_is_refused():
    env = make_env("ACAATTGGGG", 2.3)
    with pytest.raises(ValueError, match="statistics: M = 2 does not match environment M = 10"):
        build_edge_potentials(simulate_ensemble(make_env("AC", 2.3), 5, "discrete", SeedSpec(3)), env)
    stats = simulate_ensemble(env, 5, "discrete", SeedSpec(3))
    for M in (2, 7):
        with pytest.raises(ValueError, match=f"prior: M = {M} does not match environment M = 10"):
            build_edge_potentials(stats, env, Prior.uniform(M))


def test_decode_homopolymer_degeneracy():
    env = make_env("CCCCCC", 2.5)
    stats = simulate_ensemble(env, 50, "continuous", SeedSpec(7))
    phi = build_edge_potentials(stats, env)
    with_b1 = decode_map(phi, Base.C)
    assert str(with_b1.map_sequence) == "CCCCCC"
    assert not with_b1.tie
    free = decode_map(phi, None)
    tied = {str(s) for s in free.ties}
    assert {"CCCCCC", "GGGGGG"} <= tied
    # the twins have bit-identical costs
    assert path_cost(phi, BaseSequence.from_string("CCCCCC")) == path_cost(
        phi, BaseSequence.from_string("GGGGGG")
    )


def test_decode_converges_at_desk_scale():
    rng = np.random.default_rng(2030)
    letters = random_sequence(rng, 20)
    env = make_env(letters, 2.3)
    stats = simulate_ensemble(env, 1000, "discrete", SeedSpec(17))
    phi = build_edge_potentials(stats, env)
    dec = decode_map(phi, env.seq.base(1))
    assert str(dec.map_sequence) == letters


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("M", [50, 200, 1000])
def test_decode_regression_grid_exact_law(M, mode):
    # exact-law statistics at the sizes the decoder must handle; an absolute
    # tie tolerance and a recursive traceback broke here (IndexError on an
    # empty tie list, RecursionError at M ~ 1000)
    rng = np.random.default_rng([M, len(mode)])
    env = make_env(random_sequence(rng, M), 3.0)
    for R in (10**3, 10**5, 10**7):
        stats = law_stats(env, R, mode, rng)
        phi = build_edge_potentials(stats, env)
        dec = decode_map(phi, env.seq.base(1))
        assert dec.ties[0] == dec.map_sequence
        assert path_cost(phi, dec.map_sequence) == pytest.approx(dec.cost, rel=1e-12)
        true_cost = path_cost(phi, env.seq)
        assert dec.cost <= true_cost + 1e-12 * abs(true_cost), (R, dec.cost, true_cost)
        if R == 10**7:
            assert dec.map_sequence == env.seq, R


def _twin_chain(M, twins, rng):
    """Random potentials under which bases C and G are interchangeable, and
    preferred, at each site in ``twins``: the MAP ties there and only there."""
    phi = rng.uniform(1.0, 5.0, (M, 4, 4))
    phi[0] = 0.0
    for s in twins:
        phi[s - 1, :, Base.C] = phi[s - 1, :, Base.G] = 0.0
        if s < M:
            phi[s, Base.C] = phi[s, Base.G] = rng.uniform(1.0, 5.0, 4)
    return phi


@pytest.mark.parametrize(
    "twins, b1, tie_cap, n_ties, truncated",
    [
        ((), Base.A, 16, 1, False),  # one path: no fork
        ((700,), Base.A, 16, 2, False),  # the only tie lies past M/2
        ((600, 800, 950), Base.A, 8, 8, False),  # exactly tie_cap co-optimal
        ((600, 800, 950), Base.A, 4, 4, True),  # cut at tie_cap
        ((1, 700), None, 16, 4, False),  # co-optimal starts: no prefix to follow
        ((1000,), Base.T, 16, 2, False),  # the last site
    ],
)
def test_traceback_hands_over_to_depth_first_at_a_fork(twins, b1, tie_cap, n_ties, truncated):
    M = 1000
    phi = _twin_chain(M, twins, np.random.default_rng([M, len(twins), tie_cap]))
    if 1 in twins:  # the start itself is the twin site
        phi[1, Base.A] = phi[1, Base.T] = 9.0
    got = decode_map(phi, b1, tie_cap=tie_cap)
    want_map, want_ties, want_truncated = map_dfs(phi, b1, tie_cap)
    assert got.map_sequence.bases == want_map
    assert tuple(t.bases for t in got.ties) == want_ties
    assert got.truncated is want_truncated is truncated
    assert len(got.ties) == n_ties
    assert {got.map_sequence.base(s) for s in twins} <= {Base.C}
    assert got.cost == pytest.approx(path_cost(phi, got.map_sequence), rel=1e-12)


@pytest.mark.parametrize("mode, b1_free", [("discrete", True), ("continuous", False)])
def test_error_report_memory_is_bounded(mode, b1_free):
    # error_report at M = 10,000 keeps to a few phi-sized arrays (phi is
    # 1.28 MB): build_edge_potentials' temporaries are its peak, ~5.7 MiB
    # with phi held, and no later stage goes past it, whether the decode
    # follows one path (b1 fixed) or branches (b1 free in discrete time,
    # where the four starts tie).  The forward sweep holds its packed state
    # and, for _DECODE_ROWS sites at a time, the gather indices and the
    # subtrahends of four operand rows of 4h + 8 lanes (0.16 MB each at
    # h = 3), ~0.9 MB at its peak; the subtrahends of every site at once
    # would be 6.4 MB.
    M = 10_000
    env = make_env(random_sequence(np.random.default_rng(16), M), 3.5)
    stats = law_stats(env, 10**3, mode, np.random.default_rng(17))
    b1 = None if b1_free else env.seq.base(1)
    phi = build_edge_potentials(stats, env)
    ref = error_report(stats, env, None, b1, 3).decode.map_sequence  # warms the caches

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report_peak = peak(lambda: error_report(stats, env, None, b1, 3))
    sweep_peak = peak(lambda: log_block_probs(phi, b1, ref, 3))
    assert decode_map(phi, b1).tie is b1_free
    assert report_peak < 8 * 2**20, report_peak
    assert sweep_peak < 1.5 * phi.nbytes, sweep_peak


def test_log_partition_zero_potentials():
    M = 5
    phi = np.zeros((M, 4, 4))
    assert log_partition(phi, Base.A) == pytest.approx((M - 1) * math.log(4), rel=1e-12)
    assert log_partition(phi, None) == pytest.approx(M * math.log(4), rel=1e-12)
    dec = decode_map(phi, Base.A, tie_cap=8)
    assert dec.truncated and dec.tie
    assert log_partition(phi, Base.A) >= -dec.cost


def test_sequence_posterior_basics():
    env = make_env("ATCG", 2.0)
    stats = zero_stats(env.M, "continuous")
    phi = build_edge_potentials(stats, env)
    b1 = Base.A
    alpha = BaseSequence.from_string("ACCG")
    assert math.exp(sequence_log_posterior(alpha, phi, b1)) == pytest.approx(
        4.0 ** -(env.M - 1), rel=1e-12
    )
    with pytest.raises(ValueError):
        sequence_log_posterior(BaseSequence.from_string("TCCG"), phi, b1)
    with pytest.raises(ValueError, match="length"):
        sequence_log_posterior(BaseSequence.from_string("ACC"), phi, b1)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_sequence_posterior_sums_to_one(mode):
    env = make_env("ATCG", 2.3)
    stats = simulate_ensemble(env, 3, mode, SeedSpec(37))
    phi = build_edge_potentials(stats, env)
    b1 = env.seq.base(1)
    oracle = oracle_summary(stats, env, mode, b1)
    total = sum(
        math.exp(sequence_log_posterior(BaseSequence(tuple(Base(int(v)) for v in row)), phi, b1))
        for row in oracle["seqs"]
    )
    assert total == pytest.approx(1.0, abs=1e-10)
    # the MAP sequence carries the highest posterior
    dec = decode_map(phi, b1)
    p_map = math.exp(sequence_log_posterior(dec.map_sequence, phi, b1))
    assert p_map >= max(oracle["weights"]) - 1e-12


def test_prob_any_error_zero_stats():
    env = make_env("ATCGG", 2.0)
    phi = build_edge_potentials(zero_stats(env.M, "discrete"), env)
    b1 = Base.A
    ref = decode_map(phi, b1).map_sequence
    p_any = math.exp(log_block_probs(phi, b1, ref, 1)[0])
    assert p_any == pytest.approx(1 - 4.0 ** -(env.M - 1), rel=1e-12)


def test_prob_nonsuccessive_matches_any_error_at_h1():
    env = make_env("ATCGGT", 2.2)
    stats = simulate_ensemble(env, 8, "continuous", SeedSpec(41))
    phi = build_edge_potentials(stats, env)
    b1 = env.seq.base(1)
    ref = decode_map(phi, b1).map_sequence
    p1 = math.exp(log_block_probs(phi, b1, ref, 1)[0])
    p2 = math.exp(log_block_probs(phi, b1, ref, 6)[0])  # h = 1 does not depend on the cap
    assert p2 == pytest.approx(p1, rel=1e-13)
    # monotone in h, and zero beyond the largest possible block count
    values = [math.exp(log_block_probs(phi, b1, ref, h)[-1]) for h in range(1, 7)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert math.exp(log_block_probs(phi, b1, ref, env.M)[-1]) == 0.0
    with pytest.raises(ValueError):
        log_block_probs(phi, b1, ref, 0)



@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("M", [2, 3, 50, 1000])
def test_block_pass_equals_state_by_state_recursion(M, mode):
    # one forward sweep gives the reference recursions' arithmetic, bit for
    # bit: its block states relative to the MAP and to a sequence that is not
    # the MAP, and its partition column, on law stats and on zero stats
    rng = np.random.default_rng([M, len(mode), 14])
    env = make_env(random_sequence(rng, M), 3.0)
    cases = [law_stats(env, R, mode, rng) for R in (10**3, 10**7)] + [zero_stats(M, mode, 1)]
    for stats in cases:
        phi = build_edge_potentials(stats, env)
        for b1 in (env.seq.base(1), None):
            log_z = partition_recursion(phi, b1)
            assert repr(log_partition(phi, b1)) == repr(log_z), (stats.R, b1)
            decoded = decode_map(phi, b1).map_sequence
            other = decoded
            while other == decoded:
                other = BaseSequence.from_string(random_sequence(rng, M))
            for ref in (decoded, other):
                for h_max in (1, 2, 3, 4):
                    want = block_recursion(phi, b1, ref, h_max)
                    got, got_z = _forward_sweep(phi, b1, np.array(ref.bases), h_max)
                    assert np.array_equal(got, want), (stats.R, b1, str(ref)[:8], h_max)
                    assert repr(got_z) == repr(log_z), (stats.R, b1, str(ref)[:8], h_max)
                    assert np.array_equal(log_block_probs(phi, b1, ref, h_max), want)


def test_suffix_minima_keep_the_first_of_equal_sums():
    # small integer potentials make equal suffix sums common; the backward
    # pass's minima equal numpy's, and the decode, which takes the tight
    # steps in Base order, is the depth-first reference's, ties and all
    rng = np.random.default_rng(24)
    for M in (2, 5, 40, 600):
        phi = rng.integers(0, 3, (M, 4, 4)).astype(float)
        phi[0] = 0.0
        E = inference._suffix_minima(phi)
        want = np.zeros((M + 1, 4))
        for x in range(M - 1, 0, -1):
            want[x] = (phi[x] + want[x + 1]).min(axis=1)
        assert np.array_equal(E[1:], want[1:]), M
        for b1 in (None, Base.C):
            got = decode_map(phi, b1, tie_cap=8)
            want_map, want_ties, want_truncated = map_dfs(phi, b1, 8)
            assert got.map_sequence.bases == want_map
            assert tuple(t.bases for t in got.ties) == want_ties
            assert got.truncated is want_truncated
            assert got.tie
    # all four sums equal: the first base's is kept, and every step is tight
    phi = np.ones((3, 4, 4))
    assert decode_map(phi, None, tie_cap=64).map_sequence.bases == (Base.A,) * 3
    assert len(decode_map(phi, None, tie_cap=64).ties) == 64


def test_error_report_reads_one_sweep(monkeypatch):
    # the report's log Z and block probabilities are the reference
    # recursions' values, and the partition is not recomputed on the side
    def no_second_pass(*args):
        raise AssertionError("error_report ran log_partition")

    monkeypatch.setattr(inference, "log_partition", no_second_pass)
    rng = np.random.default_rng(15)
    env = make_env(random_sequence(rng, 200), 3.0)
    for mode in ("discrete", "continuous"):
        stats = law_stats(env, 10**4, mode, rng)
        phi = build_edge_potentials(stats, env)
        for b1 in (env.seq.base(1), None):
            rep = error_report(stats, env, None, b1, 3)
            assert repr(rep.log_partition) == repr(partition_recursion(phi, b1))
            want = block_recursion(phi, b1, rep.decode.map_sequence, 3).tolist()
            assert [lp for _, _, lp in rep.p_blocks] == want
            assert rep.log_p_any == want[0]


def test_log_p_any_stays_negative_when_an_error_is_near_certain():
    # "T" * 400 at g1 = 3.2, discrete, R = 1..3 (the output corpus's
    # certain-error grid): log P(MAP correct) = -cost - log Z is -446, -399
    # and -368, so P(any error) rounds to 1, and its log is -P(MAP correct),
    # which -exp(-cost - log Z) gives apart from the sweep's block masses
    env = make_env("T" * 400, 3.2)
    for agg in accumulate_checkpoints(env, "discrete", SeedSpec(1), [1, 2, 3]):
        rep = error_report(agg, env, None, env.seq.base(1), 3)
        log_p_correct = -rep.decode.cost - rep.log_partition
        assert -700 < log_p_correct < -300, agg.R
        assert rep.p_any == 1.0
        assert rep.log_p_any == pytest.approx(-math.exp(log_p_correct), rel=1e-9)
        log_p = [lp for _, _, lp in rep.p_blocks]
        assert 0.0 > log_p[0] >= log_p[1] >= log_p[2] > -1e-30, log_p


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_log_p_any_matches_enumeration_in_log_form(mode):
    # at M = 8 and R = 1 an error is likely; log P(>= h) matches the log of
    # the enumerated masses at every h
    env = make_env("ATCGGACT", 2.3)
    stats = simulate_ensemble(env, 1, mode, SeedSpec(71))
    rep = error_report(stats, env, None, env.seq.base(1), 3)
    oracle = oracle_summary(stats, env, mode, env.seq.base(1))
    assert tuple(rep.decode.map_sequence.bases) == oracle["map"]
    for h, _, lp in rep.p_blocks:
        assert lp == pytest.approx(math.log(oracle["p_blocks"][h]), rel=1e-9, abs=1e-13), h


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_site_posterior_consistent_with_global_conditional(mode):
    env = make_env("TACGG", 2.1)
    stats = simulate_ensemble(env, 4, mode, SeedSpec(43))
    for x in (2, 3, 4):
        post = site_posterior(stats, env, x)
        cond = oracle_site_conditional(stats, env, mode, x)
        for b in BASES:
            assert post.probs[b] == pytest.approx(cond[b], abs=1e-10)


def test_shift_invariance():
    env = make_env("ATCGG", 2.2)
    stats = simulate_ensemble(env, 5, "continuous", SeedSpec(47))
    phi = build_edge_potentials(stats, env)
    shifted = phi + 13.7
    b1 = env.seq.base(1)
    d0, d1 = decode_map(phi, b1), decode_map(shifted, b1)
    assert str(d0.map_sequence) == str(d1.map_sequence)
    r0, r1 = d0.map_sequence, d1.map_sequence
    assert math.exp(log_block_probs(phi, b1, r0, 1)[0]) == pytest.approx(
        math.exp(log_block_probs(shifted, b1, r1, 1)[0]), abs=1e-10
    )
    for h in (1, 2):
        assert math.exp(log_block_probs(phi, b1, r0, h)[-1]) == pytest.approx(
            math.exp(log_block_probs(shifted, b1, r1, h)[-1]), abs=1e-10
        )
    alpha = BaseSequence.from_string("ACCGG")
    assert math.exp(sequence_log_posterior(alpha, phi, b1)) == pytest.approx(
        math.exp(sequence_log_posterior(alpha, shifted, b1)), abs=1e-12
    )


def test_error_report_assembly():
    env = make_env("ATCGG", 2.2)
    stats = simulate_ensemble(env, 10, "continuous", SeedSpec(53))
    rep = error_report(stats, env, b1=env.seq.base(1), h_max=2)
    assert rep.decode.ties[0] == rep.decode.map_sequence
    assert math.isfinite(rep.log_partition)
    assert [h for h, _, _ in rep.p_blocks] == [1, 2]
    assert rep.p_blocks[0][1] == pytest.approx(rep.p_any, rel=1e-12)
    assert rep.p_blocks[0][2] == rep.log_p_any
    assert rep.sites.site.tolist() == [2, 3, 4]


# ---------------------------------------------------------------- rate fits


def test_empirical_rate_exact_exponential():
    c = 0.0371
    pts = [(R, -c * R) for R in (10, 50, 200, 1000)]
    fit = empirical_rate_from_logs(pts)
    assert fit.slope == pytest.approx(c, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)


def test_empirical_rate_sqrt_correction_converges():
    c = 0.5
    slopes = []
    for rmax in (100, 1000, 10000):
        grid = np.linspace(rmax / 10, rmax, 10)
        pts = [(R, -c * R + math.sqrt(R)) for R in grid]
        slopes.append(empirical_rate_from_logs(pts).slope)
    errors = [abs(s - c) / c for s in slopes]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.05


def test_empirical_rate_validation():
    with pytest.raises(ValueError):
        empirical_rate_from_logs([(1, math.log(0.5))])
    with pytest.raises(ValueError):  # p = 0
        empirical_rate_from_logs([(1, -math.inf), (2, math.log(0.5))])
    with pytest.raises(ValueError):  # p = 1
        empirical_rate_from_logs([(1, 0.0), (2, math.log(0.5))])
    with pytest.raises(ValueError):
        empirical_rate_from_logs([(1, math.log(0.5)), (1, math.log(0.4))])
    fit = empirical_rate_from_logs([(1, math.log(0.9)), (2, math.log(0.8)), (3, math.log(0.7))])
    assert math.isfinite(fit.slope_stderr)


def test_prior_validation():
    # 0/0 and NaN compare False with everything: both must still be refused
    for weights in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [math.nan, 1.0, 1.0, 1.0],
                    ["1", "1", "1", "1"], [True, True, True, 1]):
        with pytest.raises(ValueError):
            Prior.iid(weights, 4)
    # numpy weights from library callers are numbers
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(Prior.iid(weights, 4).probs[1], [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        Prior(np.full((6, 4), np.nan))
    bad = np.full((5, 4), 0.25)
    bad[2] = [0.3, 0.3, 0.3, 0.2]
    with pytest.raises(ValueError):
        Prior(np.vstack([np.full((1, 4), 0.25), bad[1:] * 1.01]))
    p = Prior.uniform(6)
    assert p.M == 6 and np.log(p.probs[3, Base.C]) == pytest.approx(math.log(0.25))
