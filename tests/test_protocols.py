import math
import re
import time

import numpy as np
import pytest

from unzipseq.energy import (
    Base,
    BaseSequence,
    EnergyEnvironment,
    EnergyTable,
    ForceField,
    ModelParams,
    hop_probability,
)
from unzipseq import protocols
from unzipseq.protocols import (
    LevelLadder,
    ProtocolAbort,
    build_protocol,
    estimate_energy,
    h_margins,
    rc_energy,
    run_protocol,
    sequence_from_energies,
    window_schedule,
)
from unzipseq.rates import gap_value, pbar
from unzipseq.walker import (
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    simulate_ensemble,
    verify_conservation,
)

from bruteforce import brute_pbar

TOY = LevelLadder((3.0, 1.0), (4.0, 2.0, 0.0))


def _level_stats_from_ratios(M, ratios_by_level, scale=10**6):
    """Synthetic per-level statistics whose down/up ratio at every site is as given."""
    out = {}
    for lvl, ratios in ratios_by_level.items():
        up = np.zeros(M, dtype=np.int64)
        down = np.zeros(M, dtype=np.int64)
        for x in range(1, M):
            up[x] = scale
            down[x] = round(scale * ratios[x]) if x >= 2 else 0
        out[lvl] = AggregateStats(
            up=up, down=down, sojourn=None, steps=int(up.sum() + down.sum()),
            wall_time=None, mode="discrete", R=scale,
        )
    return out


# ------------------------------------------------------------------- ladder


def test_validate_ladder_examples():
    LevelLadder([3, 1], [4, 2, 0])
    for mu, r, violation in [
        ([3, 1], [2, 4, 0], "r[1] > r[2]"),
        ([3, 1], [4, 2, 1], "r[K+1]"),
        ([1, 3], [4, 2, 0], "mu[1] > mu[2]"),
        ([3, 1], [4, 0.5, 0], "mu[2] - r[2] < 0"),
    ]:
        with pytest.raises(ValueError, match="^invalid ladder: .*" + re.escape(violation)):
            LevelLadder(mu, r)


def test_ladder_from_table(table1):
    ladder = LevelLadder.from_table(table1)
    assert ladder.K == 10
    LevelLadder(ladder.mu, ladder.r_levels)
    # every inequality individually re-checked
    for k in range(1, ladder.K + 1):
        assert ladder.mu_at(k) - ladder.r_at(k) < 0
        assert ladder.mu_at(k) - ladder.r_at(k + 1) > 0
        for i in range(k + 1, ladder.K + 1):
            assert ladder.mu_at(i) - ladder.r_at(k + 1) < 0
    assert ladder.r_at(ladder.K + 1) == 0.0
    single = LevelLadder.from_energies([2.0, 2.0])
    assert single.K == 1
    LevelLadder(single.mu, single.r_levels)


def test_q_prob():
    # q^i_m, the right-move probability under force r_i in energy mu_m
    def q(ladder, i, m, beta):
        return hop_probability(ladder.mu_at(m) - ladder.r_at(i), beta)

    lad = LevelLadder((3.0, 1.0), (4.0, 3.0 - 1e-12, 0.0))
    # mu_m == r_i (up to fp) gives 1/2
    assert q(lad, 2, 1, beta=1.0) == pytest.approx(0.5, abs=1e-9)
    for ladder in (TOY, LevelLadder.from_table(EnergyTable.default())):
        assert q(ladder, 1, 1, 1.0) > 0.5
        for k in range(1, ladder.K + 1):
            assert q(ladder, k + 1, k, 1.0) < 0.5
    with pytest.raises(IndexError):
        q(TOY, 4, 1, 1.0)
    with pytest.raises(IndexError):
        q(TOY, 1, 3, 1.0)


# ------------------------------------------------------------------- window


def test_window_schedule_values():
    field = window_schedule(y=5, A=3, C=0.4, M=12, baseline=1.1)
    g1 = field.per_site  # g1[x - 1] is site x
    assert g1[7] == pytest.approx(0.0)
    assert g1[4] == pytest.approx(0.4 * 3)
    assert g1[1] == pytest.approx(0.4 * 6)
    assert g1[0] == 1.1 and g1[10] == 1.1
    with pytest.raises(ValueError):
        window_schedule(y=2, A=3, C=0.4, M=12)
    with pytest.raises(ValueError):
        window_schedule(y=5, A=3, C=-1.0, M=12)


def test_window_schedule_half_width():
    # A = 0 sets the one site y to C * 0; a negative A used to change nothing
    point = window_schedule(y=5, A=0, C=0.4, M=12, baseline=1.1)
    assert point.per_site.tolist() == [1.1] * 4 + [0.0] + [1.1] * 6
    with pytest.raises(ValueError, match="half-width"):
        window_schedule(y=5, A=-2, C=1.0, M=12, baseline=1.1)


def test_window_traps_the_walk():
    # 1/pbar_y >= exp(-beta (C A(A-1)/2 - sum of window energies))
    energies = [1.9, 2.1, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0, 2.2, 1.9]
    M = len(energies) + 1
    y, A, C = 6, 4, 0.3
    field = window_schedule(y=y, A=A, C=C, M=M, baseline=0.0)
    env = EnergyEnvironment(tuple(energies), field, ModelParams(beta=1.0))
    bound = math.exp(-(C / 2 * A * (A - 1) - sum(energies[y : y + A])))
    assert 1.0 / pbar(env, y) >= bound - 1e-9
    assert 1.0 / pbar(env, y) > 1e3  # the window does create a deep trap


# ------------------------------------------------------------------- plans


def test_build_protocol_uniform_pair():
    plan = build_protocol("uniform-pair", TOY, M=6, replicas=10, k=1)
    assert [lv.level_index for lv in plan.levels] == [1, 2]
    assert np.all(plan.levels[0].force.per_site == 4.0)
    assert np.all(plan.levels[1].force.per_site == 2.0)
    scan = build_protocol("uniform-pair", TOY, M=6, replicas=10, max_level=3)
    assert [lv.level_index for lv in scan.levels] == [1, 2, 3]
    with pytest.raises(IndexError):
        build_protocol("uniform-pair", TOY, M=6, replicas=10, k=5)
    with pytest.raises(ValueError):
        build_protocol("sideways", TOY, M=6, replicas=10, k=1)


def test_build_protocol_focus_and_absorbing():
    x = 4
    focus = build_protocol("focus-at-x", TOY, M=8, replicas=5, site=x)
    assert [lv.level_index for lv in focus.levels] == [1, 2]
    for lv in focus.levels:
        g1 = lv.force.per_site  # g1[x - 1] is site x
        assert g1[x - 2] == TOY.r_at(1)
        assert g1[x - 1] == TOY.r_at(lv.level_index)
        assert g1[x] == TOY.r_at(TOY.K)
    absorbing = build_protocol("absorbing-tail", TOY, M=8, replicas=5, site=x)
    for lv in absorbing.levels:
        assert lv.force.per_site[x - 1] == TOY.r_at(lv.level_index)
        assert np.all(lv.force.per_site[x:] == 0.0)  # sites x+1..7
    with pytest.raises(ValueError):
        build_protocol("focus-at-x", TOY, M=8, replicas=5, site=1)


@pytest.mark.parametrize("scheme,keys,message", [
    ("focus-at-x", {"site": 4, "k": 1}, "k: the focus-at-x scheme takes no pair index"),
    ("absorbing-tail", {"site": 4, "k": 1}, "k: the absorbing-tail scheme takes no pair index"),
    ("uniform-pair", {"k": 1, "max_level": 3},
     "max_level: cannot be combined with k, which fixes the levels"),
    ("uniform-pair", {"site": 3}, "site: the uniform-pair scheme estimates every site"),
], ids=["focus-k", "absorbing-k", "pair-k-max-level", "pair-site"])
def test_build_protocol_refuses_keys_its_plan_would_drop(scheme, keys, message):
    # a library caller gets the CLI's refusal, naming the key
    with pytest.raises(ValueError) as err:
        build_protocol(scheme, TOY, M=8, replicas=5, **keys)
    assert str(err.value) == message


def test_run_protocol_single_level_equals_plain_ensemble():
    energies = (2.0, 1.5, 2.0)
    params = ModelParams(beta=1.0)
    plan = build_protocol("uniform-pair", TOY, M=4, replicas=25, k=1)
    stats = run_protocol(energies, params, plan, SeedSpec(3), "discrete")
    env1 = EnergyEnvironment(energies, ForceField.constant(TOY.r_at(1), 3), params)
    direct = simulate_ensemble(env1, 25, "discrete", SeedSpec(3).child(1))
    assert np.array_equal(stats[1].up, direct.up)
    assert np.array_equal(stats[1].down, direct.down)
    for lv in plan.levels:
        assert verify_conservation(stats[lv.level_index]) == []


def test_run_protocol_forward_drift_at_high_force():
    # force far above every energy: forward moves dominate everywhere
    energies = tuple([1.0] * 7)
    lad = LevelLadder((1.0,), (5.0, 0.0))
    plan = build_protocol("uniform-pair", lad, M=8, replicas=400, k=1)
    stats = run_protocol(energies, ModelParams(beta=1.0), plan, SeedSpec(8), "discrete")
    agg = stats[1]
    for x in range(2, 8):
        assert agg.down[x] < agg.up[x]


def test_run_protocol_step_cap_names_level():
    # level 2 expects ~5.9e4 steps per walk, level 3 ~2e13: refused at level 2
    energies = tuple([3.0] * 6)
    plan = build_protocol("uniform-pair", TOY, M=7, replicas=3, k=2)
    with pytest.raises(ProtocolAbort) as err:
        run_protocol(energies, ModelParams(beta=2.0), plan, SeedSpec(4), "discrete", step_cap=20)
    assert err.value.level == 2 and err.value.replica is None
    assert str(err.value).startswith("force level 2: expected 10^4.8 steps per walk")


def test_run_protocol_walk_over_cap_names_level_and_replica():
    # a cap that every level's expectation is under: the levels walk, and the
    # first replica over the cap, in plan order, is named with its level
    energies = tuple([3.0] * 6)
    params = ModelParams(beta=1.0)
    plan = build_protocol("uniform-pair", TOY, M=7, replicas=200, k=1)
    envs = [EnergyEnvironment(energies, lv.force, params) for lv in plan.levels]
    cap = math.ceil(max(math.exp(env.log_steps_per_walk) for env in envs))
    want = None
    for lv, env in zip(plan.levels, envs):
        try:
            simulate_ensemble(env, lv.replicas, "discrete", SeedSpec(4).child(lv.level_index),
                              step_cap=cap)
        except StepCapExceeded as e:
            want = (lv.level_index, e.replica)
            break
    assert want is not None and want[1] is not None
    with pytest.raises(ProtocolAbort) as err:
        run_protocol(energies, params, plan, SeedSpec(4), "discrete", step_cap=cap)
    assert (err.value.level, err.value.replica) == want
    assert str(err.value) == (f"force level {want[0]}: replica {want[1]} exceeded step cap "
                              f"{cap} before absorption")


def test_run_protocol_refuses_trap_before_any_level_walks(monkeypatch):
    # a from-table scan of 200 sites: levels 1-9 expect at most 10^4.7 steps
    # per walk, level 10 (the last) 10^32.9, so the plan is refused at once
    def no_walk(*args, **kwargs):
        raise AssertionError("a level walked before the plan was checked")

    monkeypatch.setattr(protocols, "simulate_ensemble", no_walk)
    energies = np.random.default_rng(800).choice([1.55, 1.78], size=200).tolist()
    ladder = LevelLadder.from_table(EnergyTable.default())
    plan = build_protocol("uniform-pair", ladder, M=201, replicas=5, max_level=10)
    assert plan.levels[-1].level_index == 10
    t0 = time.perf_counter()
    with pytest.raises(ProtocolAbort) as err:
        run_protocol(energies, ModelParams(), plan, SeedSpec(1), "discrete")
    assert time.perf_counter() - t0 < 1.0
    assert err.value.level == 10 and err.value.replica is None
    assert str(err.value) == ("force level 10: expected 10^32.9 steps per walk, over the "
                              "step cap 1000000000; raise the force or the step cap")


# ------------------------------------------------------------------- estimate


def test_estimate_energy_synthetic_flip():
    stats = _level_stats_from_ratios(6, {1: [0, 0, 0.5, 0.5, 0.5, 0.5],
                                         2: [0, 0, 2.0, 2.0, 2.0, 2.0]})
    est = estimate_energy(stats, 3, TOY)
    assert est.level == 1 and est.value == 3.0 and not est.undecided


def test_estimate_energy_undecided_when_always_descending():
    stats = _level_stats_from_ratios(5, {1: [0, 0, 0.4, 0.4, 0.4],
                                         2: [0, 0, 0.5, 0.5, 0.5],
                                         3: [0, 0, 0.6, 0.6, 0.6]})
    est = estimate_energy(stats, 2, TOY)
    assert est.undecided and est.level is None and est.value is None


def test_estimate_energy_missing_level():
    stats = _level_stats_from_ratios(5, {1: [0, 0, 0.4, 0.4, 0.4]})
    with pytest.raises(ValueError, match="^no statistics for force level 2$"):
        estimate_energy(stats, 2, TOY)


def test_estimate_energy_noiseless_expected_counts(table1):
    # replace the empirical ratio by its mean e^{beta dg}: the flip must
    # recover the true level at every interior site for any level assignment
    ladder = LevelLadder.from_table(table1)
    beta = 1.0
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = 7
        levels = rng.integers(1, ladder.K + 1, size=M - 1)
        energies = [ladder.mu_at(int(m)) for m in levels]
        ratios_by_level = {}
        for i in range(1, ladder.K + 2):
            r = ladder.r_at(i)
            ratios_by_level[i] = [0.0] + [math.exp(beta * (e - r)) for e in energies]
        stats = _level_stats_from_ratios(M, ratios_by_level, scale=10**7)
        for x in range(2, M):
            est = estimate_energy(stats, x, ladder)
            assert not est.undecided
            assert est.value == pytest.approx(energies[x - 1])


def test_estimate_energy_end_to_end_small():
    ladder = LevelLadder.from_table(EnergyTable.default())
    energies = (1.78, 1.55, 1.78, 1.78, 1.55)
    plan = build_protocol("uniform-pair", ladder, M=6, replicas=1500, max_level=10)
    for seed in (1, 2):
        stats = run_protocol(energies, ModelParams(beta=1.0), plan, SeedSpec(seed), "discrete")
        for x in range(2, 6):
            est = estimate_energy(stats, x, ladder)
            assert est.value == pytest.approx(energies[x - 1]), (seed, x, est)


# ------------------------------------------------------------------- margins


def test_h_margins_nonnegative_and_toy_enumeration():
    for ladder in (TOY, LevelLadder.from_table(EnergyTable.default())):
        hm = h_margins(ladder, beta=1.0)
        assert all(h1 >= 0 and h2 >= 0 for _, h1, h2 in hm.per_pair)
        assert hm.h_forward >= 0 and hm.h_backward >= 0
    # K=2 toy ladder: hand enumeration of the displayed min over l in {k-1, k+1}
    beta = 1.0
    hm = h_margins(TOY, beta)
    mu, r = TOY.mu, TOY.r_levels
    for k in (1, 2):
        a_k = mu[k - 1] - r[k - 1]
        a_k1 = mu[k - 1] - r[k]
        ls = [l for l in (k - 1, k + 1) if 1 <= l <= 2]
        exp_k = min(
            gap_value("H", a_k, mu[l - 1] - r[k - 1], beta)
            - gap_value("H", a_k, a_k, beta)
            for l in ls
        )
        exp_k1 = min(
            gap_value("H", a_k1, mu[l - 1] - r[k], beta)
            - gap_value("H", a_k1, a_k1, beta)
            for l in ls
        )
        assert hm.per_pair[k - 1][1] == pytest.approx(exp_k, rel=1e-12)
        assert hm.per_pair[k - 1][2] == pytest.approx(exp_k1, rel=1e-12)
    assert hm.h_forward == hm.per_pair[0][1]
    assert hm.h_backward == hm.per_pair[0][2]


def test_h_margins_single_level_ladder():
    # one energy level: nothing to confuse, margins are infinite
    single = LevelLadder.from_energies([2.0])
    hm = h_margins(single, 1.0)
    assert hm.per_pair[0][1] == math.inf and hm.per_pair[0][2] == math.inf
    assert rc_energy((2.0, 2.0), 2, single, 1.0, "uniform-pair", k=1) == math.inf


def test_h_margin_grows_exponentially_with_beta():
    # H^(k+1) ~ beta exp(beta (mu_k - r_{k+1})) for the toy ladder at k = 1
    a = TOY.mu_at(1) - TOY.r_at(2)
    ratios = []
    for beta in (2.0, 4.0, 8.0):
        hm = h_margins(TOY, beta)
        ratios.append(hm.per_pair[0][2] / (beta * math.exp(beta * a)))
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1)
    assert abs(ratios[2] - 1) < abs(ratios[1] - 1)
    assert abs(ratios[2] - 1) < 0.01


# ------------------------------------------------------------------- bounds


def test_rc_energy_uniform_pair_hand_formula():
    energies = (2.0, 2.0, 2.0, 2.0)
    beta, k = 1.0, 1
    bound = rc_energy(energies, 3, TOY, beta, "uniform-pair", k=k)
    hm = h_margins(TOY, beta)
    pb = []
    for lvl in (1, 2):
        env = EnergyEnvironment(
            energies, ForceField.constant(TOY.r_at(lvl), 4), ModelParams(beta=beta)
        )
        pb.append(brute_pbar(env, 3))
    hand = hm.per_pair[0][1] * pb[0] + hm.per_pair[0][2] * pb[1]
    assert bound == pytest.approx(hand, rel=1e-10)
    assert bound > 0


def test_rc_energy_rejects_invalid_ladder():
    with pytest.raises(ValueError, match="invalid ladder"):
        dup = LevelLadder((3.0, 3.0), (4.0, 2.0, 0.0))
        rc_energy((2.0, 2.0), 2, dup, 1.0, "uniform-pair", k=1)


def test_rc_energy_absorbing_scaling_and_invariance():
    beta = 1.0
    energies = [2.0, 1.5, 2.2, 1.9, 2.1, 1.7]
    vals = [rc_energy(energies, x, TOY, beta, "absorbing-tail") for x in (2, 3, 4)]
    factor = math.exp(TOY.mu_at(TOY.K) * beta)
    assert vals[0] / vals[1] == pytest.approx(factor, rel=1e-12)
    assert vals[1] / vals[2] == pytest.approx(factor, rel=1e-12)
    # perturbing the unknown tail leaves the bound exactly unchanged
    x = 3
    before = rc_energy(energies, x, TOY, beta, "absorbing-tail")
    perturbed = list(energies)
    for z in range(x, len(energies)):
        perturbed[z] += 0.37
    after = rc_energy(perturbed, x, TOY, beta, "absorbing-tail")
    assert before == after
    assert before > 0


LONG = [1.55, 1.78] * 400  # M = 801


@pytest.mark.parametrize("scheme,k", [
    ("uniform-pair", 2),  # reads the zero force r_3, where 1/pbar_x overflows a float
    ("focus-at-x", None),
    ("absorbing-tail", None),
])
def test_rc_energy_saturates_on_800_sites(scheme, k):
    ladder = LevelLadder.from_energies(LONG)
    xs = np.arange(2, 801)
    bounds = rc_energy(LONG, xs, ladder, 1.0, scheme, k=k)
    assert bounds.shape == xs.shape and np.all(bounds > 0)
    if scheme == "absorbing-tail":
        saturated = ladder.mu_at(ladder.K) * (801 - xs) > math.log(np.finfo(float).max)
        assert saturated.any() and np.array_equal(np.isinf(bounds), saturated)
        assert rc_energy(LONG, 2, ladder, 1.0, scheme) == math.inf
    else:
        assert np.all(np.isfinite(bounds))
        assert rc_energy(LONG, 2, ladder, 1.0, scheme, k=k) == bounds[0]


@pytest.mark.parametrize("scheme", ["uniform-pair", "focus-at-x", "absorbing-tail"])
def test_rc_energy_array_equals_per_site(scheme):
    energies = np.random.default_rng(50).choice([1.55, 1.78, 2.22], size=50).tolist()
    ladder = LevelLadder.from_energies(energies)
    k = 2 if scheme == "uniform-pair" else None
    xs = np.arange(2, 51)
    bounds = rc_energy(energies, xs, ladder, 1.0, scheme, k=k)
    assert bounds.tolist() == [rc_energy(energies, x, ladder, 1.0, scheme, k=k) for x in range(2, 51)]
    with pytest.raises(IndexError, match="site index 1"):
        rc_energy(energies, np.arange(1, 51), ladder, 1.0, scheme, k=k)


@pytest.mark.parametrize("scheme", ["uniform-pair", "focus-at-x", "absorbing-tail"])
def test_rc_energy_one_level_ladder_is_infinite(scheme):
    # no wrong level to pick: the infinite margin wins even where 1/pbar overflows
    energies = [2.0] * 800
    ladder = LevelLadder.from_energies([2.0])
    k = 1 if scheme == "uniform-pair" else None
    assert rc_energy(energies, 2, ladder, 1.0, scheme, k=k) == math.inf
    bounds = rc_energy(energies, np.arange(2, 801), ladder, 1.0, scheme, k=k)
    assert bounds.shape == (799,) and np.all(bounds == math.inf)


def test_rc_energy_focus_positive_and_tail_dependent():
    beta = 1.0
    energies = [2.0, 1.5, 2.2, 1.9, 2.1, 1.7]
    x = 3
    val = rc_energy(energies, x, TOY, beta, "focus-at-x")
    assert val > 0
    perturbed = list(energies)
    perturbed[-1] += 0.5
    assert rc_energy(perturbed, x, TOY, beta, "focus-at-x") != val


# ------------------------------------------------------- energy -> sequence


def test_sequence_from_energies_unique(table1):
    res = sequence_from_energies([1.78, 1.78], table1, Base.A)
    assert [str(s) for s in res.sequences] == ["AAA"]


def test_sequence_from_energies_homopolymer_twins(table1):
    res = sequence_from_energies([3.14, 3.14, 3.14], table1, None)
    names = {str(s) for s in res.sequences}
    assert names == {"CCCC", "GGGG"} and len(res.sequences) == 2
    assert not res.truncated
    capped = sequence_from_energies([3.14, 3.14, 3.14], table1, None, cap=1)
    assert capped.sequences == res.sequences[:1]
    assert capped.truncated  # one sequence came back, and another exists
    assert not sequence_from_energies([3.14, 3.14, 3.14], table1, None, cap=2).truncated


def test_sequence_from_energies_alternation_twins(table1):
    truth = BaseSequence.from_string("ACACAC")
    energies = [table1.values[truth.base(x), truth.base(x + 1)] for x in range(1, 6)]
    with_b1 = sequence_from_energies(energies, table1, Base.A)
    assert [str(s) for s in with_b1.sequences] == ["ACACAC"]
    free = sequence_from_energies(energies, table1, None)
    assert {str(s) for s in free.sequences} == {"ACACAC", "GTGTGT"}


def test_sequence_from_energies_roundtrip_random(table1):
    rng = np.random.default_rng(99)
    for _ in range(30):
        M = int(rng.integers(3, 12))
        letters = "".join(rng.choice(list("ATCG"), size=M))
        seq = BaseSequence.from_string(letters)
        energies = [table1.values[seq.base(x), seq.base(x + 1)] for x in range(1, M)]
        res = sequence_from_energies(energies, table1, seq.base(1))
        assert [str(s) for s in res.sequences] == [letters]  # row injectivity: unique given b1
        free = sequence_from_energies(energies, table1, None)
        assert letters in {str(s) for s in free.sequences}


def test_sequence_from_energies_1200_sites(table1):
    # past the default recursion limit: the walk along the chain is iterative
    letters = "".join(np.random.default_rng(1200).choice(list("ATCG"), size=1200))
    seq = BaseSequence.from_string(letters)
    b = np.array(seq.bases)
    energies = table1.values[b[:-1], b[1:]].tolist()
    res = sequence_from_energies(energies, table1, seq.base(1))
    assert [str(s) for s in res.sequences] == [letters]
    free = sequence_from_energies(energies, table1, None)
    assert letters in {str(s) for s in free.sequences}


def test_sequence_from_energies_errors(table1):
    with pytest.raises(ValueError, match="appears nowhere"):
        sequence_from_energies([1.78, 9.99], table1, Base.A)
    # 1.06 exists in the table but not in row A
    with pytest.raises(ValueError, match="absent from row A"):
        sequence_from_energies([1.06], table1, Base.A)
    res = sequence_from_energies([1.06], table1, None)
    assert [str(s) for s in res.sequences] == ["TA"]


def test_sequence_from_energies_failed_site_with_b1_free(table1):
    # 1.06 lies only at (T, A): the walk from T reaches A at site 2, whose
    # row has no 1.06, and the other three starts die at site 1
    res = sequence_from_energies([1.06, 1.06], table1, None)
    assert res.sequences == () and res.failed_site == 2 and not res.truncated
    want = r"^energy 1.06 absent from row A at site 2 \(walking from b1 = T\)$"
    with pytest.raises(ValueError, match=want):
        sequence_from_energies([1.06, 1.06], table1, Base.T)


def test_sequence_from_energies_dead_end_past_a_fork(table1):
    # within tol = 0.16, row A forks to C and G (2.52, 2.22), and C -> G and
    # G -> C (3.85, 3.90) both go on; neither row G nor row C has 1.06, so
    # both branches die at site 3, and the first to get there is A, C, G
    energies = [2.37, 3.87, 1.06]
    fork = sequence_from_energies(energies[:2], table1, Base.A, tol=0.16)
    assert [str(s) for s in fork.sequences] == ["ACG", "AGC"]
    want = r"^energy 1.06 absent from row G at site 3 \(walking from b1 = A\)$"
    with pytest.raises(ValueError, match=want):
        sequence_from_energies(energies, table1, Base.A, tol=0.16)
    res = sequence_from_energies(energies, table1, None, tol=0.16)
    assert res.sequences == () and res.failed_site == 3
