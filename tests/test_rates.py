import math
from dataclasses import astuple

import numpy as np
import pytest

from unzipseq.energy import BASES, Base, EnergyTable, ModelParams
from unzipseq.inference import site_posterior
from unzipseq.rates import (
    count_moments,
    decision_margins,
    expected_unzip_time,
    gap_value,
    joint_up_count_log_pmf,
    lc_bound,
    log_inv_pbar,
    obstacle_height,
    pair_count_log_pmf,
    pbar,
    rate_report,
    rc_site,
)
from unzipseq.walker import (
    SeedSpec,
    simulate_ensemble,
    simulate_walk,
)

from bruteforce import brute_p_up, brute_pair_pmf, brute_pbar
from conftest import make_env, random_sequence


def test_pbar_boundary_and_flat():
    env = make_env("ATCGG", 2.2)
    assert pbar(env, env.M - 1) == 1.0
    flat = make_env("A" * 8, 1.78)
    for x in range(1, 8):
        assert 1.0 / pbar(flat, x) == pytest.approx(8 - x, rel=1e-14)


def test_pbar_matches_direct_sum_m50():
    rng = np.random.default_rng(3)
    env = make_env(random_sequence(rng, 50), 2.45, beta=0.9)
    for x in (1, 7, 25, 48, 49):
        assert pbar(env, x) == pytest.approx(brute_pbar(env, x), rel=1e-12)


def test_pbar_monotone_in_path_energies(table1):
    # raising an energy used on the path weakly decreases the escape probability
    lifted = table1.values.copy()
    lifted[Base.C, Base.G] += 0.8
    base_env = make_env("ATCGCG", 2.0)
    lifted_env = make_env("ATCGCG", 2.0, table=EnergyTable(lifted))
    for x in range(1, 6):
        assert pbar(lifted_env, x) <= pbar(base_env, x) + 1e-15


def test_count_moments_boundary_and_flat():
    env = make_env("ATCGG", 2.2)
    m = count_moments(env, env.M - 1)
    assert m.e_up == pytest.approx(1.0) and m.var_up == pytest.approx(0.0, abs=1e-12)
    flat = make_env("AAA", 1.78)
    assert count_moments(flat, 2).e_up == pytest.approx(1.0)
    assert count_moments(flat, 1).e_up == pytest.approx(2.0)
    assert count_moments(flat, 1).e_down == 0.0


def test_count_moments_internal_identities():
    # E L-_x = E L+_{x-1} - 1 ties the down-count mean to the up-count chain
    env = make_env("TAGCATC", 2.1, beta=1.2, r=0.8)
    for x in range(2, env.M):
        assert count_moments(env, x).e_down == pytest.approx(
            count_moments(env, x - 1).e_up - 1.0, rel=1e-12
        )


def test_count_moments_monte_carlo():
    env = make_env("ATCGGA", 2.2, beta=1.0, r=1.4)
    n = 20000
    ups = np.zeros((n, env.M))
    soj = np.zeros((n, env.M))
    downs = np.zeros((n, env.M))
    for rep in range(n):
        w = simulate_walk(env, "continuous", SeedSpec(61), rep)
        ups[rep] = w.up
        downs[rep] = w.down
        soj[rep] = w.sojourn
    for x in range(1, env.M):
        m = count_moments(env, x)
        # means within 4 empirical standard errors
        for emp, target in ((ups[:, x], m.e_up), (downs[:, x], m.e_down),
                            (soj[:, x], m.e_sojourn)):
            se = emp.std(ddof=1) / math.sqrt(n)
            if se > 0:
                assert abs(emp.mean() - target) < 4 * se, (x, emp.mean(), target)
        # variances: Var L+ and Var S (the total sojourn is exponential)
        for emp, target in ((ups[:, x], m.var_up), (soj[:, x], m.var_sojourn)):
            v = emp.var(ddof=1)
            m4 = np.mean((emp - emp.mean()) ** 4)
            se_var = math.sqrt(max(m4 - v * v, 0.0) / n)
            if se_var > 0:
                assert abs(v - target) < 4 * se_var, (x, v, target)


def test_joint_pmf_direct_path():
    env = make_env("ATCG", 2.0)
    direct = math.exp(joint_up_count_log_pmf(env, [1, 1, 1]))
    expected = brute_p_up(env, 2) * brute_p_up(env, 3)
    assert direct == pytest.approx(expected, rel=1e-12)


def test_joint_pmf_validation():
    env = make_env("ATCG", 2.0)
    with pytest.raises(ValueError):
        joint_up_count_log_pmf(env, [1, 1, 2])
    with pytest.raises(ValueError):
        joint_up_count_log_pmf(env, [1, 1])
    assert math.exp(joint_up_count_log_pmf(env, [0, 1, 1])) == 0.0
    assert joint_up_count_log_pmf(env, [0, 1, 1]) == -math.inf


def test_joint_pmf_normalization_flat_m4():
    env = make_env("AAAA", 1.78)
    masses = []
    for cap in (20, 40, 60):
        total = 0.0
        for k1 in range(1, cap):
            for k2 in range(1, cap):
                if k1 + k2 + 1 <= cap:
                    total += math.exp(joint_up_count_log_pmf(env, [k1, k2, 1]))
        masses.append(total)
    assert masses[0] < masses[1] < masses[2] <= 1.0 + 1e-12
    assert masses[2] >= 0.999


def test_joint_pmf_pair_marginal_matches_closed_form():
    env = make_env("ATCG", 2.0)
    x = 2
    marg: dict[tuple[int, int], float] = {}
    for k1 in range(1, 120):
        for k2 in range(1, 120):
            p = math.exp(joint_up_count_log_pmf(env, [k1, k2, 1]))
            key = (k2, k1 - 1)  # (L+_2, L-_2)
            marg[key] = marg.get(key, 0.0) + p
    for key in [(1, 0), (1, 3), (2, 1), (3, 4), (5, 2)]:
        assert marg[key] == pytest.approx(math.exp(pair_count_log_pmf(env, x, *key)), abs=1e-10)
        assert math.exp(pair_count_log_pmf(env, x, *key)) == pytest.approx(
            brute_pair_pmf(env, x, *key), rel=1e-12
        )


def test_moments_from_joint_pmf():
    # enumerate the full joint law of (L+_1, L+_2) at M = 4 and recover the
    # per-site moments by direct summation
    env = make_env("ATCG", 2.3)
    total = 0.0
    mean = np.zeros(3)
    second = np.zeros(3)
    down_mean = np.zeros(3)
    for k1 in range(1, 260):
        for k2 in range(1, 260):
            p = math.exp(joint_up_count_log_pmf(env, [k1, k2, 1]))
            total += p
            for i, k in enumerate((k1, k2, 1)):
                mean[i] += k * p
                second[i] += k * k * p
            down_mean[1] += (k1 - 1) * p  # L-_2 = L+_1 - 1
            down_mean[2] += (k2 - 1) * p
    assert total > 1 - 1e-8
    for x in (1, 2, 3):
        m = count_moments(env, x)
        assert mean[x - 1] == pytest.approx(m.e_up, rel=1e-4)
        var = second[x - 1] - mean[x - 1] ** 2
        assert var == pytest.approx(m.var_up, rel=1e-4, abs=1e-9)
        if x >= 2:
            assert down_mean[x - 1] == pytest.approx(m.e_down, rel=1e-4)


def test_gap_value_g():
    for a in (-2.0, -0.3, 0.0, 1.4):
        assert gap_value("G", a, a, 1.3) == pytest.approx(0.0, abs=1e-14)
        # zero derivative at the minimum
        eps = 1e-6
        d = (gap_value("G", a, a + eps, 1.3) - gap_value("G", a, a - eps, 1.3)) / (2 * eps)
        assert abs(d) < 1e-5
    grid = np.linspace(-5, 5, 41)
    for beta in (0.5, 1.0, 2.0):
        for a in grid:
            for u in grid:
                v = gap_value("G", a, u, beta)
                assert v >= -1e-14
                if abs(u - a) > 1e-9:
                    assert v > 0.0
    # at |d| = beta |u - a| = 1 exactly the logaddexp form is taken, and the
    # expm1 form agrees with it; scalars and 0-d arrays give 0-d results equal
    # to those of the arrays they come from
    a = np.array([-2.0, -0.5, 0.0, 1.5])
    for beta, step in ((1.0, 1.0), (1.0, -1.0), (2.0, 0.5), (2.0, -0.5)):
        x, bu = beta * a, beta * (a + step)
        far = (np.logaddexp(0.0, bu) - np.logaddexp(0.0, x)
               + np.exp(x) * (np.logaddexp(0.0, -bu) - np.logaddexp(0.0, -x)))
        sig = 1.0 / (1.0 + np.exp(-x))
        d = bu - x
        near = np.log1p(np.expm1(d) * sig) + np.exp(x) * np.log1p(np.expm1(-d) * (1.0 - sig))
        got = gap_value("G", a, a + step, beta)
        assert np.array_equal(got, far) and np.allclose(got, near, rtol=1e-12, atol=0.0)
        # and broadcast against a column of separations on both sides of 1
        steps = np.array([[step * 0.999], [step], [step * 1.001]])
        grid = gap_value("G", a, a + steps, beta)
        assert grid.shape == (3, 4) and np.array_equal(grid[1], got)
        for i, ai in enumerate(a.tolist()):
            for ui in (ai + step, np.array(ai + step)):
                v = gap_value("G", np.array(ai) if i % 2 else ai, ui, beta)
                assert np.ndim(v) == 0 and v == got[i]
                for row in range(3):
                    assert gap_value("G", ai, ai + float(steps[row, 0]), beta) == grid[row, i]


def test_gap_value_f_and_h():
    assert gap_value("F", 0.0, 0.0, 1.0) == 0.0
    for u in (-3.0, -0.1, 0.2, 4.0):
        assert gap_value("F", 0.0, u, 1.0) > 0.0
    grid = np.linspace(-5, 5, 41)
    for beta in (0.5, 1.0, 2.0):
        for a in grid:
            base = gap_value("H", a, a, beta)
            for u in grid:
                diff = gap_value("H", a, u, beta) - base
                assert diff >= -1e-12
                if abs(u - a) > 1e-9:
                    assert diff > 0.0
    with pytest.raises(ValueError):
        gap_value("Q", 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gap_value("F", 0.0, 0.0, 0.0)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_margins_at_tiny_separations(table1, mode):
    # row A with g0(A, T) = g0(A, A) + delta: its margin is about
    # beta^2/2 sigma(beta a) delta^2 in discrete time (a = g0 - g1) and
    # beta^2/2 delta^2 in continuous time.  A G gap formed as a difference of
    # logaddexp terms gave -2.4e-16 at delta = 1e-8, a degenerate table
    beta, g1 = 1.0, 1.5
    for k in range(6, 13):
        values = table1.values.copy()
        values[Base.A, Base.T] = values[Base.A, Base.A] + 10.0**-k
        delta = values[Base.A, Base.T] - values[Base.A, Base.A]
        margins = decision_margins(EnergyTable(values), beta, g1=g1, mode=mode)
        a = values[Base.A, Base.A] - g1
        scale = 1.0 / (1.0 + math.exp(-beta * a)) if mode == "discrete" else 1.0
        want = 0.5 * beta**2 * scale * delta**2
        got = margins.minus_per_base[Base.A]
        assert got > 0.0 and not margins.degenerate, (k, got)
        # 1e-6 for the quadratic's error, plus the rounding of the two
        # first-order terms of size delta that cancel
        assert abs(got / want - 1.0) < 1e-6 + 4 * np.finfo(float).eps / delta, (k, got, want)


def test_decision_margins_constant_table():
    margins = decision_margins(EnergyTable(np.full((4, 4), 2.0)), 1.0, mode="continuous")
    assert margins.minus == 0.0 and margins.plus == 0.0
    assert margins.degenerate


def test_decision_margins_table1_brute(table1):
    margins = decision_margins(table1, 1.0, mode="continuous")
    # brute-force enumeration of all 4 rows x 12 ordered pairs
    best = math.inf
    for gamma in BASES:
        for u in BASES:
            for v in BASES:
                if u != v:
                    d = table1.values[gamma, u] - table1.values[gamma, v]
                    best = min(best, math.exp(d) - 1.0 - d)
    assert margins.minus == pytest.approx(best, rel=1e-12)
    assert not margins.degenerate
    assert all(v > 0 for v in margins.minus_per_base.values())
    # F margins ignore the stretch work entirely
    assert decision_margins(table1, 1.0, g1=2.5, mode="continuous").minus == margins.minus
    # G margins do not, and margins change with beta
    g_lo = decision_margins(table1, 1.0, g1=1.0, mode="discrete")
    g_hi = decision_margins(table1, 1.0, g1=3.0, mode="discrete")
    assert g_lo.minus != g_hi.minus
    assert decision_margins(table1, 2.0, mode="continuous").minus != margins.minus


def test_rc_site_degenerate_and_positive(table1):
    flat_env = make_env("ATCG", 2.0, table=EnergyTable(np.full((4, 4), 2.0)))
    assert rc_site(flat_env, 2, "discrete") == 0.0
    assert rc_site(flat_env, 2, "continuous") == 0.0
    env = make_env("ATCGGTACGG", 2.3)
    for x in range(2, env.M):
        assert rc_site(env, x, "discrete") > 0.0
        assert rc_site(env, x, "continuous") > 0.0
    with pytest.raises(IndexError):
        rc_site(env, 1, "discrete")
    with pytest.raises(IndexError):
        rc_site(env, env.M, "discrete")


def test_rc_site_obstacle_lower_bound():
    env = make_env("ATCGGTACGG", 2.3)
    for mode in ("discrete", "continuous"):
        margins = decision_margins(env.table, env.beta, g1=2.3, mode=mode)
        for x in range(3, env.M - 1):
            bound = margins.minus * math.exp(
                env.beta * obstacle_height(env, x - 1)
            ) + margins.plus * math.exp(env.beta * obstacle_height(env, x))
            assert rc_site(env, x, mode) >= bound - 1e-12, (mode, x)


def test_lc_bound(table1):
    assert lc_bound(EnergyTable(np.full((4, 4), 1.0)), 1.0, "continuous") == 0.0
    m = decision_margins(table1, 1.0, mode="continuous")
    assert lc_bound(table1, 1.0, "continuous") == 0.5 * min(m.plus, m.minus)
    assert lc_bound(table1, 2.0, "continuous") > lc_bound(table1, 1.0, "continuous")


def test_obstacle_height():
    flat = make_env("AAAA", 1.78)
    for x in range(0, 3):
        assert obstacle_height(flat, x) == pytest.approx(0.0, abs=1e-14)
    # strictly decreasing landscape: the max is the first (least negative) step
    down = make_env("AAAA", 2.5)
    g = down.profile
    for x in range(0, 3):
        assert obstacle_height(down, x) == pytest.approx(g[x + 1] - g[x], rel=1e-12)
    # a valley followed by a rebound of height d above the start
    valley = make_env("TATAGCGC", [2.5, 2.5, 2.5, 0.2, 0.2, 0.2, 0.2])
    g = valley.profile
    d = max(g[k] for k in range(1, 8)) - g[0]
    assert obstacle_height(valley, 0) == pytest.approx(d, rel=1e-12)
    with pytest.raises(IndexError):
        obstacle_height(flat, 3)


def test_expected_unzip_time_closed_forms():
    env2 = make_env("AT", 1.0)
    t = expected_unzip_time(env2, 7)
    assert t.expectation == pytest.approx(7.0)
    # flat landscape: 1/pbar_x = M - x gives E tau = (M-1)^2 per walk
    flat = make_env("A" * 9, 1.78)
    t = expected_unzip_time(flat, 3)
    assert t.expectation == pytest.approx(3 * 8 * 8, rel=1e-12)
    with pytest.raises(ValueError):
        expected_unzip_time(flat, 0)


def test_expected_unzip_time_monte_carlo():
    env = make_env("ATCGGTACGG", 2.3)
    R = 10000
    steps = np.array(
        [simulate_walk(env, "discrete", SeedSpec(71), rep).steps for rep in range(R)],
        dtype=float,
    )
    expect = expected_unzip_time(env, R).expectation
    se = steps.std(ddof=1) * math.sqrt(R)  # se of the sum
    assert abs(steps.sum() - expect) < 4 * se


def test_rate_report(table1):
    env = make_env("ATCGGA", 2.2)
    rep = rate_report(env, R=5)
    assert rep.M == env.M
    assert math.isnan(rep.inv_rc_discrete[1])
    for x in range(2, env.M):
        assert rep.inv_rc_discrete[x] == pytest.approx(rc_site(env, x, "discrete"))
        assert rep.inv_rc_continuous[x] == pytest.approx(rc_site(env, x, "continuous"))
    assert math.isnan(rep.obstacle[env.M - 1])
    assert rep.time.expectation == pytest.approx(expected_unzip_time(env, 5).expectation)
    doc = rep.to_json_dict()
    assert len(doc["pbar"]) == env.M - 1
    # non-constant force: discrete L_c bound is undefined
    varied = make_env("ATCGGA", [2.0, 2.1, 2.2, 2.3, 2.4])
    assert math.isnan(rate_report(varied, R=1).inv_lc_discrete)


def test_rate_report_saturates_on_deep_landscape():
    # a 1000-site homopolymer pulled weakly: 1/pbar_1 ~ e^779, past any float
    env = make_env("A" * 1000, 1.0)
    rep = rate_report(env, R=1)
    assert rep.pbar[1] == 0.0 and rep.pbar[999] == 1.0
    assert math.isinf(rep.e_up[1]) and math.isinf(rep.e_sojourn[1])
    assert math.isinf(rep.time.expectation)
    # E = 2 sum_x 1/pbar_x - (M - 1), the last term far below the first's ulp
    lips = [log_inv_pbar(env, x) for x in range(1, env.M)]
    assert rep.time.log_expectation == pytest.approx(math.log(2.0) + np.logaddexp.reduce(lips))
    assert np.all(rep.inv_rc_continuous[2:] > 0)
    assert not np.any(np.isnan(rep.inv_rc_discrete[2:]))
    assert math.isinf(count_moments(env, 1).e_up)
    assert math.isinf(rc_site(env, 2, "continuous"))


def test_rate_report_matches_per_site_functions():
    rng = np.random.default_rng(8)
    env = make_env(random_sequence(rng, 40), 2.6, beta=1.1, r=0.7)
    rep = rate_report(env, R=3)
    for x in range(1, env.M):
        m = count_moments(env, x)
        assert rep.pbar[x] == pytest.approx(brute_pbar(env, x), rel=1e-12)
        columns = (rep.e_up, rep.var_up, rep.e_down, rep.e_sojourn, rep.var_sojourn)
        assert tuple(c[x] for c in columns) == astuple(m)
        if x <= env.M - 2:
            brute_obstacle = max(env.profile[k] - env.profile[x] for k in range(x + 1, env.M))
            assert rep.obstacle[x] == brute_obstacle
    steps = 3 * sum(1 / brute_pbar(env, x - 1) if x > 1 else 1.0 for x in range(1, env.M))
    steps += 3 * sum(1 / brute_pbar(env, x) - 1 for x in range(1, env.M))
    assert rep.time.expectation == pytest.approx(steps, rel=1e-12)


ENV40 = make_env(random_sequence(np.random.default_rng(40), 40), 2.4, beta=1.1, r=0.8)
STATS40 = simulate_ensemble(ENV40, 6, "continuous", SeedSpec(40))


def _posterior_fields(post):
    return (post.site, post.log_unnormalized, post.probs, post.map_base, post.tie,
            post.p_error, post.log_p_error)


# name: (x -> the result at x as a tuple of fields, first site, last site)
SITE_FUNCTIONS = {
    "log_inv_pbar": (lambda x: (log_inv_pbar(ENV40, x),), 1, 39),
    "pbar": (lambda x: (pbar(ENV40, x),), 1, 39),
    "count_moments": (lambda x: astuple(count_moments(ENV40, x)), 1, 39),
    "rc_site-discrete": (lambda x: (rc_site(ENV40, x, "discrete"),), 2, 39),
    "rc_site-continuous": (lambda x: (rc_site(ENV40, x, "continuous"),), 2, 39),
    "obstacle_height": (lambda x: (obstacle_height(ENV40, x),), 0, 38),
    "site_posterior": (
        lambda x: _posterior_fields(site_posterior(STATS40, ENV40, x)), 2, 39
    ),
}


@pytest.mark.parametrize("name", SITE_FUNCTIONS)
def test_site_function_array_equals_per_site(name):
    f, lo, hi = SITE_FUNCTIONS[name]
    xs = np.arange(lo, hi + 1)
    columns = f(xs)
    for i, x in enumerate(xs.tolist()):
        fields = f(x)
        assert len(fields) == len(columns)
        for column, value in zip(columns, fields):
            # a site gives plain Python scalars (or one (4,) row per posterior field)
            assert type(value) in (float, int, bool, Base) or value.shape == (4,), (name, x)
            assert np.array_equal(column[i], value), (name, x)


@pytest.mark.parametrize("name", SITE_FUNCTIONS)
def test_site_function_rejects_any_site_out_of_range(name):
    f, lo, hi = SITE_FUNCTIONS[name]
    inside = np.arange(lo, hi + 1)
    for bad, xs in ((lo - 1, np.append(inside, lo - 1)), (hi + 1, np.insert(inside, 5, hi + 1))):
        with pytest.raises(IndexError, match=f"site index {bad} out of range"):
            f(xs)
        with pytest.raises(IndexError, match=f"site index {bad} out of range"):
            f(bad)
