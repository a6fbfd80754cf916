"""Closed-form escape probabilities, count moments and error-rate constants.

Everything here is analytic: the escape probability p_bar_x, the exact
distribution of the crossing counts (the Monte Carlo oracle for the walker),
the gap functions G/F/H that price a wrong base against the right one, the
per-site error decay rate 1/R_c and its landscape bounds, and the expected
total unzipping time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .energy import BASES, Base, EnergyTable, Environment, _check_sites, _per_site, _SiteModel
from .walker import _require_mode

__all__ = [
    "pbar",
    "log_inv_pbar",
    "SiteMoments",
    "count_moments",
    "joint_up_count_log_pmf",
    "pair_count_log_pmf",
    "gap_value",
    "MarginSet",
    "decision_margins",
    "rc_site",
    "lc_bound",
    "obstacle_height",
    "UnzipTime",
    "expected_unzip_time",
    "RateReport",
    "rate_report",
]


def log_inv_pbar(env: _SiteModel, x):
    """log(1 / p_bar_x) at a site (a float) or an array of sites (an array),
    read from the landscape's site-indexed table.

    1 / p_bar_x = 1 + sum_{k=x+1..M-1} exp(beta * (g(k) - g(x))); p_bar_x is
    the probability that a walk at x+1 reaches M before falling back to x.
    """
    xs = _check_sites(x, 1, env.M - 1)
    return _per_site(xs, env.log_inv_pbar[xs])


def pbar(env: _SiteModel, x):
    """Escape probability p_bar_x in (0, 1] at a site or an array of sites;
    equals 1 at x = M-1."""
    xs = _check_sites(x, 1, env.M - 1)
    return _per_site(xs, np.exp(-env.log_inv_pbar[xs]))


@dataclass(frozen=True)
class SiteMoments:
    """Exact mean/variance of the per-walk crossing counts and sojourn at x:
    floats for a site, site-aligned arrays for an array of sites."""

    e_up: float | np.ndarray
    var_up: float | np.ndarray
    e_down: float | np.ndarray
    e_sojourn: float | np.ndarray
    var_sojourn: float | np.ndarray


def count_moments(env: _SiteModel, x) -> SiteMoments:
    """Moments of L+_x, L-_x and S_x for a single walk, at a site or an
    array of sites.

    E L+ = 1/p_bar, Var L+ = (1/p_bar)(1/p_bar - 1), E L- = e^(beta dg)/p_bar
    (zero at x = 1, where the walk cannot descend), E S = e^(beta g0)/(r p_bar).
    The total sojourn at x is a geometric sum of exponentials, hence itself
    exponential, so Var S = (E S)^2.  Values too large for a float are inf.
    """
    xs = _check_sites(x, 1, env.M - 1)
    lip = env.log_inv_pbar[xs]
    g0 = env.edge_g0[xs]
    with np.errstate(over="ignore"):
        ip = np.exp(lip)
        e_down = np.where(xs == 1, 0.0, np.exp(env.beta * (g0 - env.g1_padded[xs]) + lip))
        e_s = np.exp(env.beta * g0 + lip) / env.rate
        moments = (ip, ip * (ip - 1.0), e_down, e_s, e_s * e_s)
    return SiteMoments(*(_per_site(xs, m) for m in moments))


def joint_up_count_log_pmf(env: _SiteModel, k) -> float:
    """log P(L+ = k) for one walk; k lists counts for sites 1..M-1.

    The law factorizes into negative-binomial conditionals along the chain:
    product over x = 2..M-1 of C(k_x + k_{x-1} - 2, k_x - 1) p_x^{k_x}
    (1-p_x)^{k_{x-1}-1}, with k_{M-1} = 1 (the last edge is crossed once).
    """
    k = [int(v) for v in k]
    if len(k) != env.M - 1:
        raise ValueError(f"need {env.M - 1} counts, got {len(k)}")
    if k[-1] != 1:
        raise ValueError(f"k at site M-1 must be 1, got {k[-1]}")
    if any(v < 1 for v in k):
        return -math.inf
    z = env.beta * (env.edge_g0 - env.g1_padded)  # log p_x = -log(1 + e^z)
    lp, l1p = (-np.logaddexp(0.0, z)).tolist(), (-np.logaddexp(0.0, -z)).tolist()
    total = 0.0
    for x in range(2, env.M):
        kx, kprev = k[x - 1], k[x - 2]
        total += (
            lgamma(kx + kprev - 1)
            - lgamma(kx)
            - lgamma(kprev)
            + kx * lp[x]
            + (kprev - 1) * l1p[x]
        )
    return total


def pair_count_log_pmf(env: _SiteModel, x: int, n_up: int, n_down: int) -> float:
    """log P(L+_x = n_up, L-_x = n_down) for one walk, 2 <= x <= M-1.

    Closed form: C(a+c-1, a-1) (1-p_x)^c (p_x(1-pbar_x))^{a-1} (p_x pbar_x)
    with a = n_up, c = n_down.
    """
    _check_sites(x, 2, env.M - 1)
    a, c = int(n_up), int(n_down)
    if a < 1 or c < 0:
        return -math.inf
    z = env.beta * (env.edge_g0[x] - env.g1_padded[x])  # log p_x = -log(1 + e^z)
    lp, l1p = -float(np.logaddexp(0.0, z)), -float(np.logaddexp(0.0, -z))
    lip = float(env.log_inv_pbar[x])
    total = lgamma(a + c) - lgamma(a) - lgamma(c + 1) + c * l1p + lp - lip
    if a > 1:
        # log(1 - pbar_x), accurate at either end of (0, 1]; -inf at pbar_x = 1
        with np.errstate(divide="ignore"):
            if lip < math.log(2.0):
                log_1m_pbar = float(np.log(-np.expm1(-lip)))
            else:
                log_1m_pbar = math.log1p(-math.exp(-lip))
        total += (a - 1) * (lp + log_1m_pbar)
    return total


def gap_value(kind: str, a, u, beta: float):
    """The gap functions scoring a candidate energy u against the truth a.

    kind "G" (discrete counts): G_a(u) = log((1+e^{bu})/(1+e^{ba}))
      + e^{ba} log((1+e^{-bu})/(1+e^{-ba})); zero iff u = a.
    kind "F" (continuous): F(u) = e^{bu} - 1 - bu, with a ignored.
    kind "H" (force-ladder counts): H_a(u) = log(1+e^{bu}) + e^{ba} log(1+e^{-bu}),
      minimized at u = a.
    ``a`` and ``u`` may be arrays; they broadcast.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if kind == "G":
        x, d, bu = np.broadcast_arrays(beta * a, beta * (u - a), beta * u)
        # near the minimum the logaddexp differences cancel (a separation of
        # 1e-8 rounds the gap to <= 0), so there each softplus difference is
        # log1p(expm1(+-d) sigma(+-x)); past |d| = 1, where expm1 may
        # overflow, they no longer cancel.  Each form runs on its own elements
        close = np.abs(d) < 1.0
        out = np.empty(close.shape)
        xc, dc = x[close], d[close]
        ex = np.exp(xc)
        sig_neg = 1.0 / (1.0 + ex)  # sigma(-x); sigma(x) = ex sigma(-x)
        out[close] = (np.log1p(np.expm1(dc) * (ex * sig_neg))
                      + ex * np.log1p(np.expm1(-dc) * sig_neg))
        far = ~close
        xf, bf = x[far], bu[far]
        out[far] = (np.logaddexp(0.0, bf) - np.logaddexp(0.0, xf)
                    + np.exp(xf) * (np.logaddexp(0.0, -bf) - np.logaddexp(0.0, -xf)))
        return out[()]
    if kind == "F":
        return np.expm1(beta * u) - beta * u
    if kind == "H":
        return np.logaddexp(0.0, beta * u) + np.exp(beta * a) * np.logaddexp(0.0, -beta * u)
    raise ValueError(f"kind must be 'G', 'F' or 'H', got {kind!r}")


@dataclass(frozen=True)
class MarginSet:
    """Smallest decision gaps per flanking base, and their global minima.

    minus(gamma) prices the worst confusion within row gamma (base gamma on
    the left of the edge), plus(gamma) within column gamma.  The margins are
    the injectivity check: bases are recoverable only if g0 is injective in
    each argument, and a row's or column's margin is 0 exactly when two of
    its energies collide.  The gaps grow like the square of the separation,
    so entries an ulp apart can also round to a margin of 0.
    ``degenerate`` flags any such margin; the theory then gives
    R_c = infinity rather than an error.
    """

    mode: str
    minus_per_base: dict[Base, float]
    plus_per_base: dict[Base, float]
    minus: float
    plus: float
    degenerate: bool


def _pair_gap(mode: str, true_e, cand_e, beta: float, g1):
    if mode == "discrete":
        return gap_value("G", true_e - g1, cand_e - g1, beta)
    return gap_value("F", 0.0, true_e - cand_e, beta)


def decision_margins(table: EnergyTable, beta: float, g1: float = 0.0, *, mode: str) -> MarginSet:
    """Enumerate the <= 12 competing ordered pairs per slot and take minima.

    minus(gamma) = min over u != v of gap(g0(gamma,u) vs g0(gamma,v));
    plus(gamma) = the column version; globals are minima over gamma.  The
    discrete gaps depend on the stretch work g1 through dg = g0 - g1.
    """
    _require_mode(mode)
    off_diagonal = ~np.eye(4, dtype=bool)
    per_base = []
    for slots in (table.values, table.values.T):  # rows (minus), then columns (plus)
        gaps = _pair_gap(mode, slots[:, :, None], slots[:, None, :], beta, g1)
        per_base.append({b: float(v) for b, v in zip(BASES, gaps[:, off_diagonal].min(axis=1))})
    minus_pb, plus_pb = per_base
    minus = min(minus_pb.values())
    plus = min(plus_pb.values())
    return MarginSet(
        mode=mode,
        minus_per_base=minus_pb,
        plus_per_base=plus_pb,
        minus=minus,
        plus=plus,
        degenerate=(minus <= 0.0 or plus <= 0.0),
    )


def rc_site(env: Environment, x, mode: str):
    """Exact decay rate 1/R_c(x) of the site-x error probability, at a site
    (a float) or an array of sites (an array).

    -(1/R) log P(b_x wrong) converges to the smallest, over the three
    competing bases alpha, of the two-edge gap sum
        gap(edge x-1; b_x vs alpha) / pbar_{x-1} + gap(edge x; b_x vs alpha) / pbar_x.
    In discrete mode edge 1 carries no information (transitions out of site 1
    are deterministic), so its term vanishes when x = 2.
    """
    site = _check_sites(x, 2, env.M - 1)
    _require_mode(mode)
    xs = np.atleast_1d(site)
    b = env.seq.array  # b[x - 1] is the base at site x
    prev, here, nxt = b[xs - 2], b[xs - 1], b[xs]
    g0 = env.table.values
    g1 = env.g1_padded
    left = _pair_gap(mode, g0[prev, here][:, None], g0[prev], env.beta, g1[xs - 1][:, None])
    right = _pair_gap(mode, g0[here, nxt][:, None], g0[:, nxt].T, env.beta, g1[xs][:, None])
    if mode == "discrete":
        left[xs == 2] = 0.0  # edge 1 carries no information in discrete time
    with np.errstate(over="ignore", invalid="ignore"):
        ip = np.exp(env.log_inv_pbar)  # inf in landscapes too deep for a float
        # a zero gap stays zero even where 1/p_bar is inf
        total = np.where(left > 0, left * ip[xs - 1][:, None], 0.0) + np.where(
            right > 0, right * ip[xs][:, None], 0.0
        )
    total[np.arange(xs.size), here] = np.inf
    return _per_site(site, total.min(axis=1).reshape(site.shape))


def lc_bound(table: EnergyTable, beta: float, mode: str, g1: float = 0.0) -> float:
    """Lower bound on 1/L_c, the error decay rate per visit: half the
    smaller of the two global margins."""
    margins = decision_margins(table, beta, g1=g1, mode=mode)
    return 0.5 * min(margins.plus, margins.minus)


def obstacle_height(env: _SiteModel, x):
    """M_x = max over l in (x, M-1] of g(l) - g(x); the barrier past x, at a
    site (a float) or an array of sites in [0, M-2] (an array), from one
    reverse cumulative max of the landscape.

    1/pbar_x >= exp(beta * M_x): obstacles between x and the end make the
    walk revisit x often, which sharpens the inference there.
    """
    xs = _check_sites(x, 0, env.M - 2)
    g = env.profile
    return _per_site(xs, (np.maximum.accumulate(g[:0:-1])[::-1] - g[:-1])[xs])


@dataclass(frozen=True)
class UnzipTime:
    """Expected total steps to unzip R times, with the displayed landscape
    bounds reported verbatim as diagnostics (their hidden constants are not
    modelled, so no ordering against the expectation is implied).

    Values too large for a float are inf; ``log_expectation`` stays finite.
    """

    lower: float
    expectation: float
    upper: float
    log_expectation: float


def expected_unzip_time(env: _SiteModel, R: int) -> UnzipTime:
    """E[tau_M^R] = R * sum_{x=1..M-1} (1/pbar_{x-1} + 1/pbar_x - 1), with
    1/pbar_0 = 1 (site 1 is crossed upward on first touch); the per-walk sum
    is the landscape's ``log_steps_per_walk``.
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    log_walk = env.log_steps_per_walk
    barrier = float(np.max(obstacle_height(env, np.arange(env.M - 1))))
    with np.errstate(over="ignore"):
        per_walk, scale = np.exp([log_walk, env.beta * barrier])
    return UnzipTime(
        lower=float(R * scale),
        expectation=float(R * per_walk),
        upper=float(R * env.M * scale),
        log_expectation=math.log(R) + log_walk,
    )


@dataclass(frozen=True)
class RateReport:
    """Per-site analytic summary plus the global bounds; arrays are
    site-indexed with slot 0 unused, NaN where a quantity is undefined."""

    pbar: np.ndarray
    inv_rc_discrete: np.ndarray
    inv_rc_continuous: np.ndarray
    obstacle: np.ndarray
    e_up: np.ndarray
    var_up: np.ndarray
    e_down: np.ndarray
    e_sojourn: np.ndarray
    var_sojourn: np.ndarray
    inv_lc_discrete: float
    inv_lc_continuous: float
    time: UnzipTime
    R: int

    @property
    def M(self) -> int:
        return self.pbar.size

    CSV_HEADER = (
        "site",
        "pbar",
        "inv_rc_discrete",
        "inv_rc_continuous",
        "obstacle",
        "e_up",
        "var_up",
        "e_down",
        "e_sojourn",
        "var_sojourn",
    )

    def to_json_dict(self) -> dict:
        """Per-site columns as arrays over sites 1..M-1 (NaN where undefined)."""
        doc = {"site": list(range(1, self.M)), "R": self.R}
        doc.update((n, getattr(self, n)[1:]) for n in self.CSV_HEADER[1:])
        doc["inv_lc_discrete"] = self.inv_lc_discrete
        doc["inv_lc_continuous"] = self.inv_lc_continuous
        doc["time_lower"] = self.time.lower
        doc["time_expectation"] = self.time.expectation
        doc["time_upper"] = self.time.upper
        return doc


def _margin_g1(env: Environment, mode: str) -> float | None:
    """The stretch work the margins of ``mode`` are taken at: the discrete
    margins need one constant g1 across the field (None when it varies);
    the continuous margins do not read it."""
    if mode == "continuous":
        return 0.0
    field = env.force.per_site
    return float(field[0]) if np.all(field == field[0]) else None


def rate_report(env: Environment, R: int = 1) -> RateReport:
    """Assemble the per-site analytic report for a base-sequence environment.

    The discrete L_c bound needs a constant stretch work; it is NaN when the
    force field varies across sites.
    """
    M = env.M
    nan = float("nan")

    def site_array(values, first: int) -> np.ndarray:
        arr = np.full(M, nan)
        arr[first : first + len(values)] = values
        return arr

    sites = np.arange(1, M)
    inner = np.arange(2, M)
    m = count_moments(env, sites)
    g1 = _margin_g1(env, "discrete")
    lc_d = nan if g1 is None else lc_bound(env.table, env.beta, "discrete", g1=g1)
    lc_c = lc_bound(env.table, env.beta, "continuous")
    return RateReport(
        pbar=site_array(pbar(env, sites), 1),
        inv_rc_discrete=site_array(rc_site(env, inner, "discrete"), 2),
        inv_rc_continuous=site_array(rc_site(env, inner, "continuous"), 2),
        obstacle=site_array(obstacle_height(env, sites[:-1]), 1),
        e_up=site_array(m.e_up, 1),
        var_up=site_array(m.var_up, 1),
        e_down=site_array(m.e_down, 1),
        e_sojourn=site_array(m.e_sojourn, 1),
        var_sojourn=site_array(m.var_sojourn, 1),
        inv_lc_discrete=lc_d,
        inv_lc_continuous=lc_c,
        time=expected_unzip_time(env, R),
        R=R,
    )
