"""Exact Bayesian inference of the base sequence from crossing statistics.

The likelihood of the observed sufficient statistics factorizes over edges of
the chain, so the posterior over sequences is a chain graphical model with
one central object, the (M, 4, 4) edge-potential tensor phi.  Everything
inferred is a sum or a minimum over it: site posteriors are slices of phi,
the global MAP comes from min-sum dynamic programming with an iterative
traceback, and the partition function and the error probabilities (at least
one wrong base, at least h separated error blocks, relative to the decoded
sequence) from one log-space forward sweep.

All likelihood arithmetic is done in log-space; no R-fold products are ever
formed, so the formulas stay exact up to R ~ 1e7 replicas and error
probabilities far below the smallest positive float remain representable
through their logarithms.  Ties are decided within a tolerance scaled to the
magnitude of the costs compared, so the rounding of sums of 1e5-1e10 sized
terms never splits a true tie nor hides the optimum.

The time model is the one the statistics record (``stats.mode``), fixed by
the experiment that produced them.  In discrete time, transitions out of
site 1 are deterministic (p_1 = 1), so edge 1 contributes no cost; in
continuous time the sojourn at site 1 is informative and edge 1 enters like
any other.  The discrete model runs on continuous statistics through their
discrete view, ``dataclasses.replace(stats, mode="discrete", sojourn=None,
wall_time=None)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .energy import BASES, Base, BaseSequence, Environment, _check_sites, _per_site
from .energy import _require_numbers, _start_bases, _trellis_paths
from .walker import AggregateStats, _require_mode

__all__ = [
    "Prior",
    "SitePosterior",
    "DecodeResult",
    "ErrorReport",
    "RateFit",
    "site_posterior",
    "build_edge_potentials",
    "decode_map",
    "log_partition",
    "sequence_log_posterior",
    "log_block_probs",
    "error_report",
    "empirical_rate_from_logs",
]

# Two costs are tied when they differ by at most this many ulps of the
# magnitudes summed into them (per summed term, see _edge_scale).  The
# degenerate twins tie bit for bit; this absorbs the rounding of sums whose
# terms reach 1e10 at R ~ 1e7, where any fixed absolute tolerance either
# splits true ties or, worse, drops the optimum itself.
_TIE_ULPS = 8.0
# decode_map's backward pass turns this many edges of phi into Python floats
# at a time, and the forward sweep builds its subtrahends for this many sites
# at a time, so their scratch stays small at any M
_DECODE_ROWS = 256


@dataclass(frozen=True)
class Prior:
    """Independent per-site prior over bases; default is uniform 1/4.

    ``probs`` has shape (M+1, 4) with row x for site x (row 0 unused); every
    row must be finite, strictly positive and sum to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] < 3:
            raise ValueError(f"prior must have shape (M+1, 4), got {arr.shape}")
        body = arr[1:]
        if not np.all(np.isfinite(body) & (body > 0.0)):
            raise ValueError("prior weights must be finite and strictly positive")
        if not np.all(np.abs(body.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("each site's prior weights must sum to 1 (tol 1e-12)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, M: int) -> "Prior":
        return cls(np.full((M + 1, 4), 0.25))

    @classmethod
    def iid(cls, weights: Sequence[float], M: int) -> "Prior":
        """Same four weights at every site; numbers only, as numpy would
        also read a string or a bool as a weight."""
        _require_numbers("weights", weights)
        w = np.asarray(weights, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # __post_init__ refuses the result
            return cls(np.tile(w / w.sum(), (M + 1, 1)))

    @property
    def M(self) -> int:
        return self.probs.shape[0] - 1


def build_edge_potentials(
    stats: AggregateStats,
    env: Environment,
    prior: Prior | None = None,
) -> np.ndarray:
    """The edge potentials phi, per-edge 4x4 log-cost tables that decompose
    the global information I: phi has shape (M, 4, 4) with slot 0 unused,
    and the cost of a full sequence alpha is exactly
    I(alpha) = sum_x phi[x, alpha_x, alpha_{x+1}], prior terms included.

    The log-likelihood cost of edge x holding the pair (u, v) is, with
    z = beta (g0(u, v) - g1_x), in the time model of ``stats.mode``:
    discrete, L+_x log(1 + e^z) + L-_x log(1 + e^-z), and zero on edge 1
    because the walk leaves site 1 with probability one;
    continuous, beta g0(u, v) L+_x + S_x r e^{-beta g0(u, v)}.
    Edge x then carries -log prior(x+1, v), and edge 1 also -log prior(1, u).
    Statistics or a prior over another number of sites than ``env`` are
    refused.
    """
    _require_mode(stats.mode)
    if prior is None:
        prior = Prior.uniform(env.M)
    for what, M in (("statistics", stats.M), ("prior", prior.M)):
        if M != env.M:
            raise ValueError(f"{what}: M = {M} does not match environment M = {env.M}")
    g0 = env.table.values[None, :, :]
    up = np.asarray(stats.up, dtype=float)[1:, None, None]
    if stats.mode == "discrete":
        down = np.asarray(stats.down, dtype=float)[1:, None, None]
        z = env.beta * (g0 - env.g1_padded[1:, None, None])
        cost = up * np.logaddexp(0.0, z) + down * np.logaddexp(0.0, -z)
        cost[0] = 0.0
    else:
        if stats.sojourn is None:
            raise ValueError("continuous-mode inference needs sojourn statistics")
        sojourn = np.asarray(stats.sojourn, dtype=float)[1:, None, None]
        cost = env.beta * g0 * up + sojourn * env.rate * np.exp(-env.beta * g0)
    log_w = np.log(prior.probs)
    phi = np.zeros((env.M, 4, 4))
    phi[1:] = cost - log_w[2:, None, :]
    phi[1] -= log_w[1][:, None]
    return phi


def _edge_scale(phi: np.ndarray) -> np.ndarray:
    """Largest |phi| per edge (slot 0 zero): the magnitude a tie test on a
    sum of these terms must allow for."""
    scale = np.abs(phi).max(axis=(1, 2))
    scale[0] = 0.0
    return scale


@dataclass(frozen=True)
class SitePosterior:
    """Posterior over the base at a site, or at each of an array of sites,
    given the true flanking bases.

    For one site: ``log_unnormalized`` and ``probs`` have shape (4,), indexed
    by Base; ``map_base`` is a Base, ``tie`` a bool and the error fields are
    floats.  For n sites every field gains a leading axis of length n
    (``map_base`` holds Base indices).  ``log_unnormalized`` keeps the -I_x
    values (up to a site constant) so error probabilities are formed without
    catastrophic cancellation; ``log_p_error`` stays finite where
    ``p_error`` underflows to zero.
    """

    site: int | np.ndarray
    log_unnormalized: np.ndarray
    probs: np.ndarray
    map_base: Base | np.ndarray
    tie: bool | np.ndarray
    p_error: float | np.ndarray
    log_p_error: float | np.ndarray


def _site_record(phi: np.ndarray, seq: BaseSequence, site: np.ndarray) -> SitePosterior:
    """The posterior at ``site`` (a checked 0-d or 1-d site array), read off
    phi: the log weight of b_x = u is -(phi[x-1, b_{x-1}, u] + phi[x, u,
    b_{x+1}]).  The MAP breaks ties in Base order; with s the log odds of the
    losing bases against the best one, P(error) = s/(1+s) and log P(error) =
    s - log(1 + e^s)."""
    b = seq.array  # b[x - 1] is the base at site x
    log_w = -(phi[site - 1, b[site - 2], :] + phi[site, :, b[site]])
    best = np.argmax(log_w, axis=-1)
    gap = log_w - log_w.max(axis=-1, keepdims=True)
    weights = np.exp(gap)
    scale = _edge_scale(phi)
    tol = _TIE_ULPS * np.finfo(float).eps * (scale[site - 1] + scale[site])
    tie = np.sum(gap >= -tol[..., None], axis=-1) > 1
    losers = np.where(np.arange(4) == best[..., None], -np.inf, gap)
    s = np.logaddexp.reduce(losers, axis=-1)
    odds = np.exp(np.minimum(s, 709.0))
    p_err, log_p_err = odds / (1.0 + odds), s - np.logaddexp(0.0, s)
    scalar = site.ndim == 0
    return SitePosterior(
        site=int(site) if scalar else site,
        log_unnormalized=log_w,
        probs=weights / weights.sum(axis=-1, keepdims=True),
        map_base=BASES[int(best)] if scalar else best,
        tie=bool(tie) if scalar else tie,
        p_error=_per_site(site, p_err),
        log_p_error=_per_site(site, log_p_err),
    )


def site_posterior(
    stats: AggregateStats,
    env: Environment,
    x,
    prior: Prior | None = None,
) -> SitePosterior:
    """Exact posterior P(b_x = u | stats, all other bases) for u in A,T,C,G,
    at a site or an array of sites in [2, M-1]."""
    site = _check_sites(x, 2, env.M - 1)
    return _site_record(build_edge_potentials(stats, env, prior), env.seq, site)


@dataclass(frozen=True)
class DecodeResult:
    """Global MAP decode: the minimizing sequence, its cost, and every
    co-optimal sequence up to a cap.

    ``ties`` always contains ``map_sequence`` first; more than one entry
    means the data cannot distinguish the listed sequences (the degenerate
    twins reach this state with exactly equal costs).  ``truncated`` means
    more co-optimal sequences exist than the cap let through.
    """

    map_sequence: BaseSequence
    cost: float
    ties: tuple[BaseSequence, ...]
    truncated: bool

    @property
    def tie(self) -> bool:
        return len(self.ties) > 1


def log_partition(phi: np.ndarray, b1: Base | None) -> float:
    """log sum over sequences (first base fixed to b1 unless None) of e^{-I}:
    the partition column of the forward sweep, which no reference base
    touches, so the sweep runs relative to all-A."""
    return _forward_sweep(phi, b1, np.zeros(phi.shape[0], dtype=int), 1)[1]


def _suffix_minima(phi: np.ndarray) -> np.ndarray:
    """E[x, u] = min over v of phi[x, u, v] + E[x + 1, v], with E[M] = 0
    (row 0 unused), over Python floats taken from phi _DECODE_ROWS edges at
    a time.  The rows of phi[x] unpack in Base order, a = A, t = T, c = C,
    g = G."""
    M = phi.shape[0]
    E = np.zeros((M + 1, 4))
    e0 = e1 = e2 = e3 = 0.0
    for hi in range(M, 1, -_DECODE_ROWS):
        lo = max(hi - _DECODE_ROWS, 1)
        suffix = []
        for a0, a1, a2, a3, t0, t1, t2, t3, c0, c1, c2, c3, g0, g1, g2, g3 in reversed(
            phi[lo:hi].reshape(hi - lo, 16).tolist()
        ):
            e0, e1, e2, e3 = (
                min(a0 + e0, a1 + e1, a2 + e2, a3 + e3),
                min(t0 + e0, t1 + e1, t2 + e2, t3 + e3),
                min(c0 + e0, c1 + e1, c2 + e2, c3 + e3),
                min(g0 + e0, g1 + e1, g2 + e2, g3 + e3),
            )
            suffix.append((e0, e1, e2, e3))
        E[lo:hi] = suffix[::-1]
    return E


def decode_map(phi: np.ndarray, b1: Base | None, tie_cap: int = 16) -> DecodeResult:
    """Exact argmin of I over the 4^(M-1) sequences via min-sum DP.

    A backward pass fills the suffix-optimal costs E[x, u]; an iterative
    walk forward then takes, from site x at base u, every step v whose
    phi[x, u, v] + E[x+1, v] is within the tie tolerance of E[x, u].  The
    row's own minimizer is always such a step, so every branch reaches site
    M.  The tolerance is a few ulps times the remaining edge count times the
    sum of the remaining edges' largest |phi|: the rounding two suffix sums
    can differ by.  Ties come out in Base order (up to ``tie_cap``), so the
    reported MAP sequence is the lexicographically first co-optimal one.
    The walk is ``energy._trellis_paths`` over the tight steps: it follows
    each row's one tight step while the optimum is unique and branches depth
    first from the first co-optimal start, or row with two tight steps.
    """
    M = phi.shape[0]
    E = _suffix_minima(phi)
    remaining = np.cumsum(_edge_scale(phi)[::-1])[::-1]  # sum over edges x..M-1
    tol = _TIE_ULPS * np.finfo(float).eps * (M - np.arange(M)) * remaining
    # tight[x - 1, u, v]: the step u -> v across edge x stays co-optimal
    tight = phi[1:] + E[2:, None, :] <= E[1:M, :, None] + tol[1:, None, None]
    cost = min(float(E[1, u]) for u in _start_bases(b1))
    starts = [int(u) for u in _start_bases(b1) if E[1, u] <= cost + tol[1]]
    paths, truncated, _ = _trellis_paths(tight, starts, tie_cap)
    sequences = tuple(BaseSequence(tuple(p)) for p in paths)
    return DecodeResult(sequences[0], cost, sequences, truncated)


def sequence_log_posterior(alpha: BaseSequence, phi: np.ndarray, b1: Base | None) -> float:
    """log P(b = alpha | stats, b_1) = -I(alpha) - log partition."""
    if b1 is not None and alpha.base(1) != b1:
        raise ValueError(
            f"sequence starts with {alpha.base(1).name}, conditioning fixes b_1 = {Base(b1).name}"
        )
    M = phi.shape[0]
    if len(alpha) != M:
        raise ValueError(f"sequence length {len(alpha)} != M = {M}")
    b = alpha.array
    # I(alpha): edges 1..M-1 summed left to right
    cost = float(sum(phi[np.arange(1, M), b[:-1], b[1:]].tolist()))
    return -cost - log_partition(phi, b1)


@functools.lru_cache(maxsize=16)
def _sweep_maps(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of one step of the forward sweep's packed state.

    A state row holds n = 4h + 5 numbers: the match part m[t], block counts
    t = 0..h, once, at the reference base (entry t); the mismatch part
    q_i[t], t = 1..h, of the i-th base other than the reference base in
    Base order (entry h + 1 + 3(t - 1) + i), since only those three bases
    mismatch and a mismatch never has count 0; and the partition column of
    each base u (entry 4h + 1 + u).  Three spare lanes and a -inf (entry
    w = n + 3) follow.

    A step from reference base r to r' gathers four operand rows of w lanes
    from the state, ``gather[r']``, and subtracts from each operand the
    potential of its step from its source base s to the next base v.
    ``pick[r, r']`` names that potential in a table of 33 per site:
    phi[x, s, v] - phi[x, r, r'] at 4s + v for the match and mismatch
    parts, which are relative to the reference step; phi[x, s, v] at
    16 + 4s + v for the partition column; and 0 at 32, for a -inf operand.
    Each lane of the next state is the left fold of its four operands by
    logaddexp: the three mismatch masses that enter its base at its count,
    in Base order (the partition column: its four sources), then the match
    mass that keeps the count or opens a block.  A block opened at the count
    cap h comes from two match counts, h - 1 and h: the spare lanes fold
    those two for the three mismatched bases, and each sum is then folded
    into its lane q_i[h].  Unused operands are -inf; logaddexp(y, -inf) ==
    y and logaddexp is symmetric, so each entry has the same bits as in a
    recursion that keeps both parts at every base and reduces over all four
    source bases.  ``final[r]`` gathers the block masses by count from the
    state, the bases in Base order.
    """
    H = h + 1
    n = 4 * h + 5
    w = n + 3
    z = H + 3 * h  # the partition column of base A

    def q(t, i):  # the entry of q_i[t]
        return H + 3 * (t - 1) + i

    gather = np.full((4, 4, w), w, dtype=np.intp)  # [r', row, lane]: state entry
    dest = np.zeros((4, 4, w), dtype=np.intp)  # [r', row, lane]: the next base v
    final = np.full((4, 4, H), w, dtype=np.intp)
    for r in range(4):  # the next reference base, r'
        others = [u for u in range(4) if u != r]
        gather[r, 0, 0] = 0
        for t in range(1, H):  # the match: mismatches close at count t, or the match goes on
            gather[r, :, t] = q(t, 0), q(t, 1), q(t, 2), t
        dest[r, :, :H] = r
        for i, v in enumerate(others):
            for t in range(1, H):  # a block continues, or opens after a match at t - 1
                gather[r, :, q(t, i)] = q(t, 0), q(t, 1), q(t, 2), (t - 1 if t < h else w)
                dest[r, :, q(t, i)] = v
            gather[r, :2, n + i] = h - 1, h  # or opens at the cap
            dest[r, :, n + i] = v
            final[r, v, 1:] = [q(t, i) for t in range(1, H)]
        gather[r, :, z:n] = z + np.arange(4)[:, None]
        dest[r, :, z:n] = np.arange(4)
        final[r, r] = np.arange(H)
    # the source base of each state entry, by the reference base it was formed at
    source = np.zeros((4, w + 1), dtype=np.intp)
    for r in range(4):
        source[r, :H] = r
        source[r, H:z] = [u for u in range(4) if u != r] * h
        source[r, z:n] = range(4)
    pick = 4 * source[:, gather] + dest + np.where(gather < z, 0, 16)  # [r, r', row, lane]
    pick[:, gather == w] = 32
    maps = gather, pick, final
    for a in maps:
        a.setflags(write=False)
    return maps


def _forward_sweep(
    phi: np.ndarray, b1: Base | None, r: np.ndarray, h_max: int
) -> tuple[np.ndarray, float]:
    """log P(at least h separated error blocks) for h = 1..h_max, relative to
    the bases ``r`` (Base indices, r[x - 1] at site x), and log Z, from one
    forward pass.

    The states are (base, site mismatched, block count capped at h_max); a
    block opens when a mismatch follows a match.  Their potentials are taken
    relative to the reference path's own edge costs, so that path weighs
    exactly e^0 and loser masses far below float underflow keep their
    logarithms (no 1 - (1 - tiny) cancellation).  One more column per base
    carries the partition sum over the potentials themselves.  Only the
    reference base can match and only the other three can mismatch, so the
    state is packed (``_sweep_maps``).  Each site is one gather of operands,
    one subtraction, one logaddexp.reduce over the operand rows into the
    next state, and one logaddexp that adds the blocks opened at the count
    cap; the subtrahends and gather indices are built _DECODE_ROWS sites at
    a time.  M sites hold at most (M+1)//2 blocks, so the states stop there
    and larger h get log P = -inf.  log P(>= h) is -log(1 + below /
    at_least) over the masses below h blocks and at or above it, so it
    stays negative, not 0.0, when P rounds to 1; a log P above -5e-324
    comes out as -0.0.
    """
    M = phi.shape[0]
    h = min(h_max, (M + 1) // 2)
    H = h + 1
    n = 4 * h + 5
    w = n + 3
    z = H + 3 * h
    gather, pick, final = _sweep_maps(h)
    state = np.full(w + 1, -np.inf)
    r0 = int(r[0])
    for u in _start_bases(b1):
        state[0 if u == r0 else H + u - (u > r0)] = 0.0
        state[z + u] = 0.0
    lanes, cap, spare = state[:-1], state[z - 3:z], state[n:-1]  # cap: q_0..q_2[h]
    phi = phi.reshape(M, 16)
    for lo in range(1, M, _DECODE_ROWS):
        hi = min(lo + _DECODE_ROWS, M)
        before, after = r[lo - 1:hi - 1], r[lo:hi]
        # each site's table: relative potentials, raw ones, and 0
        phi_x = phi[lo:hi]
        ref = phi_x[np.arange(hi - lo), 4 * before + after][:, None]
        table = np.concatenate([phi_x - ref, phi_x, np.zeros_like(ref)], axis=1)
        at = 33 * np.arange(hi - lo)[:, None, None]
        D = table.reshape(-1)[at + pick[before, after]]  # (sites, 4, w)
        for D_x, index_x in zip(D, gather[after]):  # one site
            X = state[index_x]
            np.subtract(X, D_x, out=X)
            np.logaddexp.reduce(X, axis=0, out=lanes)
            np.logaddexp(cap, spare, out=cap)
    log_z = float(np.logaddexp.reduce(state[z:n]))
    mass = np.logaddexp.reduce(state[final[r[-1]]], axis=0)  # by block count
    at_least = np.logaddexp.accumulate(mass[::-1])[::-1]
    below = np.logaddexp.accumulate(mass)[:-1]
    log_p = -np.logaddexp(0.0, below - at_least[1:])
    return np.concatenate([log_p, np.full(h_max - h, -np.inf)]), log_z


def log_block_probs(
    phi: np.ndarray, b1: Base | None, ref: BaseSequence, h_max: int
) -> np.ndarray:
    """log P(at least h separated error blocks) for h = 1..h_max, relative to
    ``ref``; h = 1 is log P(at least one wrong base).  Relative to the MAP
    sequence of ``decode_map`` these are the decoder's error probabilities.
    """
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    return _forward_sweep(phi, b1, ref.array, h_max)[0]


@dataclass(frozen=True)
class ErrorReport:
    """Decoding error summary: global, per block count, and per site.

    ``log_partition`` is the log sum of e^{-I} over every sequence allowed by
    the b_1 conditioning.  ``sites`` is the posterior at sites 2..M-1 given
    the true flanking bases: row i of each field belongs to site i + 2.
    """

    decode: DecodeResult
    log_partition: float
    p_any: float
    log_p_any: float
    p_blocks: tuple[tuple[int, float, float], ...]
    sites: SitePosterior


def error_report(
    stats: AggregateStats,
    env: Environment,
    prior: Prior | None = None,
    b1: Base | None = None,
    h_max: int = 3,
) -> ErrorReport:
    """Run the full decode + error-probability pipeline on one statistics set."""
    phi = build_edge_potentials(stats, env, prior)
    decoded = decode_map(phi, b1)
    log_p, log_z = _forward_sweep(phi, b1, decoded.map_sequence.array, max(h_max, 1))
    log_p = log_p.tolist()
    return ErrorReport(
        decode=decoded,
        log_partition=log_z,
        p_any=math.exp(min(log_p[0], 0.0)),
        log_p_any=log_p[0],
        p_blocks=tuple((h, math.exp(min(lp, 0.0)), lp) for h, lp in enumerate(log_p[:h_max], 1)),
        sites=_site_record(phi, env.seq, np.arange(2, env.M)),
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (R, -log P): slope is the empirical decay
    rate, to be compared against the analytic 1/R_c."""

    slope: float
    intercept: float
    slope_stderr: float
    n: int


def empirical_rate_from_logs(points: Iterable[tuple[float, float]]) -> RateFit:
    """Fit -log P against R from (R, log P) pairs (log P < 0 required)."""
    pts = [(float(r), float(lp)) for r, lp in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points to fit a rate")
    for r, lp in pts:
        if not (lp < 0.0 and math.isfinite(lp)):
            raise ValueError(f"log probability must be finite and < 0, got {lp} at R={r}")
    R = np.array([p[0] for p in pts])
    y = np.array([-p[1] for p in pts])
    if np.ptp(R) == 0:
        raise ValueError("need at least 2 distinct R values")
    Rbar, ybar = R.mean(), y.mean()
    sxx = float(np.sum((R - Rbar) ** 2))
    slope = float(np.sum((R - Rbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * Rbar)
    n = len(pts)
    if n > 2:
        rss = float(np.sum((y - intercept - slope * R) ** 2))
        stderr = math.sqrt(max(rss, 0.0) / (n - 2) / sxx)
    else:
        stderr = float("nan")
    return RateFit(slope=slope, intercept=intercept, slope_stderr=stderr, n=n)
