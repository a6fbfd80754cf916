"""Independent reference implementations used as test oracles.

Everything here is recomputed from the model definition itself: transition
probabilities multiplied along trajectories, exponential sojourn densities,
binomial coefficients via math.comb.  None of it calls the package's
inference or rate code, so agreement between the two routes is evidence, not
tautology.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from unzipseq.energy import BASES, Base, BaseSequence
from unzipseq.inference import _TIE_ULPS
from unzipseq.walker import AggregateStats


def brute_profile(env) -> list[float]:
    """Free-energy landscape accumulated by direct summation."""
    g = [0.0]
    for x in range(1, env.M):
        g.append(g[-1] + float(env.edge_g0[x]) - float(env.force.per_site[x - 1]))
    return g


def brute_pbar(env, x: int) -> float:
    """Escape probability from the defining sum, no log-space tricks."""
    g = brute_profile(env)
    total = 1.0 + math.fsum(
        math.exp(env.beta * (g[k] - g[x])) for k in range(x + 1, env.M)
    )
    return 1.0 / total


def brute_p_up(env, x: int) -> float:
    if x == 1:
        return 1.0
    dg = float(env.edge_g0[x]) - float(env.force.per_site[x - 1])
    return 1.0 / (1.0 + math.exp(env.beta * dg))


def brute_pair_pmf(env, x: int, a: int, c: int) -> float:
    """Closed-form P(L+_x = a, L-_x = c) with exact integer combinatorics."""
    if a < 1 or c < 0:
        return 0.0
    p = brute_p_up(env, x)
    pb = brute_pbar(env, x)
    return (
        math.comb(a + c - 1, a - 1)
        * (1.0 - p) ** c
        * (p * (1.0 - pb)) ** (a - 1)
        * (p * pb)
    )


def law_stats(env, R: int, mode: str, rng: np.random.Generator) -> AggregateStats:
    """Statistics of R walks drawn from the exact joint law of the counts.

    L+_{M-1} = R; given L+_x, the down-moves L-_x are NegBin(L+_x, p_x)
    (failures before L+_x successes at up-probability p_x), and
    L+_{x-1} = L-_x + R.  In continuous time each of the L+_x + L-_x visits
    to x lasts an Exp(total exit rate at x), so S_x is a Gamma(L+_x + L-_x)
    draw over that rate.  The cost is O(M) whatever R is.
    """
    M = env.M
    up = np.zeros(M, dtype=np.int64)
    down = np.zeros(M, dtype=np.int64)
    up[M - 1] = R
    for x in range(M - 1, 1, -1):
        down[x] = rng.negative_binomial(up[x], brute_p_up(env, x))
        up[x - 1] = down[x] + R
    sojourn = None
    if mode == "continuous":
        sojourn = np.zeros(M)
        for x in range(1, M):
            rate = env.rate * math.exp(-env.beta * float(env.edge_g0[x]))
            if x > 1:
                rate += env.rate * math.exp(-env.beta * float(env.force.per_site[x - 1]))
            sojourn[x] = rng.standard_gamma(up[x] + down[x]) / rate
    return AggregateStats(
        up=up,
        down=down,
        sojourn=sojourn,
        steps=int(up.sum() + down.sum()),
        wall_time=None if sojourn is None else float(sojourn.sum()),
        mode=mode,
        R=R,
    )


def edge_cost_tables(stats, env, mode: str) -> np.ndarray:
    """Literal likelihood cost of assigning pair (u, v) to each edge.

    Discrete: -log of p_x^{L+} (1-p_x)^{L-}; transitions out of site 1 happen
    with probability one, so edge 1 costs nothing.  Continuous: -log of the
    product of sojourn densities and jump probabilities, keeping only the
    (u, v)-dependent part.
    """
    M = env.M
    tables = np.zeros((M, 4, 4))
    for x in range(1, M):
        for u in BASES:
            for v in BASES:
                g0 = float(env.table.values[u, v])
                if mode == "discrete":
                    if x == 1:
                        continue
                    z = env.beta * (g0 - float(env.force.per_site[x - 1]))
                    up_cost = math.log1p(math.exp(z)) if z < 500 else z
                    dn_cost = math.log1p(math.exp(-z)) if z > -500 else -z
                    tables[x, u, v] = (
                        float(stats.up[x]) * up_cost + float(stats.down[x]) * dn_cost
                    )
                else:
                    tables[x, u, v] = env.beta * g0 * float(stats.up[x]) + float(
                        stats.sojourn[x]
                    ) * env.rate * math.exp(-env.beta * g0)
    return tables


def all_sequences(M: int, b1: Base | None) -> np.ndarray:
    """(N, M) int array of every candidate sequence, in base order."""
    firsts = [int(b1)] if b1 is not None else [0, 1, 2, 3]
    rest = np.array(list(itertools.product(range(4), repeat=M - 1)), dtype=np.int64)
    blocks = []
    for f in firsts:
        col = np.full((rest.shape[0], 1), f, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def enumerate_costs(stats, env, mode: str, b1: Base | None, prior_probs=None):
    """(sequences, costs) over the whole candidate space.

    prior_probs: optional (M+1, 4) table of per-site prior probabilities;
    defaults to uniform 1/4.
    """
    M = env.M
    seqs = all_sequences(M, b1)
    tables = edge_cost_tables(stats, env, mode)
    costs = np.zeros(len(seqs))
    for x in range(1, M):
        costs += tables[x, seqs[:, x - 1], seqs[:, x]]
    for x in range(1, M + 1):
        if prior_probs is None:
            costs -= math.log(0.25)
        else:
            costs -= np.log(np.asarray(prior_probs)[x, seqs[:, x - 1]])
    return seqs, costs


def oracle_summary(stats, env, mode, b1, h_max: int = 3, prior_probs=None, tol=1e-9):
    """MAP, log partition, sequence posteriors and error masses by summation."""
    seqs, costs = enumerate_costs(stats, env, mode, b1, prior_probs)
    shift = costs.min()
    w = np.exp(-(costs - shift))
    Z = float(w.sum())
    log_z = float(-shift + math.log(Z))
    best = int(np.flatnonzero(costs <= shift + tol)[0])
    ref = seqs[best]
    mism = seqs != ref[None, :]
    opens = mism & ~np.hstack([np.zeros((len(seqs), 1), bool), mism[:, :-1]])
    blocks = opens.sum(axis=1)
    p_any = float(w[np.any(mism, axis=1)].sum() / Z)
    p_blocks = {h: float(w[blocks >= h].sum() / Z) for h in range(1, h_max + 1)}
    return {
        "seqs": seqs,
        "costs": costs,
        "weights": w / Z,
        "map_index": best,
        "map": tuple(Base(int(v)) for v in ref),
        "map_cost": float(costs[best]),
        "log_z": log_z,
        "p_any": p_any,
        "p_blocks": p_blocks,
    }


def oracle_site_conditional(stats, env, mode, x: int, prior_probs=None):
    """P(b_x = u | stats, all other sites fixed to the true bases)."""
    truth = [env.seq.base(i) for i in range(1, env.M + 1)]
    masses = {}
    for u in BASES:
        cand = list(truth)
        cand[x - 1] = u
        tables = edge_cost_tables(stats, env, mode)
        cost = 0.0
        for e in range(1, env.M):
            cost += tables[e, cand[e - 1], cand[e]]
        for e in range(1, env.M + 1):
            p = 0.25 if prior_probs is None else float(np.asarray(prior_probs)[e, cand[e - 1]])
            cost -= math.log(p)
        masses[u] = cost
    mn = min(masses.values())
    weights = {u: math.exp(-(c - mn)) for u, c in masses.items()}
    Z = sum(weights.values())
    return {u: wv / Z for u, wv in weights.items()}


def path_cost(phi: np.ndarray, alpha) -> float:
    """I(alpha): the edges of phi that the bases ``alpha`` (a BaseSequence
    or a list of Base) take, summed left to right one Python float at a
    time."""
    bases = list(alpha.bases if isinstance(alpha, BaseSequence) else alpha)
    assert len(bases) == phi.shape[0], (len(bases), phi.shape[0])
    cost = 0.0
    for x in range(1, len(bases)):
        cost += float(phi[x, bases[x - 1], bases[x]])
    return cost


def block_recursion(phi: np.ndarray, b1: Base | None, ref, h_max: int) -> np.ndarray:
    """log P(at least h separated error blocks), h = 1..h_max, relative to
    ``ref``: the block states of the forward sweep written state by state,
    with one two-term logaddexp per entry, as the reference for
    ``inference.log_block_probs``.
    """
    M = phi.shape[0]
    r = np.array(ref.bases)
    psi = phi[1:] - phi[np.arange(1, M), r[:-1], r[1:]][:, None, None]
    wrong = np.arange(4) != r[:, None]  # wrong[x - 1, v]: base v mismatches site x
    A = np.full((4, 2, h_max + 1), -np.inf)
    for u in ([int(b1)] if b1 is not None else range(4)):
        m = int(u != r[0])
        A[u, m, m] = 0.0
    for x in range(1, M):
        # B[m, t, v]: mass entering base v at site x+1 from flag m, count t
        B = np.logaddexp.reduce(A[:, :, :, None] - psi[x - 1][:, None, None, :], axis=0)
        w = wrong[x]
        A = np.full((4, 2, h_max + 1), -np.inf)
        # a match clears the flag and keeps the count
        A[r[x], 0] = np.logaddexp(B[0, :, r[x]], B[1, :, r[x]])
        # a mismatch continues an open block, or opens one (count capped)
        opened = np.full((h_max + 1, 3), -np.inf)
        opened[1:] = B[0, :-1][:, w]
        opened[-1] = np.logaddexp(opened[-1], B[0, -1, w])
        A[w, 1] = np.logaddexp(B[1][:, w], opened).T
    mass = np.logaddexp.reduce(A, axis=(0, 1))  # by block count
    at_least = np.logaddexp.accumulate(mass[::-1])[::-1]
    below = np.logaddexp.accumulate(mass)[:-1]
    return -np.logaddexp(0.0, below - at_least[1:])


def partition_recursion(phi: np.ndarray, b1: Base | None) -> float:
    """log sum over sequences (first base fixed to b1 unless None) of e^{-I}:
    the sum-product pass over the four bases alone, one site at a time, as
    the reference for the forward sweep's partition column."""
    L = np.full(4, -np.inf)
    for u in (BASES if b1 is None else [Base(b1)]):
        L[u] = 0.0
    for x in range(1, phi.shape[0]):
        L = np.logaddexp.reduce(L[:, None] - phi[x], axis=0)
    return float(np.logaddexp.reduce(L))


def map_dfs(phi: np.ndarray, b1: Base | None, tie_cap: int = 16):
    """(map_sequence, ties, truncated) of the min-sum decode, each sequence a
    tuple of Base indices: the numpy backward pass and a depth-first walk
    over every co-optimal step from site 1, as the reference for
    ``inference.decode_map``'s traceback.  The tie tolerance is the
    decoder's: ``_TIE_ULPS`` ulps per remaining edge of the remaining edges'
    largest |phi|."""
    M = phi.shape[0]
    E = np.zeros((M + 1, 4))
    for x in range(M - 1, 0, -1):
        E[x] = (phi[x] + E[x + 1]).min(axis=1)
    scale = np.abs(phi).max(axis=(1, 2))
    scale[0] = 0.0
    remaining = np.cumsum(scale[::-1])[::-1]
    tol = _TIE_ULPS * np.finfo(float).eps * (M - np.arange(M)) * remaining
    tight = (phi[1:] + E[2:, None, :] <= E[1:M, :, None] + tol[1:, None, None]).tolist()
    starts = list(BASES) if b1 is None else [Base(b1)]
    cost = min(float(E[1, u]) for u in starts)
    sequences, path = [], []
    stack = [(1, int(u)) for u in reversed(starts) if E[1, u] <= cost + tol[1]]
    while stack:
        x, u = stack.pop()
        del path[x - 1 :]
        path.append(u)
        if x == M:
            sequences.append(tuple(path))
            if len(sequences) >= tie_cap:
                break
        else:
            stack.extend((x + 1, v) for v in (3, 2, 1, 0) if tight[x - 1][u][v])
    return sequences[0], tuple(sequences), bool(stack)


@functools.lru_cache(maxsize=None)
def _base_strings(length: int) -> np.ndarray:
    """Every string of ``length`` Base indices, in lexicographic order."""
    return np.array(list(itertools.product(range(4), repeat=length)))


def trellis_paths_product(allowed: np.ndarray, starts, cap: int):
    """(paths, truncated, dead_end) of ``energy._trellis_paths`` from
    ``itertools.product`` over every base string.

    The paths are the allowed full strings in lexicographic (Base) order,
    cut at ``cap``.  A walk that is cut stops at the string past the cap,
    so it has reached exactly the allowed prefixes that sort before that
    string; dead_end is the lexicographically first of those, at the
    deepest site, whose last row allows no step.
    """
    M = allowed.shape[0] + 1

    def valid(length: int) -> list[tuple[int, ...]]:
        strings = _base_strings(length)
        steps = allowed[np.arange(length - 1), strings[:, :-1], strings[:, 1:]]
        keep = np.isin(strings[:, 0], starts) & steps.all(axis=1)
        return [tuple(p) for p in strings[keep].tolist()]

    full = valid(M)
    stop = full[cap] if len(full) > cap else None
    dead_end = None
    for length in range(M - 1, 0, -1):
        ends = [p for p in valid(length)
                if not allowed[length - 1, p[-1]].any() and (stop is None or p < stop[:length])]
        if ends:
            dead_end = (length, ends[0][-1])
            break
    return [list(p) for p in full[:cap]], len(full) > cap, dead_end
