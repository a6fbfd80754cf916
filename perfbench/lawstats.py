"""Exact-law sampler for the sufficient statistics of an unzipping ensemble.

The crossing counts of R independent walks factorize down the chain:
L+_{M-1} = R; given L+_x, the down-crossings L-_x are NegBin(L+_x, p_x)
(failures before L+_x successes at up-probability p_x); and
L+_{x-1} = L-_x + R.  In continuous time each of the L+_x + L-_x visits to x
lasts an Exp(total exit rate at x), so S_x is a Gamma(L+_x + L-_x) draw
divided by that rate.  One ensemble costs M-2 negative-binomial draws and
one vector of gamma draws, whatever R is, which is what lets the decode
workload use R up to 1e7 without running the walker.

The model arithmetic (p_x, exit rates, escape probabilities) is written here
in plain numpy, independently of the package, so the benchmark's output
checks do not trust the code they check.
"""

from __future__ import annotations

import numpy as np

from unzipseq.walker import AggregateStats

# Standard room-temperature binding free energies (k_B T), rows/columns in
# A, T, C, G order.  Written into every environment file the benchmark makes,
# so the program and the checks read the same table.
G0_TABLE = (
    (1.78, 1.55, 2.52, 2.22),
    (1.06, 1.78, 2.28, 2.54),
    (2.54, 2.22, 3.14, 3.85),
    (2.28, 2.52, 3.90, 3.14),
)
BASE_INDEX = {"A": 0, "T": 1, "C": 2, "G": 3}
LETTERS = "ATCG"


def random_sequence(rng: np.random.Generator, M: int) -> str:
    return "".join(LETTERS[i] for i in rng.integers(0, 4, size=M))


def edge_g0(seq: str) -> np.ndarray:
    """Site-indexed g0(b_x, b_x+1) for x = 1..M-1 (slot 0 unused, zero)."""
    idx = np.array([BASE_INDEX[c] for c in seq])
    out = np.zeros(len(seq))
    out[1:] = np.asarray(G0_TABLE)[idx[:-1], idx[1:]]
    return out


def up_probabilities(g0: np.ndarray, g1: float, beta: float) -> np.ndarray:
    """p_x = 1 / (1 + e^{beta (g0_x - g1)}) for x >= 2; p_1 = 1."""
    p = np.zeros(g0.size)
    p[1] = 1.0
    p[2:] = 1.0 / (1.0 + np.exp(beta * (g0[2:] - g1)))
    return p


def exit_rates(g0: np.ndarray, g1: float, beta: float, r: float) -> np.ndarray:
    """Continuous-time total exit rate at x: r e^{-beta g0_x} + r e^{-beta g1}
    (no backward move from site 1)."""
    rate = r * np.exp(-beta * g0) + r * np.exp(-beta * g1)
    rate[1] = r * np.exp(-beta * g0[1])
    rate[0] = 0.0
    return rate


def log_inv_pbar(g0: np.ndarray, g1: float, beta: float) -> np.ndarray:
    """log(1/pbar_x) for x = 1..M-1 by one reverse cumulative logaddexp.

    1/pbar_x = 1 + sum_{k=x+1..M-1} e^{beta (g(k) - g(x))}, with the landscape
    g(x) = sum_{j<=x} (g0_j - g1).  Slot 0 is NaN.
    """
    M = g0.size
    g = np.zeros(M)
    g[1:] = np.cumsum(g0[1:] - g1)
    bg = beta * g
    # tail[x] = log sum_{k > x, k <= M-1} e^{bg[k]}; -inf at x = M-1
    tail = np.full(M, -np.inf)
    tail[1 : M - 1] = np.logaddexp.accumulate(bg[M - 1 : 1 : -1])[::-1]
    out = np.logaddexp(0.0, tail - bg)
    out[0] = np.nan
    return out


def sample_counts(
    p_up: np.ndarray,
    rate: np.ndarray | None,
    R: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(L+, L-, S) of R walks drawn from the exact joint law; S is None unless
    ``rate`` (the continuous-time exit rates) is given."""
    M = p_up.size
    up = np.zeros(M, dtype=np.int64)
    down = np.zeros(M, dtype=np.int64)
    up[M - 1] = R
    for x in range(M - 1, 1, -1):
        down[x] = rng.negative_binomial(up[x], p_up[x])
        up[x - 1] = down[x] + R
    if rate is None:
        return up, down, None
    sojourn = np.zeros(M)
    sojourn[1:] = rng.standard_gamma((up + down)[1:]) / rate[1:]
    return up, down, sojourn


def law_stats_doc(
    seq: str, R: int, mode: str, rng: np.random.Generator, *, g1: float, beta: float, r: float
) -> dict:
    """One ensemble's statistics, in the stats-file format of ``unzipseq simulate``."""
    g0 = edge_g0(seq)
    rate = exit_rates(g0, g1, beta, r) if mode == "continuous" else None
    up, down, sojourn = sample_counts(up_probabilities(g0, g1, beta), rate, R, rng)
    agg = AggregateStats(
        up=up,
        down=down,
        sojourn=sojourn,
        steps=int(up.sum() + down.sum()),
        wall_time=float(sojourn.sum()) if sojourn is not None else None,
        mode=mode,
        R=R,
    )
    return agg.to_json_dict()
