"""Killed birth-death walk simulation and sufficient-statistic accumulation.

A replica starts at site 1 (the first pair is always open), moves up with
probability p_x (p_1 = 1) or down otherwise, and is absorbed on first hitting
site M.  Only the sufficient statistics are retained: per-site up-counts
L+_x, down-counts L-_x, sojourn times S_x (continuous mode), and the total
step count.  Full paths are recorded only in the optional trace mode.

Replica streams are derived counter-style from (master seed, replica index),
so an ensemble is reproducible bit-for-bit no matter how its replicas are
scheduled, and stats at R1 < R2 under one master seed are nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import _SiteModel

__all__ = [
    "SeedSpec",
    "WalkStats",
    "AggregateStats",
    "StepCapExceeded",
    "DEFAULT_STEP_CAP",
    "simulate_discrete_walk",
    "simulate_continuous_walk",
    "simulate_ensemble",
    "accumulate_checkpoints",
    "verify_conservation",
    "zero_stats",
]

DEFAULT_STEP_CAP = 10**9
# RNG draws are buffered; blocks start small (typical walks take only a few
# steps) and grow geometrically so long walks amortize the draw overhead.
_BLOCK_INIT = 64
_BLOCK_MAX = 16384

MODES = ("discrete", "continuous")


class StepCapExceeded(RuntimeError):
    """A replica exceeded the hard step cap before reaching site M.

    Deep valleys at low force make absorption astronomically slow; aborting
    loudly beats silent truncation of the statistics.
    """

    def __init__(self, replica: int, cap: int):
        super().__init__(f"replica {replica} exceeded step cap {cap} before absorption")
        self.replica = replica
        self.cap = cap


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a spawn-key prefix identifying a sub-experiment.

    ``stream(replica, substream)`` derives an independent, reproducible
    generator per (prefix, replica, substream); ``child(k)`` namespaces a
    nested experiment (e.g. one force level of a protocol).
    """

    master: int
    prefix: tuple[int, ...] = ()

    def child(self, *key: int) -> "SeedSpec":
        return SeedSpec(self.master, self.prefix + tuple(key))

    def stream(self, replica: int, substream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(
            self.master, spawn_key=self.prefix + (replica, substream)
        )
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class WalkStats:
    """Sufficient statistics for one absorbed walk.

    Arrays are site-indexed with slot 0 unused: ``up[x]`` counts x -> x+1
    moves for x = 1..M-1, ``down[x]`` counts x -> x-1 moves for x = 2..M-1,
    ``sojourn[x]`` holds total time at x (continuous mode, else None).
    """

    up: np.ndarray
    down: np.ndarray
    sojourn: np.ndarray | None
    steps: int
    wall_time: float | None
    mode: str
    path: np.ndarray | None = None
    path_times: np.ndarray | None = None

    @property
    def M(self) -> int:
        return self.up.size


@dataclass(frozen=True)
class AggregateStats:
    """Replica sums of WalkStats over an ensemble of R walks."""

    up: np.ndarray
    down: np.ndarray
    sojourn: np.ndarray | None
    steps: int
    wall_time: float | None
    mode: str
    R: int

    @property
    def M(self) -> int:
        return self.up.size

    def to_json_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "R": self.R,
            "steps": self.steps,
            "site": list(range(1, self.M)),
            "L_plus": self.up[1:].tolist(),
            "L_minus": self.down[1:].tolist(),
        }
        if self.sojourn is not None:
            doc["S"] = self.sojourn[1:].tolist()
            doc["wall_time"] = float(self.wall_time)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AggregateStats":
        """Inverse of ``to_json_dict``.

        Checks the document at the boundary: required keys, one entry per
        site 1..M-1, non-negative integer counts, and (continuous mode)
        finite sojourns, positive at every visited site.  A ValueError names
        the first offending field.  Flow identities are left to
        ``verify_conservation``.
        """
        if not isinstance(doc, dict):
            raise ValueError("stats document must be a JSON object")
        mode = doc.get("mode")
        if mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {mode!r}")
        required = ["R", "steps", "site", "L_plus", "L_minus"]
        if mode == "continuous":
            required += ["S", "wall_time"]
        missing = [key for key in required if key not in doc]
        if missing:
            raise ValueError(f"missing key(s) {missing}")
        for key in ("R", "steps"):
            v = doc[key]
            if not (isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**63):
                raise ValueError(f"{key}: expected a non-negative integer, got {v!r}")
        n = len(doc["site"]) if isinstance(doc["site"], list) else 0
        if n < 1 or doc["site"] != list(range(1, n + 1)):
            raise ValueError("site: expected the list 1..M-1")
        up = _site_field(doc, "L_plus", n, "i")
        down = _site_field(doc, "L_minus", n, "i")
        sojourn = wall_time = None
        if mode == "continuous":
            sojourn = _site_field(doc, "S", n, "f")
            unvisited = (sojourn == 0) & (up + down == 0)
            if not np.all(np.isfinite(sojourn) & ((sojourn > 0) | unvisited)):
                raise ValueError("S: entries must be finite, and positive at every visited site")
            wall_time = doc["wall_time"]
            if isinstance(wall_time, bool) or not isinstance(wall_time, (int, float)):
                raise ValueError(f"wall_time: expected a number, got {wall_time!r}")
            wall_time = float(wall_time)
        return cls(
            up=up,
            down=down,
            sojourn=sojourn,
            steps=doc["steps"],
            wall_time=wall_time,
            mode=mode,
            R=doc["R"],
        )


def _site_field(doc: dict, key: str, n: int, kinds: str) -> np.ndarray:
    """``doc[key]`` as a site-indexed array (slot 0 zero) of n entries whose
    dtype kind is in ``kinds``; integer counts must also be non-negative."""
    try:
        arr = np.asarray(doc[key], dtype=float if kinds == "f" else None)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (n,):
        raise ValueError(f"{key}: expected {n} numbers, one per site 1..M-1")
    if arr.dtype.kind not in kinds or (kinds == "i" and np.any(arr < 0)):
        raise ValueError(f"{key}: expected non-negative integer counts")
    return np.concatenate([np.zeros(1, dtype=arr.dtype), arr])


def _walk(
    env: _SiteModel,
    rng_dir: np.random.Generator,
    rng_time: np.random.Generator | None,
    replica: int,
    step_cap: int,
    trace: bool,
):
    """Core loop shared by both time models.

    Draws one uniform per step from the direction stream; the continuous
    mode additionally draws one exponential per visit from its own stream, so
    the embedded jump chain of the continuous walk coincides with the
    discrete walk for the same (master seed, replica).
    """
    M = env.M
    p = env.up_probabilities.tolist()
    up = [0] * M
    down = [0] * M
    continuous = rng_time is not None
    if continuous:
        sojourn = [0.0] * M
        fwd, bwd = env.jump_rates
        inv_rate = (1.0 / (fwd + bwd)).tolist()
        ebuf: list[float] = []
        ei = 0
        eblock = _BLOCK_INIT
    path = [1] if trace else None
    times = [0.0] if trace else None

    x = 1
    steps = 0
    clock = 0.0
    buf: list[float] = []
    bi = 0
    nbuf = 0
    block = _BLOCK_INIT
    while x != M:
        if continuous:
            if ei == len(ebuf):
                ebuf = rng_time.standard_exponential(eblock).tolist()
                ei = 0
                eblock = min(eblock * 8, _BLOCK_MAX)
            dt = ebuf[ei] * inv_rate[x]
            ei += 1
            sojourn[x] += dt
            clock += dt
        if bi == nbuf:
            buf = rng_dir.random(block).tolist()
            bi = 0
            nbuf = block
            block = min(block * 8, _BLOCK_MAX)
        u = buf[bi]
        bi += 1
        if u < p[x]:
            up[x] += 1
            x += 1
        else:
            down[x] += 1
            x -= 1
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(replica, step_cap)
        if trace:
            path.append(x)
            times.append(clock if continuous else float(steps))

    up_arr = np.array(up, dtype=np.int64)
    down_arr = np.array(down, dtype=np.int64)
    if continuous:
        soj_arr = np.array(sojourn)
        wall = float(np.sum(soj_arr))
    else:
        soj_arr = None
        wall = None
    return WalkStats(
        up=up_arr,
        down=down_arr,
        sojourn=soj_arr,
        steps=steps,
        wall_time=wall,
        mode="continuous" if continuous else "discrete",
        path=np.array(path, dtype=np.int64) if trace else None,
        path_times=np.array(times) if trace else None,
    )


def simulate_discrete_walk(
    env: _SiteModel,
    seed: SeedSpec,
    replica: int,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    trace: bool = False,
) -> WalkStats:
    """One discrete-time walk from site 1 to absorption at M, exact counts."""
    return _walk(env, seed.stream(replica, 0), None, replica, step_cap, trace)


def simulate_continuous_walk(
    env: _SiteModel,
    seed: SeedSpec,
    replica: int,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    trace: bool = False,
) -> WalkStats:
    """One continuous-time walk: discrete jump chain plus exponential sojourns."""
    return _walk(env, seed.stream(replica, 0), seed.stream(replica, 1), replica, step_cap, trace)


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def simulate_ensemble(
    env: _SiteModel,
    R: int,
    mode: str,
    seed: SeedSpec,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> AggregateStats:
    """Sum the statistics of R independent replicas (indices 0..R-1).

    Replica streams never interact, so the result is bit-identical for a
    fixed master seed; summation runs in replica order to keep the float
    sojourn sums reproducible as well.
    """
    _require_mode(mode)
    if R < 1:
        raise ValueError(f"replica count must be >= 1, got {R}")
    return _accumulate(env, mode, seed, [R], step_cap)[-1]


def accumulate_checkpoints(
    env: _SiteModel,
    mode: str,
    seed: SeedSpec,
    checkpoints: Sequence[int],
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> list[AggregateStats]:
    """Cumulative ensemble statistics at each R in ``checkpoints`` (one pass).

    Equivalent to simulate_ensemble at every checkpoint, since stats under a
    common master seed are nested in R.
    """
    _require_mode(mode)
    ckpts = [int(c) for c in checkpoints]
    if not ckpts or any(c < 1 for c in ckpts) or sorted(ckpts) != ckpts:
        raise ValueError("checkpoints must be a non-empty increasing list of R >= 1")
    return _accumulate(env, mode, seed, ckpts, step_cap)


def _accumulate(env, mode, seed, checkpoints, step_cap):
    M = env.M
    continuous = mode == "continuous"
    up = np.zeros(M, dtype=np.int64)
    down = np.zeros(M, dtype=np.int64)
    sojourn = np.zeros(M) if continuous else None
    steps = 0
    out = []
    next_ck = 0
    for replica in range(checkpoints[-1]):
        walk = (simulate_continuous_walk if continuous else simulate_discrete_walk)(
            env, seed, replica, step_cap=step_cap
        )
        up += walk.up
        down += walk.down
        steps += walk.steps
        if continuous:
            sojourn += walk.sojourn
        while next_ck < len(checkpoints) and replica + 1 == checkpoints[next_ck]:
            out.append(
                AggregateStats(
                    up=up.copy(),
                    down=down.copy(),
                    sojourn=sojourn.copy() if continuous else None,
                    steps=steps,
                    wall_time=float(np.sum(sojourn)) if continuous else None,
                    mode=mode,
                    R=checkpoints[next_ck],
                )
            )
            next_ck += 1
    return out


def zero_stats(M: int, mode: str, R: int = 0) -> AggregateStats:
    """Empty statistics (R = 0): the no-data / flat-likelihood case."""
    _require_mode(mode)
    return AggregateStats(
        up=np.zeros(M, dtype=np.int64),
        down=np.zeros(M, dtype=np.int64),
        sojourn=np.zeros(M) if mode == "continuous" else None,
        steps=0,
        wall_time=0.0 if mode == "continuous" else None,
        mode=mode,
        R=R,
    )


def verify_conservation(stats: WalkStats | AggregateStats) -> list[str]:
    """Check the flow identities; returns the violated ones (empty = valid).

    Per replica the walk crosses every edge net once, so L+_{M-1} = R,
    L-_x = L+_{x-1} - R for interior x, and the step total is the sum of all
    crossings.
    """
    R = stats.R if isinstance(stats, AggregateStats) else 1
    M = stats.M
    up, down = stats.up, stats.down
    bad = []
    if up[M - 1] != R:
        bad.append(f"up[M-1] = {up[M - 1]} != R = {R}")
    for x in (np.flatnonzero(down[2:] != up[1 : M - 1] - R) + 2).tolist():
        bad.append(f"down[{x}] = {down[x]} != up[{x - 1}] - R = {up[x - 1] - R}")
    if down[1] != 0 or down[0] != 0 or up[0] != 0:
        bad.append("padding slots (site 0, down[1]) must be zero")
    total = int(np.sum(up)) + int(np.sum(down))
    if stats.steps != total:
        bad.append(f"steps = {stats.steps} != sum of crossings = {total}")
    return bad
