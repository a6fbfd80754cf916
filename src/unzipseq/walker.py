"""Killed birth-death walk simulation and sufficient-statistic accumulation.

A replica starts at site 1 (the first pair is always open), moves up with
probability p_x (p_1 = 1) or down otherwise, and is absorbed on first hitting
site M.  Only the sufficient statistics are retained: per-site up-counts
L+_x, down-counts L-_x, sojourn times S_x (continuous mode), and the total
step count.  Full paths are recorded only in the optional trace mode.  Every
entry point takes the time model as its ``mode`` argument: ``simulate_walk``
runs one replica, ``simulate_ensemble`` and ``accumulate_checkpoints`` sum
replicas 0..R-1.

Replica streams are derived counter-style from (master seed, replica index),
so an ensemble is reproducible bit-for-bit no matter how its replicas are
scheduled, and stats at R1 < R2 under one master seed are nested.  Ensembles
use that freedom: a chunk of replicas steps in lockstep, and the few
replicas still walking at the end finish one by one in the scalar loop.  A
PCG64 stream is 256 bits of state, so a chunk holds each kind of stream as
one (n, 4) array of its replicas' PCG64 states, computed in one numpy pass
from their seeds, and reads them all through one generator per kind: the
generator's pointer to its C state is pointed at a replica's row, and a
block drawn then reads and advances that row in place.  Each stream is read
strictly in order, so the results equal those of single walks summed in
replica order, bit for bit, whatever the draw block sizes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import _SiteModel, _require_numbers

__all__ = [
    "SeedSpec",
    "AggregateStats",
    "StepCapExceeded",
    "DEFAULT_STEP_CAP",
    "simulate_walk",
    "simulate_ensemble",
    "accumulate_checkpoints",
    "verify_conservation",
    "zero_stats",
]

DEFAULT_STEP_CAP = 10**9
# RNG draws are buffered; blocks start small (typical walks take only a few
# steps) and grow geometrically so long walks amortize the draw overhead.  A
# walk alone steps through each block in one Python loop.
_BLOCK_INIT = 64
_BLOCK_MAX = 16384
# Ensembles step chunks of up to _CHUNK replicas together; a chunk's
# per-replica site rows stay within _CHUNK_CELLS cells.  Its draw buffer holds
# _DRAW_BUDGET draws per stream, shared by the live replicas, each drawing
# its block into a row of its own: a full chunk draws _BLOCK_INIT per
# replica at first, and no block is ever empty, since no more than _CHUNK
# replicas share it.
# Live replicas step in windows of _WINDOW_CELLS // live steps (6 for a
# full chunk, 30 for 200 replicas): a step only finds each replica's move,
# and a window's counts and sojourns are added once at its end, where its
# move log, time draws and their rates are three arrays of that many cells.
# Absorbed replicas are dropped between windows, and once fewer than
# _LOCKSTEP_MIN are live each finishes alone in _walk.  A lockstep step's
# four numpy calls cost about as much as 15-20 scalar steps (~100 ns each in
# discrete time, ~185 ns in continuous time, draws included), and ensembles
# run at the same speed, within 3%, with the floor anywhere from 12 to 24 in
# either time model.
_CHUNK = 1024
_CHUNK_CELLS = 2**16
_DRAW_BUDGET = _CHUNK * _BLOCK_INIT
_WINDOW_CELLS = 6 * _CHUNK
_LOCKSTEP_MIN = 16

MODES = ("discrete", "continuous")


class StepCapExceeded(RuntimeError):
    """A replica exceeded the hard step cap before reaching site M, or
    (``replica`` None) an ensemble whose expected walk length is over the cap
    was refused before its first step.

    Deep valleys at low force make absorption astronomically slow; aborting
    loudly beats silent truncation of the statistics.
    """

    def __init__(self, replica: int | None, cap: int, message: str | None = None):
        super().__init__(message or f"replica {replica} exceeded step cap {cap} before absorption")
        self.replica = replica
        self.cap = cap


def _require_finishable(env: _SiteModel, step_cap: int) -> None:
    """Refuse walks whose analytic expected length is over the step cap
    (compared in log space: a deep valley's expectation overflows a float)."""
    log_steps = env.log_steps_per_walk
    if step_cap < 1 or log_steps > math.log(step_cap):
        raise StepCapExceeded(None, step_cap, f"expected 10^{log_steps / math.log(10):.1f} "
                              f"steps per walk, over the step cap {step_cap}; "
                              "raise the force or the step cap")


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


# numpy's SeedSequence constants (pool of four uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of SeedSequence's first n hash calls,
    as (n, 1) columns: the constant advances once per call, whatever the data."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> 16)


def _stream_words(seed: SeedSpec, replicas: np.ndarray, substreams) -> np.ndarray:
    """The PCG64 seed of ``seed.stream(r, s)`` for every replica r and its
    substream s, shape (n, 4): ``SeedSequence(master, spawn_key=prefix + (r,
    s)).generate_state(4, uint64)`` run over uint32 arrays.  ``substreams``,
    each under 2**32, is one int or an array as long as ``replicas``.  Words
    that do not depend on r or s are hashed once, as (1,) arrays that
    broadcast against the others.  Replicas of 2**32 or more take a second
    key word, so they are hashed as a group of their own."""
    replicas = np.asarray(replicas, dtype=np.uint64)
    substreams = np.broadcast_to(np.asarray(substreams, dtype=np.uint32), replicas.shape)
    master = _uint32_words(seed.master)
    # a spawn key pads the master's words to the pool size
    head = master + [0] * (4 - len(master)) + [w for k in seed.prefix for w in _uint32_words(k)]
    head = [np.full(1, w, np.uint32) for w in head]
    lo = (replicas & np.uint64(_MASK32)).astype(np.uint32)
    hi = (replicas >> np.uint64(32)).astype(np.uint32)
    out = np.empty((replicas.size, 4), dtype=np.uint64)
    for wide in (False, True):
        sel = (hi != 0) == wide
        if not sel.any():
            continue
        entropy = head + ([lo[sel], hi[sel]] if wide else [lo[sel]]) + [substreams[sel]]
        xor, mul = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
        pool = _hashmix(np.stack(entropy[:4]), xor[:4], mul[:4])
        k = 4
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mul[k : k + 3]))
            k += 3
        for word in entropy[4:]:
            pool = _mix(pool, _hashmix(word, xor[k : k + 4], mul[k : k + 4]))
            k += 4
        xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
        state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
        out[sel] = (state[0::2] | (state[1::2] << np.uint64(32))).T
    return out


# PCG64's 128-bit LCG multiplier (O'Neill 2014), as (high, low) words
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b of uint64 arrays."""
    m32 = np.uint64(_MASK32)
    s32 = np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    lo, mid_a, mid_b = a0 * b0, a0 * b1, a1 * b0
    carry = ((lo >> s32) + (mid_a & m32) + (mid_b & m32)) >> s32
    return a1 * b1 + (mid_a >> s32) + (mid_b >> s32) + carry


def _stream_states(seed: SeedSpec, replicas: np.ndarray, substreams) -> np.ndarray:
    """The PCG64 state of ``seed.stream(r, s)`` for every replica r and its
    substream s (as in _stream_words) before its first draw, shape (n, 4),
    each row in the word order of PCG64's C state (see _word_order).  PCG64
    seeds from the words w of _stream_words, read as 128-bit (high, low)
    pairs: inc = 2 w[2:4] + 1 and state = (inc + w[0:2]) mult + inc, mod
    2**128."""
    w = _stream_words(seed, replicas, substreams).T
    one, s63 = np.uint64(1), np.uint64(63)
    inc_hi = (w[2] << one) | (w[3] >> s63)
    inc_lo = (w[3] << one) | one
    lo = inc_lo + w[1]
    hi = inc_hi + w[0] + (lo < inc_lo)
    m_hi, m_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    prod_lo = lo * m_lo
    prod_hi = _mul_hi(lo, m_lo) + lo * m_hi + hi * m_lo
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    out = np.empty((w.shape[1], 4), dtype=np.uint64)
    out[:, list(_word_order())] = np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)
    return out


@functools.cache
def _word_order() -> tuple[int, int, int, int]:
    """Where PCG64's C state keeps the (high, low) words of its state and of
    its increment, as their four positions in a row of _stream_states: a
    _shared_stream is pointed at a row of four known words, and the public
    ``state`` getter reports which is which."""
    gen, state = _shared_stream()
    words = (0x0123456789ABCDEF, 0x1122334455667788, 0x2233445566778899, 0x3344556677889901)
    row = np.array([words], dtype=np.uint64)
    own = state.value
    state.value = _state_address(row)
    try:
        got = gen.bit_generator.state["state"]
    finally:
        state.value = own
    found = [*divmod(got["state"], 2**64), *divmod(got["inc"], 2**64)]
    if sorted(found) != sorted(words):
        raise RuntimeError(f"numpy {np.__version__}: PCG64's C state does not hold its "
                           "state and increment as four 64-bit words")
    return tuple(words.index(word) for word in found)


def _shared_stream() -> tuple[np.random.Generator, "ctypes.c_void_p"]:
    """A generator that reads any replica's stream of one kind, and a
    writable handle on the pointer to its C state, the 128-bit LCG state and
    increment that each draw reads and advances.  Pointed at a row of
    _stream_states (see _state_address), the generator draws
    that replica's stream in place.  The handle does not keep the generator
    alive, so it is only ever held beside it, and it must point back at the
    generator's own state (its ``value`` when made) before the generator is
    freed, which frees what it points at.  Only ``random`` and
    ``standard_exponential`` are drawn from it: neither reads the
    ``has_uint32`` word PCG64 caches for 32-bit draws, so the four state
    words are the whole of a stream's position."""
    import ctypes  # only ensembles use it

    gen = np.random.Generator(np.random.PCG64(0))
    # ctypes.state_address is numpy's pcg64_state, whose first field points
    # at the {state, inc} pair
    return gen, ctypes.c_void_p.from_address(gen.bit_generator.ctypes.state_address)


def _state_address(states: np.ndarray) -> int:
    """The address of the (n, 4) uint64 ``states``, whose row r, 32 r bytes
    on, a _shared_stream pointer may point at.  The C state is two 128-bit
    integers, which compiled code may load as 16-byte aligned."""
    address = states.__array_interface__["data"][0]
    if not states.flags.c_contiguous or address % 16:
        raise RuntimeError("PCG64 state rows must be contiguous and 16-byte aligned")
    return address


@dataclass(frozen=True)
class AggregateStats:
    """Sufficient statistics of R walks, summed in replica order; a single
    walk is R = 1.

    Arrays are site-indexed with slot 0 unused: ``up[x]`` counts x -> x+1
    moves for x = 1..M-1, ``down[x]`` counts x -> x-1 moves for x = 2..M-1,
    ``sojourn[x]`` holds total time at x (continuous mode, else None).  A
    traced single walk also carries its sites and times as ``path`` and
    ``path_times``.
    """

    up: np.ndarray
    down: np.ndarray
    sojourn: np.ndarray | None
    steps: int
    wall_time: float | None
    mode: str
    R: int
    path: np.ndarray | None = None
    path_times: np.ndarray | None = None

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
    """``doc[key]`` as a site-indexed array (slot 0 zero) of n numbers whose
    dtype kind is in ``kinds``; integer counts must also be non-negative."""
    _require_numbers(key, doc[key])
    try:
        arr = np.asarray(doc[key], dtype=float if kinds == "f" else None)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (n,):
        raise ValueError(f"{key}: expected {n} numbers, one per site 1..M-1")
    if arr.dtype.kind not in kinds or (kinds == "i" and np.any(arr < 0)):
        raise ValueError(f"{key}: expected non-negative integer counts")
    return np.concatenate([np.zeros(1, dtype=arr.dtype), arr])


def _site_tables(env: _SiteModel, continuous: bool) -> tuple[list[float], list[float] | None]:
    """_walk's per-site tables as lists: p_x and, in continuous time, the
    mean holding time 1 / (forward + backward rate) at x."""
    p = env.up_probabilities.tolist()
    if not continuous:
        return p, None
    fwd, bwd = env.jump_rates
    return p, (1.0 / (fwd + bwd)).tolist()


def _steps(M, p, up, down, x, us):
    """Step from site x on the direction draws ``us`` until they run out or
    the walk is absorbed at M; returns the site reached."""
    for u in us:
        if u < p[x]:
            up[x] += 1
            x += 1
            if x == M:
                break
        else:
            down[x] += 1
            x -= 1
    return x


def _timed_steps(M, p, inv_rate, up, down, sojourn, x, us, es):
    """_steps in continuous time: each step first adds its time draw e,
    over the total jump rate at x, to sojourn[x]."""
    for u, e in zip(us, es):
        sojourn[x] += e * inv_rate[x]
        if u < p[x]:
            up[x] += 1
            x += 1
            if x == M:
                break
        else:
            down[x] += 1
            x -= 1
    return x


def _walk(tables, streams, replica, step_cap, rows, x=1, steps=0, unread=((), ()), trace=None):
    """Walk on from site ``x``, ``steps`` steps in, to absorption at M,
    adding each move to the count ``rows`` (up, down and, in continuous time,
    sojourn lists) in place.  Core loop shared by both time models.

    Each step reads one uniform from the direction stream; in continuous
    time also one exponential from the time stream, so the embedded jump
    chain of the continuous walk coincides with the discrete walk for the
    same (master seed, replica).  The ``unread`` draws already taken from
    the (direction, time) ``streams`` are read first.  Draws come in blocks,
    each stepped through in one loop; a block is cut to the steps left under
    ``step_cap``, and the walk raises once none is left.  ``trace``, a list
    of sites and a list of times, gets the site and time after every step:
    a traced walk steps through each block one draw at a time.
    """
    p, inv_rate = tables
    M = len(p)
    if inv_rate is None:
        step = functools.partial(_steps, M, p, *rows)
    else:
        step = functools.partial(_timed_steps, M, p, inv_rate, *rows)
    block = _BLOCK_INIT
    draws = unread[: len(streams)]
    while x != M:
        left = step_cap - steps
        if left < 1:
            raise StepCapExceeded(replica, step_cap)
        if not draws[0]:
            n = min(block, left)
            block = min(8 * block, _BLOCK_MAX)
            draws = [streams[0].random(n).tolist()]
            draws += [gen.standard_exponential(n).tolist() for gen in streams[1:]]
        elif len(draws[0]) > left:
            draws = [d[:left] for d in draws]
        if trace is None:
            x = step(x, *draws)
        else:
            sites, times = trace
            for i in range(len(draws[0])):
                was = x
                x = step(x, *(d[i : i + 1] for d in draws))
                sites.append(x)
                times.append(times[-1] + draws[1][i] * inv_rate[was] if inv_rate is not None
                             else float(steps + i + 1))
                if x == M:
                    break
        steps += len(draws[0])
        draws = ((),)


def simulate_walk(
    env: _SiteModel,
    mode: str,
    seed: SeedSpec,
    replica: int,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    trace: bool = False,
) -> AggregateStats:
    """One walk from site 1 to absorption at M, exact counts; in continuous
    time also exponential sojourns, drawn from the replica's second stream.

    Stopped only by ``step_cap``: unlike ensembles, single walks (the reference
    the fuzz tests run a million of) skip the ~0.1 ms expected-length check.
    """
    _require_mode(mode)
    continuous = mode == "continuous"
    rows = [[0] * env.M, [0] * env.M] + ([[0.0] * env.M] if continuous else [])
    trace = ([1], [0.0]) if trace else None
    streams = [seed.stream(replica, sub) for sub in range(1 + continuous)]
    _walk(_site_tables(env, continuous), streams, replica, step_cap, rows, trace=trace)
    sojourn = np.array(rows[2]) if continuous else None
    return AggregateStats(
        up=np.array(rows[0], dtype=np.int64),
        down=np.array(rows[1], dtype=np.int64),
        sojourn=sojourn,
        steps=sum(rows[0]) + sum(rows[1]),
        wall_time=float(np.sum(sojourn)) if continuous else None,
        mode=mode,
        R=1,
        path=np.array(trace[0], dtype=np.int64) if trace else None,
        path_times=np.array(trace[1]) if trace else None,
    )


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
    sojourn sums reproducible as well.  Walks expected to outlast
    ``step_cap`` are refused before the first step (replica None).
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
    common master seed are nested in R; refused as it is.
    """
    _require_mode(mode)
    ckpts = [int(c) for c in checkpoints]
    if not ckpts or any(c < 1 for c in ckpts) or sorted(ckpts) != ckpts:
        raise ValueError("checkpoints must be a non-empty increasing list of R >= 1")
    return _accumulate(env, mode, seed, ckpts, step_cap)


def _accumulate(env, mode, seed, checkpoints, step_cap):
    """Replica sums at each checkpoint, one chunk of replicas at a time.

    Each chunk's per-replica rows are summed in replica order onto the totals
    carried from the chunks before it, so every float sum is the one that
    adding single walks in replica order gives.
    """
    _require_finishable(env, step_cap)
    continuous = mode == "continuous"
    chunk = _chunk_size(env.M)
    totals = None
    out = []
    next_ck = 0
    for lo in range(0, checkpoints[-1], chunk):
        hi = min(lo + chunk, checkpoints[-1])
        parts = _lockstep(env, seed, lo, hi, continuous, step_cap)
        if totals is not None:
            for part, total in zip(parts, totals):
                part[0] += total
        sums = [np.cumsum(part, axis=0) for part in parts]
        totals = [s[-1].copy() for s in sums]
        while next_ck < len(checkpoints) and checkpoints[next_ck] <= hi:
            up, down, *sojourn = (s[checkpoints[next_ck] - lo - 1] for s in sums)
            sojourn = sojourn[0].copy() if continuous else None
            out.append(
                AggregateStats(
                    up=up.copy(),
                    down=down.copy(),
                    sojourn=sojourn,
                    steps=int(up.sum() + down.sum()),
                    wall_time=float(np.sum(sojourn)) if continuous else None,
                    mode=mode,
                    R=checkpoints[next_ck],
                )
            )
            next_ck += 1
        # the next chunk walks without this one's rows held
        del parts, sums
    return out


def _chunk_size(M: int) -> int:
    """Replicas per lockstep chunk on an M-site chain."""
    return max(1, min(_CHUNK, _CHUNK_CELLS // M))


def _lockstep(env, seed, lo, hi, continuous, step_cap):
    """Walk replicas lo..hi-1 together, in windows of lockstep steps.

    Returns their per-replica rows: up and down counts and, in continuous
    mode, sojourns, each of shape (n, M).

    Replica lo + r at site x is in cell c = 2x of its own row, which starts
    at ``base`` = 2 (M+1) r of the count array.  Its move is c + d (d = 0
    up, 1 down): ``counts[base + c + d]`` counts it, ``sojourn[(base + c +
    d) >> 1]``, cell (M+1) r + x, adds its time, and the site table
    ``dest[c + d]`` is the cell it leads to.  Site M is a sink: p = 2 there,
    so an absorbed replica moves "up" onto itself, adding nothing but to the
    discarded column M, until the end of the window drops it.  A refill
    draws each live replica's next block straight into its own row of the
    draw buffer (row ``slot`` of each stream kind), and live replicas share
    one step count, so a window of steps reads the same columns of each live
    replica's row.  A step only logs each move; at the window's end
    ``np.add.at``, which is unbuffered, adds the log to the counts and, with
    the time draws over the rates of the cells left, to the sojourns, each
    replica's terms in step order, as _walk adds them.  Each replica's
    stream of each kind is its row of ``states``, read in place through that
    kind's shared generator: a refill points the generator at a live
    replica's row and draws its next block, which advances the row.  Once
    fewer than _LOCKSTEP_MIN are live, or the step cap is reached, each
    survivor resumes alone in _walk on the shared generators, pointed at its
    rows, on site tables built once for the chunk, in replica order, so a
    trapped chunk raises StepCapExceeded for its lowest replica over the
    cap.  The generators point back at their own states on the way out,
    also when that is raised.
    """
    M = env.M
    n = hi - lo
    kinds = 1 + continuous
    stride = 2 * (M + 1)
    ids = np.tile(np.arange(lo, hi, dtype=np.uint64), kinds)
    states = _stream_states(seed, ids, np.arange(kinds).repeat(n)).reshape(kinds, n, 4)
    addresses = [_state_address(rows) for rows in states]
    streams = [_shared_stream() for _ in addresses]
    own = [state.value for _, state in streams]
    p = np.append(env.up_probabilities, 2.0).repeat(2)
    dest = np.arange(stride) + np.tile([2, -3], M + 1)
    dest[2 * M] = 2 * M
    counts = np.zeros(n * stride, dtype=np.int64)
    rows = [counts[d::2].reshape(n, M + 1)[:, :M] for d in (0, 1)]
    if continuous:
        fwd, bwd = env.jump_rates
        inv_rate = np.append(1.0 / (fwd + bwd), 0.0).repeat(2)
        sojourn = np.zeros(n * (M + 1))
        rows.append(sojourn.reshape(n, M + 1)[:, :M])
    base = stride * np.arange(n)
    cell = np.full(n, 2)
    slot = np.arange(n)
    draws = np.empty((kinds, n, 0))
    buffer = None
    step = col = 0
    try:
        while step < step_cap:
            live = p[cell] <= 1.0
            base, cell, slot = base[live], cell[live], slot[live]
            if cell.size < _LOCKSTEP_MIN:
                break
            if col == draws.shape[2]:
                # refill: the next draws of each live replica's streams,
                # each block drawn from its state row into its draw row
                width = _DRAW_BUDGET // cell.size
                if buffer is None:
                    buffer = np.empty((kinds, _DRAW_BUDGET))
                draws = buffer[:, : width * cell.size].reshape(kinds, cell.size, width)
                offsets = 32 * (base // stride)
                for sub, ((gen, state), address) in enumerate(zip(streams, addresses)):
                    draw = gen.standard_exponential if sub else gen.random
                    for row_at, out in zip((offsets + address).tolist(), draws[sub]):
                        state.value = row_at
                        draw(out=out)
                slot = np.arange(cell.size)
                col = 0
            span = min(_WINDOW_CELLS // cell.size, draws.shape[2] - col, step_cap - step)
            # indexing, not np.take, which would first copy the strided columns
            window = draws[0, slot, col : col + span]
            log = np.empty(window.shape, dtype=cell.dtype)
            for u, move in zip(window.T, log.T):
                np.add(cell, u >= p[cell], out=move)
                cell = dest[move]
            if continuous:
                # inv_rate[c + d] = inv_rate[c], of the cell the move left
                window = draws[1, slot, col : col + span]
                window *= inv_rate[log]
            log += base[:, None]
            flat = log.ravel()  # np.add.at is ~5x slower on 2-d float values
            np.add.at(counts, flat, 1)
            if continuous:
                flat >>= 1
                np.add.at(sojourn, flat, window.ravel())
            del window, log, flat  # not held through the next refill
            step += span
            col += span
        live = p[cell] <= 1.0
        tables = _site_tables(env, continuous)
        gens = [gen for gen, _ in streams]
        for b, c, s in zip(base[live].tolist(), cell[live].tolist(), slot[live].tolist()):
            r = b // stride
            for (_, state), address in zip(streams, addresses):
                state.value = address + 32 * r
            walk = [part[r].tolist() for part in rows]
            unread = [d[s, col:].tolist() for d in draws]
            _walk(tables, gens, lo + r, step_cap, walk, c // 2, step, unread)
            for part, row in zip(rows, walk):
                part[r] = row
    finally:
        for (_, state), address in zip(streams, own):
            state.value = address
    return rows


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


def verify_conservation(stats: AggregateStats) -> list[str]:
    """Check the flow identities; returns the violated ones (empty = valid).

    Per replica the walk crosses every edge net once, so L+_{M-1} = R,
    L-_x = L+_{x-1} - R for interior x, and the step total is the sum of all
    crossings.
    """
    R, M = stats.R, stats.M
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
