"""Sequence environment, free-energy landscape and one-step transition law.

The number of open base pairs of a mechanically unzipped molecule performs a
nearest-neighbour walk on sites 1..M whose local drift is set by the
difference between the binding free energy g0 of the pair being opened
(including the stacking contribution of the next base) and the stretch work
g1 gained per opened pair.  Everything downstream (walk simulation, Bayesian
decoding, rate formulas) consumes the types defined here.

Site indexing is 1-based throughout: site-indexed arrays have ``arr[x]`` for
site ``x`` and slot 0 either holds the landscape origin ``g(0) = 0`` or is
unused padding.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "Base",
    "BASES",
    "BaseSequence",
    "EnergyTable",
    "ForceField",
    "ModelParams",
    "Environment",
    "EnergyEnvironment",
    "DEFAULT_G0",
    "hop_probability",
    "environment_from_json",
]


class Base(IntEnum):
    """The four bases, with the fixed total order A < T < C < G.

    The order is load-bearing: every tie in the package (MAP decoding,
    per-site estimates) is broken by it, so results stay deterministic.
    """

    A = 0
    T = 1
    C = 2
    G = 3

    @classmethod
    def from_letter(cls, letter: str) -> "Base":
        try:
            return cls[letter.upper()]
        except KeyError:
            raise ValueError(f"unknown base letter {letter!r}") from None


BASES: tuple[Base, ...] = (Base.A, Base.T, Base.C, Base.G)
_LETTERS = "".join(b.name for b in BASES)  # _LETTERS[b] is the letter of Base b
# Base members by value and by letter (either case); a member looks itself up
# by value, since it hashes and compares as its int
_BY_VALUE = {int(b): b for b in BASES}
_BY_LETTER = {**{b.name: b for b in BASES}, **{b.name.lower(): b for b in BASES}}


def _start_bases(b1: Base | None) -> list[Base]:
    """The bases a path may start from: b1, or all four when it is None."""
    return list(BASES) if b1 is None else [Base(b1)]


# _STEP_CODE[mask]: the one step a bit mask of allowed steps holds, or, at a
# fork or a dead end, -1 - mask
_STEP_CODE = np.array([m.bit_length() - 1 if m in (1, 2, 4, 8) else -1 - m for m in range(16)])


def _trellis_paths(
    allowed: np.ndarray, starts: list[int], cap: int
) -> tuple[list[list[int]], bool, tuple[int, int] | None]:
    """The paths of Base indices through a 4-state trellis, in Base order.

    A path starts at one of ``starts`` (in Base order) and steps from base u
    at site x to v at x+1 where ``allowed[x - 1, u, v]`` (shape (M-1, 4, 4)).
    The walk follows each base's one allowed step for as long as there is
    exactly one, and branches depth first at a fork, up to the path past
    ``cap``; each start is walked in turn.  Returns the first ``cap`` paths,
    whether more exist, and the first (site, base) reached at the deepest
    site whose row allows no step (None if none was reached).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    M = allowed.shape[0] + 1
    # mask[x - 1, u]: the steps allowed from u across edge x, bit v for base v.
    # A row of four bools read as a little-endian uint32 holds step v in byte
    # v, and the product gathers the four bytes' low bits into its top byte.
    rows = np.ascontiguousarray(allowed, dtype=bool).view("<u4")[..., 0]
    mask = (rows * np.uint32(0x01020408)) >> 24
    code = _STEP_CODE.take(mask).ravel().tolist()  # code[4 (x - 1) + u]
    end = 4 * (M - 1)
    path: list[int] = []
    paths: list[list[int]] = []
    dead_end = None
    stack = [(1, u) for u in reversed(starts)]
    while stack and len(paths) <= cap:
        x, u = stack.pop()
        del path[x - 1 :]
        path.append(u)
        for i in range(4 * (x - 1), end, 4):
            v = code[i + u]
            if v < 0:
                x = i // 4 + 1
                break
            path.append(v)
            u = v
        else:
            paths.append(path[:])
            continue
        steps = -1 - v
        if not steps and (dead_end is None or x > dead_end[0]):
            dead_end = (x, u)
        stack.extend((x + 1, v) for v in (3, 2, 1, 0) if steps >> v & 1)
    return paths[:cap], len(paths) > cap, dead_end


# Binding free energies (units of k_B T) for DNA at room temperature.
# Row = current base, column = next base; stacking makes the table asymmetric.
DEFAULT_G0: tuple[tuple[float, ...], ...] = (
    (1.78, 1.55, 2.52, 2.22),
    (1.06, 1.78, 2.28, 2.54),
    (2.54, 2.22, 3.14, 3.85),
    (2.28, 2.52, 3.90, 3.14),
)

# Tiniest positive double; hop probabilities are clamped into the open (0,1).
_TINY = math.ulp(0.0)
_ALMOST_ONE = math.nextafter(1.0, 0.0)


def _frozen_array(data, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _out_of_range(x, lo: int, hi: int) -> IndexError:
    """One-site accessors compare inline (_check_sites costs ~20x per call)."""
    return IndexError(f"site index {x} out of range [{lo}, {hi}]")


def _check_sites(x, lo: int, hi: int) -> np.ndarray:
    """``x``, a site or an array of sites, as an array (0-d for a site) once
    every entry lies in [lo, hi]; IndexError names the first that does not."""
    xs = np.asarray(x)
    outside = xs[(xs < lo) | (xs > hi)]
    if outside.size:
        raise _out_of_range(outside.flat[0], lo, hi)
    return xs


def _per_site(xs: np.ndarray, values: np.ndarray):
    """``values`` as a float when ``xs`` (from ``_check_sites``) is a single
    site, else as is."""
    return float(values) if xs.ndim == 0 else values


@dataclass(frozen=True)
class EnergyTable:
    """4x4 map (base, next base) -> binding free energy, in units of k_B T."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.shape != (4, 4):
            raise ValueError(f"energy table must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("energy table entries must be finite")
        object.__setattr__(self, "values", arr)

    @classmethod
    def default(cls) -> "EnergyTable":
        """The standard room-temperature table (A, T, C, G order)."""
        return cls(np.array(DEFAULT_G0))


@dataclass(frozen=True)
class BaseSequence:
    """A base sequence b_1..b_M, M >= 2.  Site M is the killing site."""

    bases: tuple[Base, ...]

    def __post_init__(self):
        bases = tuple(self.bases)
        try:
            bases = tuple(map(_BY_VALUE.__getitem__, bases))
        except (KeyError, TypeError):  # Base() raises the error naming the entry
            bases = tuple(map(Base, bases))
        if len(bases) < 2:
            raise ValueError("sequence length must be at least 2")
        object.__setattr__(self, "bases", bases)

    @classmethod
    def from_string(cls, letters: str) -> "BaseSequence":
        chars = tuple(letters)
        try:
            bases = tuple(map(_BY_LETTER.__getitem__, chars))
        except (KeyError, TypeError):  # from_letter raises the error naming the letter
            bases = tuple(map(Base.from_letter, chars))
        return cls(bases)

    def __len__(self) -> int:
        return len(self.bases)

    @cached_property
    def array(self) -> np.ndarray:
        """The bases as a read-only integer array: ``array[x - 1]`` is the
        Base index at site x."""
        return _frozen_array(np.frombuffer(bytes(self.bases), dtype=np.uint8), np.intp)

    def __str__(self) -> str:
        return "".join(map(_LETTERS.__getitem__, self.bases))

    def base(self, x: int) -> Base:
        """Base at 1-indexed site ``x``."""
        if not 1 <= x <= len(self.bases):
            raise _out_of_range(x, 1, len(self.bases))
        return self.bases[x - 1]


@dataclass(frozen=True)
class ForceField:
    """Per-site stretch work g1 for sites 1..M-1 (units of k_B T).

    A constant force is just the filled constant field, so the site-dependent
    schedules of the force protocols share one code path with the basic model.
    """

    per_site: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.per_site)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("force field needs at least one site entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("force field entries must be finite")
        object.__setattr__(self, "per_site", arr)

    @classmethod
    def constant(cls, value: float, n_sites: int) -> "ForceField":
        return cls(np.full(n_sites, float(value)))

    def __len__(self) -> int:
        return self.per_site.size


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature beta and the continuous-time rate scale r."""

    beta: float = 1.0
    rate_scale: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.rate_scale > 0 and math.isfinite(self.rate_scale)):
            raise ValueError(f"rate_scale must be positive, got {self.rate_scale}")


def hop_probability(dg: float, beta: float) -> float:
    """Probability 1 / (1 + e^(beta*dg)) of opening one more pair.

    Evaluated branch-wise through e^(-|beta*dg|) so large energies neither
    overflow nor return an exact 0 or 1; the result lies in the open (0, 1).
    """
    z = beta * dg
    if z >= 0:
        e = math.exp(-z) if z < 745.0 else 0.0
        p = e / (1.0 + e)
        return p if p > 0.0 else _TINY
    e = math.exp(z) if z > -745.0 else 0.0
    p = 1.0 / (1.0 + e)
    return p if p < 1.0 else _ALMOST_ONE


class _SiteModel:
    """Shared site-level accessors for base-backed and raw-energy environments.

    Subclasses provide ``edge_g0`` (length M, slot 0 unused) with the binding
    energy of edge x for x = 1..M-1.
    """

    @property
    def M(self) -> int:
        raise NotImplementedError

    @property
    def beta(self) -> float:
        return self.params.beta

    @property
    def rate(self) -> float:
        return self.params.rate_scale

    @cached_property
    def g1_padded(self) -> np.ndarray:
        """Length M array with ``arr[x]`` = g1 at site x; slot 0 unused."""
        return _frozen_array(np.concatenate([[0.0], self.force.per_site]))

    @cached_property
    def profile(self) -> np.ndarray:
        """Landscape g(0..M-1) with g(0) = 0; valleys trap the walk."""
        g = np.zeros(self.M)
        g[1:] = np.cumsum(self.edge_g0[1:] - self.g1_padded[1:])
        g.setflags(write=False)
        return g

    @cached_property
    def log_inv_pbar(self) -> np.ndarray:
        """log(1 / p_bar_x) for x = 0..M-1, by one reverse cumulative logaddexp.

        1 / p_bar_x = 1 + sum_{k=x+1..M-1} exp(beta * (g(k) - g(x))); p_bar_x
        is the probability that a walk at x+1 reaches M before falling back
        to x, so log(1 / p_bar_{M-1}) = 0.  Slot 0 holds 0 by convention
        (site 1 is crossed upward on first touch).
        """
        bg = self.beta * self.profile
        tail = np.full(self.M, -np.inf)  # log sum_{k > x} e^{bg[k]}
        tail[:-1] = np.logaddexp.accumulate(bg[:0:-1])[::-1]
        out = np.logaddexp(0.0, tail - bg)
        out[0] = 0.0
        out.setflags(write=False)
        return out

    @cached_property
    def log_steps_per_walk(self) -> float:
        """log of the expected steps of one walk, sum_{x=1..M-1} (1/p_bar_{x-1}
        + 1/p_bar_x - 1) = 2 S - (M - 1) with S = sum_x 1/p_bar_x >= M - 1
        (1/p_bar_0 = 1/p_bar_{M-1} = 1), formed in log space."""
        log_s = float(np.logaddexp.reduce(self.log_inv_pbar[1:]))
        return log_s + math.log(2.0 - (self.M - 1) * math.exp(-log_s))

    @cached_property
    def jump_rates(self) -> np.ndarray:
        """Continuous-time rates out of each site: row 0 forward,
        r e^(-beta g0(x)), row 1 backward, r e^(-beta g1(x)); column 0 is
        unused, and the backward rate at site 1 is 0 (the first pair is
        always open, so the walk can only advance from there)."""
        out = self.rate * np.exp(-self.beta * np.stack([self.edge_g0, self.g1_padded]))
        out[1, 1] = 0.0
        out.setflags(write=False)
        return out

    @cached_property
    def up_probabilities(self) -> np.ndarray:
        """p_x for x = 1..M-1 (slot 0 unused).  p_1 = 1: site 1 is always open."""
        p = np.zeros(self.M)
        p[1] = 1.0
        beta = self.beta
        for x in range(2, self.M):
            p[x] = hop_probability(self.edge_g0[x] - self.g1_padded[x], beta)
        p.setflags(write=False)
        return p


@dataclass(frozen=True)
class Environment(_SiteModel):
    """A base sequence with its energy table, force field and parameters."""

    seq: BaseSequence
    table: EnergyTable
    force: ForceField
    params: ModelParams

    def __post_init__(self):
        if len(self.force) != len(self.seq) - 1:
            raise ValueError(
                f"force field has {len(self.force)} sites, expected M-1 = {len(self.seq) - 1}"
            )

    @property
    def M(self) -> int:
        return len(self.seq)

    @cached_property
    def edge_g0(self) -> np.ndarray:
        b = self.seq.array
        return _frozen_array(np.concatenate([[0.0], self.table.values[b[:-1], b[1:]]]))


@dataclass(frozen=True)
class EnergyEnvironment(_SiteModel):
    """Environment given by raw per-site binding energies, no base identities.

    This is the force-protocol view: transitions are driven by the energy
    sequence g0(1..M-1) directly.
    """

    energies: tuple[float, ...]
    force: ForceField
    params: ModelParams

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        if len(energies) < 1:
            raise ValueError("need at least one site energy")
        if not all(math.isfinite(e) for e in energies):
            raise ValueError("site energies must be finite")
        if len(self.force) != len(energies):
            raise ValueError(
                f"force field has {len(self.force)} sites, expected {len(energies)}"
            )
        object.__setattr__(self, "energies", energies)

    @property
    def M(self) -> int:
        return len(self.energies) + 1

    @cached_property
    def edge_g0(self) -> np.ndarray:
        return _frozen_array(np.concatenate([[0.0], self.energies]))


_ENV_KEYS = {"sequence", "g0", "beta", "r", "g1"}


def _is_number(value) -> bool:
    """Whether ``value`` is a number; numpy would also read a string or a
    bool as one."""
    return type(value) in (int, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)))


def _number(key: str, value) -> float:
    if not _is_number(value):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _require_numbers(key: str, value) -> None:
    """Refuse the first entry of ``value``, a list (of lists), that is not a
    number, naming it by its index."""
    if isinstance(value, list) and set(map(type, value)) <= {int, float}:
        return
    for index, entry in np.ndenumerate(np.asarray(value, dtype=object)):
        if not _is_number(entry):
            what = f"entry {', '.join(map(str, index))} must be" if index else "expected"
            raise ValueError(f"{key}: {what} a number, got {entry!r}")


def environment_from_json(doc: str | dict) -> Environment:
    """Build an Environment from a JSON document (string or parsed dict).

    Schema: {"sequence": "ACGT...", "g0": 4x4 array in A,T,C,G order
    (optional, defaults to the standard table), "beta": float, "r": float,
    "g1": float | array of length M-1}.  Unknown keys are rejected, and so
    are strings and bools where numbers are expected.
    """
    data = json.loads(doc) if isinstance(doc, str) else dict(doc)
    unknown = set(data) - _ENV_KEYS
    if unknown:
        raise ValueError(f"unknown environment key(s): {sorted(unknown)}")
    for key in ("sequence", "beta", "r", "g1"):
        if key not in data:
            raise ValueError(f"environment document missing required key {key!r}")
    if not isinstance(data["sequence"], str):
        raise ValueError(f"sequence: expected a string of bases, got {data['sequence']!r}")
    seq = BaseSequence.from_string(data["sequence"])
    if "g0" in data:
        _require_numbers("g0", data["g0"])
    table = EnergyTable(np.array(data["g0"])) if "g0" in data else EnergyTable.default()
    g1 = data["g1"]
    if isinstance(g1, (list, tuple, np.ndarray)):
        _require_numbers("g1", g1)
        force = ForceField(np.asarray(g1, dtype=float))
    else:
        force = ForceField.constant(_number("g1", g1), len(seq) - 1)
    params = ModelParams(beta=_number("beta", data["beta"]), rate_scale=_number("r", data["r"]))
    return Environment(seq, table, force, params)
