"""Force schedules that sharpen the inference: windows, ladders, flips.

Two refinements over the constant-force experiment.  A position-dependent
force window traps the walk around a site of interest, boosting the visit
count there.  A decreasing force ladder interleaved with the distinct
binding-energy values turns each site's drift sign into a direct readout of
its energy: under force level k the down/up crossing ratio at x concentrates
on e^(beta (g0(x) - r_k)), so the first level at which the ratio crosses 1
identifies g0(x).  The estimators here work on raw energy sequences; mapping
energies back to bases is a separate (sometimes ambiguous) reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    BASES,
    Base,
    BaseSequence,
    EnergyEnvironment,
    EnergyTable,
    ForceField,
    ModelParams,
    _check_sites,
    _per_site,
    _start_bases,
    _trellis_paths,
)
from .rates import gap_value
from .walker import (
    DEFAULT_STEP_CAP,
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    _require_finishable,
    simulate_ensemble,
)

__all__ = [
    "LevelLadder",
    "window_schedule",
    "ProtocolPlan",
    "PlanLevel",
    "build_protocol",
    "ProtocolAbort",
    "run_protocol",
    "EnergyEstimate",
    "estimate_energy",
    "HMargins",
    "h_margins",
    "rc_energy",
    "ReconstructionResult",
    "sequence_from_energies",
]

SCHEMES = ("uniform-pair", "focus-at-x", "absorbing-tail")


def _ladder_violations(mu: tuple[float, ...], r: tuple[float, ...]) -> list[str]:
    """The interlacing inequalities a force ladder breaks, in check order.

    Requirements: mu strictly decreasing (K distinct energies), r strictly
    decreasing with r_{K+1} = 0, and for every k: mu_k - r_k < 0,
    mu_k - r_{k+1} > 0, and mu_i - r_{k+1} < 0 for all i > k.  Together these
    pin the interleaving r_1 > mu_1 > r_2 > mu_2 > ... > r_K > mu_K > 0.
    """
    bad: list[str] = []
    K = len(mu)
    if K < 1:
        bad.append("need at least one energy level")
    if len(r) != K + 1:
        bad.append(f"need K+1 = {K + 1} force values, got {len(r)}")
        return bad
    for i in range(K - 1):
        if not mu[i] > mu[i + 1]:
            bad.append(f"mu[{i + 1}] > mu[{i + 2}] violated: {mu[i]} <= {mu[i + 1]}")
    for i in range(K):
        if not r[i] > r[i + 1]:
            bad.append(f"r[{i + 1}] > r[{i + 2}] violated: {r[i]} <= {r[i + 1]}")
    if r[K] != 0.0:
        bad.append(f"r[K+1] must be 0, got {r[K]}")
    for k in range(1, K + 1):
        if not mu[k - 1] - r[k - 1] < 0:
            bad.append(f"mu[{k}] - r[{k}] < 0 violated ({mu[k - 1]} - {r[k - 1]})")
        if not mu[k - 1] - r[k] > 0:
            bad.append(f"mu[{k}] - r[{k + 1}] > 0 violated ({mu[k - 1]} - {r[k]})")
        for i in range(k + 1, K + 1):
            if not mu[i - 1] - r[k] < 0:
                bad.append(f"mu[{i}] - r[{k + 1}] < 0 violated ({mu[i - 1]} - {r[k]})")
    return bad


@dataclass(frozen=True)
class LevelLadder:
    """Energy levels mu_1 > ... > mu_K and forces r_1 > ... > r_K > r_{K+1} = 0."""

    mu: tuple[float, ...]
    r_levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "r_levels", tuple(float(v) for v in self.r_levels))
        bad = _ladder_violations(self.mu, self.r_levels)
        if bad:
            raise ValueError("invalid ladder: " + "; ".join(bad))

    @property
    def K(self) -> int:
        return len(self.mu)

    def mu_at(self, m: int) -> float:
        if not 1 <= m <= self.K:
            raise IndexError(f"energy level {m} out of range [1, {self.K}]")
        return self.mu[m - 1]

    def r_at(self, i: int) -> float:
        if not 1 <= i <= self.K + 1:
            raise IndexError(f"force level {i} out of range [1, {self.K + 1}]")
        return self.r_levels[i - 1]

    @classmethod
    def from_energies(cls, values: Sequence[float]) -> "LevelLadder":
        """Midpoint construction: r_i between consecutive mu's, r_1 above mu_1.

        The theory fixes only the inequalities; midpoints maximize the worst
        margin for this spacing.  With a single level the top gap falls back
        to mu_1 / 2.
        """
        mu = sorted({float(v) for v in values}, reverse=True)
        if not mu or mu[-1] <= 0:
            raise ValueError("ladder energies must be positive")
        half_gap = (mu[0] - mu[1]) / 2.0 if len(mu) > 1 else mu[0] / 2.0
        r = [mu[0] + half_gap]
        r += [(mu[i - 1] + mu[i]) / 2.0 for i in range(1, len(mu))]
        r.append(0.0)
        return cls(tuple(mu), tuple(r))

    @classmethod
    def from_table(cls, table: EnergyTable) -> "LevelLadder":
        return cls.from_energies(table.values.ravel())


def window_schedule(
    y: int, A: int, C: float, M: int, baseline: float | ForceField = 0.0
) -> ForceField:
    """Linear force window g1(y + x) = C (A - x) for x in [-A, A].

    Strong stretch work behind y pushes the walk forward; the decay toward
    zero ahead of y erects a barrier, so the walk lingers near y.  Sites
    outside the window keep the caller-supplied baseline.
    """
    if C <= 0:
        raise ValueError(f"window slope C must be positive, got {C}")
    if A < 0:
        raise ValueError(f"window half-width A must be >= 0, got {A}")
    if not (1 <= y - A and y + A <= M - 1):
        raise ValueError(
            f"window [{y - A}, {y + A}] out of range [1, {M - 1}] for M = {M}"
        )
    if isinstance(baseline, ForceField):
        if len(baseline) != M - 1:
            raise ValueError("baseline force field has wrong length")
        values = baseline.per_site.copy()
    else:
        values = np.full(M - 1, float(baseline))
    values[y - A - 1 : y + A] = C * (A - np.arange(-A, A + 1))
    return ForceField(values)


@dataclass(frozen=True)
class PlanLevel:
    level_index: int
    force: ForceField
    replicas: int


@dataclass(frozen=True)
class ProtocolPlan:
    """Which force field to apply at each ladder level, and how many walks."""

    scheme: str
    levels: tuple[PlanLevel, ...]
    site: int | None = None


def build_protocol(
    scheme: str,
    ladder: LevelLadder,
    M: int,
    replicas: int,
    *,
    site: int | None = None,
    k: int | None = None,
    max_level: int | None = None,
) -> ProtocolPlan:
    """Emit the per-level force fields for one of the three schemes.

    uniform-pair: constant fields; levels (k, k+1) when k is given, else
    levels 1..max_level (the union of the pair plans a full scan needs).
    focus-at-x: r_1 before the target site (fast approach), r_i at it,
    r_K beyond (slow tail keeps the walk focused); levels i = 1..K.
    absorbing-tail: r_1 before, r_i at the site, zero force beyond, so the
    prediction cost becomes independent of the unknown tail energies.
    A key the scheme's plan would drop is refused (see _require_plan_keys).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    _require_plan_keys(scheme, site, k, max_level)
    if replicas < 1:
        raise ValueError(f"replica count must be >= 1, got {replicas}")
    K = ladder.K
    n_sites = M - 1
    if scheme == "uniform-pair":
        if k is not None:
            if not 1 <= k <= K:
                raise IndexError(f"pair index k = {k} out of range [1, {K}]")
            indices = [k, k + 1]
        else:
            top = K + 1 if max_level is None else max_level
            if not 2 <= top <= K + 1:
                raise ValueError(f"max_level = {top} out of range [2, {K + 1}]")
            indices = list(range(1, top + 1))
        levels = [
            PlanLevel(i, ForceField.constant(ladder.r_at(i), n_sites), replicas)
            for i in indices
        ]
        return ProtocolPlan(scheme, tuple(levels), None)

    if site is None or not 2 <= site <= M - 1:
        raise ValueError(f"scheme {scheme} needs a target site in [2, {M - 1}], got {site}")
    tail_r = ladder.r_at(K) if scheme == "focus-at-x" else ladder.r_at(K + 1)
    top = K if max_level is None else min(max_level, K)
    levels = []
    for i in range(1, top + 1):
        values = np.full(n_sites, ladder.r_at(1))
        values[site - 1] = ladder.r_at(i)
        values[site:] = tail_r
        levels.append(PlanLevel(i, ForceField(values), replicas))
    return ProtocolPlan(scheme, tuple(levels), site)


def _require_plan_keys(scheme: str, site: int | None, k: int | None,
                       max_level: int | None) -> None:
    """Refuse, naming the key, what a scheme's plan would drop: a pair index
    k outside uniform-pair, max_level beside k, which fixes the levels, and
    a target site under uniform-pair, which estimates every site."""
    if k is not None and scheme != "uniform-pair":
        raise ValueError(f"k: the {scheme} scheme takes no pair index")
    if k is not None and max_level is not None:
        raise ValueError("max_level: cannot be combined with k, which fixes the levels")
    if site is not None and scheme == "uniform-pair":
        raise ValueError("site: the uniform-pair scheme estimates every site")


class ProtocolAbort(RuntimeError):
    """One force level cannot finish: its expected walk length is over the
    step cap (``replica`` None), or one of its replicas hit the cap."""

    def __init__(self, level: int, cause: StepCapExceeded):
        super().__init__(f"force level {level}: {cause}")
        self.level = level
        self.replica = cause.replica


def run_protocol(
    energies: Sequence[float],
    params: ModelParams,
    plan: ProtocolPlan,
    seed: SeedSpec,
    mode: str,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> dict[int, AggregateStats]:
    """Simulate one ensemble per force level of the plan, keyed by level index.

    Transitions are driven by the raw energy sequence; each level gets its
    own child seed, so levels are independent and individually reproducible.
    Every level is checked against the step cap before the first one walks.
    """
    envs = [EnergyEnvironment(energies, lv.force, params) for lv in plan.levels]
    out: dict[int, AggregateStats] = {}
    try:
        for lv, env in zip(plan.levels, envs):
            _require_finishable(env, step_cap)
        for lv, env in zip(plan.levels, envs):
            out[lv.level_index] = simulate_ensemble(
                env, lv.replicas, mode, seed.child(lv.level_index), step_cap=step_cap
            )
    except StepCapExceeded as e:
        raise ProtocolAbort(lv.level_index, e) from e
    return out


@dataclass(frozen=True)
class EnergyEstimate:
    """Ratio-flip estimate of g0 at one site; undecided is reported, never
    replaced by a guess."""

    level: int | None
    value: float | None
    undecided: bool


def estimate_energy(
    stats: dict[int, AggregateStats], x: int, ladder: LevelLadder
) -> EnergyEstimate:
    """First ladder level k with L-/L+ < 1 at level k and > 1 at level k+1.

    The down/up ratio at x under force r concentrates on e^(beta (g0(x) - r)),
    so the flip brackets g0(x) in (r_{k+1}, r_k), which contains exactly mu_k.
    Scanning stops at the first flip; both levels of every scanned pair must
    be present in the statistics.
    """

    def ratio(i: int) -> float:
        if i not in stats:
            raise ValueError(f"no statistics for force level {i}")
        agg = stats[i]
        if not 1 <= x <= agg.M - 1:
            raise IndexError(f"site index {x} out of range [1, {agg.M - 1}]")
        if agg.up[x] == 0:
            raise ValueError(f"no up-crossings recorded at site {x}, level {i}")
        return float(agg.down[x]) / float(agg.up[x])

    for k in range(1, ladder.K + 1):
        if ratio(k) < 1.0 and ratio(k + 1) > 1.0:
            return EnergyEstimate(level=k, value=ladder.mu_at(k), undecided=False)
    return EnergyEstimate(level=None, value=None, undecided=True)


@dataclass(frozen=True)
class HMargins:
    """Pairwise information margins per ladder level, and their maxima.

    per_pair[k-1] = (k, H^(k), H^(k+1)): the minimal relative information
    gained per crossing at force levels k and k+1 against the neighbouring
    energy levels.  h_forward / h_backward are the best margins over k <= K-1,
    which drive the focus and absorbing scheme bounds.
    """

    per_pair: tuple[tuple[int, float, float], ...]
    h_forward: float
    h_backward: float


def _pair_margin(ladder: LevelLadder, k: int, r: float, beta: float) -> float:
    """min over neighbouring levels l of H_a(mu_l - r) - H_a(a), a = mu_k - r.

    A single-level ladder has no confusable neighbour, so the margin is
    infinite: the estimator cannot pick a wrong value.
    """
    a = ladder.mu_at(k) - r
    base = gap_value("H", a, a, beta)
    neighbours = [l for l in (k - 1, k + 1) if 1 <= l <= ladder.K]
    if not neighbours:
        return math.inf
    return min(gap_value("H", a, ladder.mu_at(l) - r, beta) - base for l in neighbours)


def h_margins(ladder: LevelLadder, beta: float) -> HMargins:
    """Evaluate H^(k), H^(k+1) for every k, plus the scheme maxima."""
    per_pair = []
    for k in range(1, ladder.K + 1):
        hk = _pair_margin(ladder, k, ladder.r_at(k), beta)
        hk1 = _pair_margin(ladder, k, ladder.r_at(k + 1), beta)
        per_pair.append((k, hk, hk1))
    span = per_pair[:-1] if ladder.K > 1 else per_pair
    h_fwd = max(p[1] for p in span)
    h_bwd = max(p[2] for p in span)
    return HMargins(per_pair=tuple(per_pair), h_forward=h_fwd, h_backward=h_bwd)


def rc_energy(
    energies: Sequence[float],
    x: int | np.ndarray,
    ladder: LevelLadder,
    beta: float,
    scheme: str,
    k: int | None = None,
) -> float | np.ndarray:
    """Lower bound on the error decay rate of the energy estimator at x.

    uniform-pair (needs k): H^(k)/pbar_x^k + H^(k+1)/pbar_x^{k+1}, with
    pbar^l evaluated under the constant field r_l.
    focus-at-x: (H-> + H<-) / pbar_x^K, the slow tail force r_K beyond x.
    absorbing-tail: (H-> + H<-) e^(mu_K beta (M - x)); no tail energies enter,
    so the bound is independent of the unknown part of the molecule.

    ``x`` is a site or an array of sites; an array gets an array of bounds
    from one landscape per force level read.  A factor too large for a
    float saturates the bound to inf, or to 0 where 1/pbar overflows.  An
    infinite margin (a one-level ladder has no wrong level to pick) gives
    an infinite bound whatever 1/pbar is.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    M = len(energies) + 1
    xs = _check_sites(x, 2, M - 1)
    params = ModelParams(beta=beta, rate_scale=1.0)
    margins = h_margins(ladder, beta)

    def over_inv_pbar(h: float, r_level: float) -> np.ndarray:
        """h / (1/pbar_x) under the constant field r_level."""
        if h == math.inf:
            return np.full(xs.shape, math.inf)
        env = EnergyEnvironment(energies, ForceField.constant(r_level, M - 1), params)
        return h / np.exp(env.log_inv_pbar[xs])

    with np.errstate(over="ignore"):
        if scheme == "uniform-pair":
            if k is None or not 1 <= k <= ladder.K:
                raise ValueError(f"uniform-pair bound needs k in [1, {ladder.K}], got {k}")
            _, hk, hk1 = margins.per_pair[k - 1]
            bound = over_inv_pbar(hk, ladder.r_at(k)) + over_inv_pbar(hk1, ladder.r_at(k + 1))
        else:
            total = margins.h_forward + margins.h_backward
            if scheme == "focus-at-x":
                bound = over_inv_pbar(total, ladder.r_at(ladder.K))
            else:
                bound = total * np.exp(ladder.mu_at(ladder.K) * beta * (M - xs))
    return _per_site(xs, bound)


@dataclass(frozen=True)
class ReconstructionResult:
    """Base sequences compatible with an energy sequence, in Base order.

    One entry, not ``truncated``: unambiguous recovery.  Several, or
    ``truncated`` (more than the cap let through): the energies cannot
    separate them (degenerate repeats).  None: every candidate start dies at
    ``failed_site`` because the required energy is absent from that row.
    """

    sequences: tuple[BaseSequence, ...]
    truncated: bool = False
    failed_site: int | None = None


def sequence_from_energies(
    energies: Sequence[float],
    table: EnergyTable,
    b1: Base | None = None,
    *,
    tol: float = 0.0,
    cap: int = 16,
) -> ReconstructionResult:
    """Walk the energy chain left to right, resolving each next base.

    Given the current base a, the next base is any c with g0(a, c) within
    ``tol`` of the observed energy (unique under row injectivity).  With b1
    fixed, a missing energy in the current row is an error; without b1, all
    four starts are explored; up to ``cap`` reconstructions are reported.
    """
    energies = np.asarray(energies, dtype=float)
    # allowed[x - 1, a, c]: g0(a, c) matches the energy of edge x
    allowed = np.abs(energies[:, None, None] - table.values) <= tol
    nowhere = ~allowed.any(axis=(1, 2))
    if np.any(nowhere):
        i = int(np.argmax(nowhere))
        raise ValueError(f"energy {energies[i]} at site {i + 1} appears nowhere in the table")
    paths, truncated, dead_end = _trellis_paths(allowed, _start_bases(b1), cap)
    if paths:
        return ReconstructionResult(tuple(BaseSequence(tuple(p)) for p in paths), truncated)
    site, row = dead_end
    if b1 is not None:
        raise ValueError(
            f"energy {energies[site - 1]} absent from row {BASES[row].name} "
            f"at site {site} (walking from b1 = {Base(b1).name})"
        )
    return ReconstructionResult(sequences=(), failed_site=site)
