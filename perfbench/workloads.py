"""The benchmark's workloads: seeded input generation, CLI argv, output checks.

Each workload yields rounds of ops; round k's inputs come only from
(seed, k), so a seed fixes the inputs whatever the program's speed.
Instances are drawn, never filtered, re-drawn or resized.  An op is one
``unzipseq.cli.main(argv)`` call; ``check`` reads what it wrote and returns
the problems found (empty = verified), using the independent numpy model in
``lawstats`` rather than the package's own formulas.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lawstats import (
    G0_TABLE,
    BASE_INDEX,
    edge_g0,
    law_stats_doc,
    log_inv_pbar,
    random_sequence,
)

BETA = 1.0
RATE = 1.0
G1 = 3.0
# long-walks pulls a little harder: at g1 = 3.0 about one random 100-site
# instance in 3000 needs over 1e8 steps for R = 200 (the worst of 50,000
# drawn needed 2e9, minutes of walking), which no time-boxed run survives;
# at 3.2 the worst of 50,000 needed 2e7.
G1_LONG = 3.2
# |z| of a per-site L+ sum against its exact mean; a correct walker exceeds 7
# with negligible probability over every site of every op of a run.
Z_BOUND = 7.0
REL_TOL = 1e-9


@dataclass
class Op:
    command: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]
    # walker steps an op's verified output reports (simulate only)
    steps: Callable[[Path], int] | None = None
    sites: int = 0


@dataclass
class Workload:
    name: str
    make_round: Callable[[int, int, Path], list[Op]]
    commands: tuple[str, ...]


def _env_doc(seq: str, g1: float = G1) -> dict:
    return {"sequence": seq, "g0": [list(r) for r in G0_TABLE], "beta": BETA, "r": RATE, "g1": g1}


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _problems_prob(label: str, p, log_p) -> list[str]:
    bad = []
    if p is None or not 0.0 <= p <= 1.0:
        bad.append(f"{label}: p = {p} not in [0, 1]")
    if log_p is None or not log_p <= 0.0:
        bad.append(f"{label}: log p = {log_p} not <= 0")
    return bad


# --------------------------------------------------------------------------
# simulate


def check_simulate(doc: dict, seq: str, R: int, mode: str, g1: float) -> list[str]:
    """Flow identities and the largest per-site |z| of L+ against R / pbar."""
    M = len(seq)
    bad = []
    if doc.get("R") != R or doc.get("mode") != mode:
        bad.append(f"stats header R={doc.get('R')} mode={doc.get('mode')}")
    up = np.zeros(M, dtype=np.int64)
    down = np.zeros(M, dtype=np.int64)
    if len(doc["L_plus"]) != M - 1 or len(doc["L_minus"]) != M - 1:
        return bad + ["stats arrays have the wrong length"]
    up[1:] = doc["L_plus"]
    down[1:] = doc["L_minus"]
    if up[M - 1] != R:
        bad.append(f"L+[M-1] = {up[M - 1]} != R")
    if down[1] != 0 or np.any(down[2:] != up[1 : M - 1] - R):
        bad.append("L-_x != L+_{x-1} - R")
    if doc["steps"] != int(up.sum() + down.sum()):
        bad.append("steps != total crossings")
    ip = np.exp(log_inv_pbar(edge_g0(seq), g1, BETA))
    var = R * ip * (ip - 1.0)
    sites = np.flatnonzero(var[1:] > 0) + 1
    z = (up[sites] - R * ip[sites]) / np.sqrt(var[sites])
    if sites.size and float(np.max(np.abs(z))) > Z_BOUND:
        bad.append(f"max |z| of L+ = {float(np.max(np.abs(z))):.2f} > {Z_BOUND}")
    if mode == "continuous":
        S = np.asarray(doc.get("S", []), dtype=float)
        if S.size != M - 1 or not np.all(np.isfinite(S)) or np.any(S <= 0):
            bad.append("sojourn times missing or not positive")
        elif abs(doc["wall_time"] - S.sum()) > REL_TOL * S.sum():
            bad.append("wall_time != sum of sojourns")
    return bad


def long_walks_round(seed: int, k: int, work: Path) -> list[Op]:
    """One random 100-site sequence, simulated in discrete and then in
    continuous time, so both modes see the same instances."""
    rng = _round_rng(seed, k)
    seq = random_sequence(rng, 100)
    R = 200
    env = _write_json(work / "env.json", _env_doc(seq, G1_LONG))
    out = work / "out"
    ops = []
    for mode in ("discrete", "continuous"):
        argv = ["simulate", "--env", str(env), "--R", str(R), "--seed", _cli_seed(rng),
                "--mode", mode, "--out", str(out)]

        def check(out: Path, mode=mode) -> list[str]:
            doc = json.loads((out / "stats.json").read_text())
            return check_simulate(doc, seq, R, mode, G1_LONG)

        def steps(out: Path) -> int:
            return int(json.loads((out / "stats.json").read_text())["steps"])

        ops.append(Op("simulate", argv, out, check, steps))
    return ops


# --------------------------------------------------------------------------
# infer --R-grid

GRID = list(range(1000, 10001, 1000))


def check_grid(out: Path) -> list[str]:
    with open(out / "error_curve.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    bad = []
    if [int(r["R"]) for r in rows] != GRID:
        bad.append(f"error curve has rows {[r['R'] for r in rows]}, expected one per checkpoint")
    fit = json.loads((out / "rate_fit.json").read_text())
    for key in ("slope_any_error", "slope_site_error"):
        v = fit.get(key)
        if v is None or not math.isfinite(v):
            bad.append(f"{key} = {v} is not finite")
    return bad


def grid_op(rng: np.random.Generator, k: int, work: Path) -> Op:
    seq = random_sequence(rng, 10)
    mode = ("discrete", "continuous")[k % 2]
    env = _write_json(work / "env.json", _env_doc(seq))
    out = work / "out"
    argv = ["infer", "--env", str(env), "--R-grid", f"{GRID[0]}:{GRID[-1]}:{GRID[0]}",
            "--seed", _cli_seed(rng), "--mode", mode, "--site", "5", "--out", str(out)]
    return Op("infer_grid", argv, out, check_grid, sites=len(seq) - 2)


# --------------------------------------------------------------------------
# protocol


def check_protocol(out: Path, energies: list[float]) -> list[str]:
    bad = []
    for est in json.loads((out / "estimates.json").read_text()):
        if not est["undecided"] and est["value"] != energies[est["site"] - 1]:
            bad.append(f"site {est['site']}: estimate {est['value']} != {energies[est['site'] - 1]}")
    levels = json.loads((out / "levels.json").read_text())
    if sorted(int(i) for i in levels) != list(range(1, 11)):
        bad.append(f"levels {sorted(levels)} != 1..10")
    return bad


def protocol_op(rng: np.random.Generator, work: Path) -> Op:
    energies = [float(e) for e in rng.choice([1.55, 1.78], size=9)]
    cfg = _write_json(work / "protocol.json", {
        "energies": energies, "ladder": "from-table", "scheme": "uniform-pair",
        "max_level": 10, "R_per_level": 2000,
    })
    out = work / "out"
    argv = ["protocol", "--config", str(cfg), "--seed", _cli_seed(rng), "--out", str(out)]
    return Op("protocol", argv, out, lambda o: check_protocol(o, energies))


def short_walks_round(seed: int, k: int, work: Path) -> list[Op]:
    """A grid inference on a random 10-site sequence and a 10-site ladder scan."""
    rng = _round_rng(seed, k)
    return [grid_op(rng, k, work), protocol_op(rng, work)]


# --------------------------------------------------------------------------
# infer --stats and rates

DECODE_R = (10**3, 10**5, 10**7)


def information(path: str, stats: dict, mode: str) -> float:
    """Global information I(alpha) of a full sequence under a uniform prior,
    recomputed edge by edge from the stats file."""
    idx = np.array([BASE_INDEX[c] for c in path])
    M = idx.size
    g0 = np.asarray(G0_TABLE)[idx[:-1], idx[1:]]  # edge x at position x-1
    up = np.asarray(stats["L_plus"], dtype=float)
    down = np.asarray(stats["L_minus"], dtype=float)
    if mode == "discrete":
        z = BETA * (g0[1:] - G1)  # edge 1 carries no cost in discrete time
        cost = up[1:] @ np.logaddexp(0.0, z) + down[1:] @ np.logaddexp(0.0, -z)
    else:
        S = np.asarray(stats["S"], dtype=float)
        cost = BETA * (g0 @ up) + S @ (RATE * np.exp(-BETA * g0))
    return float(cost + M * math.log(4.0))


def check_infer(out: Path, seq: str, stats: dict, mode: str) -> list[str]:
    doc = json.loads((out / "decode.json").read_text())
    bad = []
    cost = doc["cost"]
    i_map = information(doc["map_sequence"], stats, mode)
    i_truth = information(seq, stats, mode)
    if not abs(i_map - cost) <= REL_TOL * abs(cost):
        bad.append(f"I(MAP) = {i_map!r} != cost {cost!r}")
    if not cost <= i_truth + REL_TOL * abs(i_truth):
        bad.append(f"cost {cost!r} > I(truth) {i_truth!r}")
    bad += _problems_prob("p_any_error", doc["p_any_error"], doc["log_p_any_error"])
    for d in doc["p_h_errors"]:
        bad += _problems_prob(f"p_h_errors[{d['h']}]", d["p"], d["log_p"])
    for d in doc["site_errors"]:
        bad += _problems_prob(f"site_errors[{d['site']}]", d["p"], d["log_p"])
    for d in doc["site_posteriors"]:
        probs = list(d["probs"].values())
        if any(p is None or not 0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > REL_TOL:
            bad.append(f"site {d['site']}: posterior {probs} is not a distribution")
    return bad[:5]


def check_rates(out: Path, seq: str) -> list[str]:
    doc = json.loads((out / "rates.json").read_text())
    pbar = np.asarray(doc["pbar"], dtype=float)
    e_up = np.asarray(doc["e_up"], dtype=float)
    ref = np.exp(-log_inv_pbar(edge_g0(seq), G1, BETA))[1:]
    bad = []
    if pbar.size != len(seq) - 1:
        return [f"pbar has {pbar.size} sites"]
    worst = float(np.max(np.abs(pbar - ref) / ref))
    if worst > REL_TOL:
        bad.append(f"pbar differs from the reverse-cumulative reference by {worst:.2e}")
    if pbar[-1] != 1.0:
        bad.append(f"pbar[M-1] = {pbar[-1]!r} != 1")
    if np.max(np.abs(e_up * pbar - 1.0)) > 1e-12:
        bad.append("e_up * pbar != 1")
    return bad


def decode_round(seed: int, k: int, work: Path) -> list[Op]:
    rng = _round_rng(seed, k)
    seq = random_sequence(rng, 1000)
    mode = ("discrete", "continuous")[k % 2]
    R = DECODE_R[(k // 2) % 3]
    stats = law_stats_doc(seq, R, mode, rng, g1=G1, beta=BETA, r=RATE)
    env = _write_json(work / "env.json", _env_doc(seq))
    stats_path = _write_json(work / "stats.json", stats)
    out = work / "out"
    infer = Op("infer", ["infer", "--env", str(env), "--stats", str(stats_path), "--mode", mode,
                         "--out", str(out)], out, lambda o: check_infer(o, seq, stats, mode),
               sites=len(seq) - 2)
    rates = Op("rates", ["rates", "--env", str(env), "--R", str(R), "--out", str(out)], out,
               lambda o: check_rates(o, seq), sites=len(seq) - 1)
    return [infer, rates]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long-walks", long_walks_round, ("simulate",)),
        Workload("short-walks", short_walks_round, ("infer_grid", "protocol")),
        Workload("decode", decode_round, ("infer", "rates")),
    )
}
