#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations and keep every output file.

    PYTHONPATH=src python tools/output_corpus.py OUTDIR

Each case runs ``unzipseq.cli.main(argv)`` in-process with its own output
directory ``OUTDIR/<case>/``; the inputs it reads are written to
``OUTDIR/inputs/``.  ``OUTDIR/<case>/status.txt`` records the exit code (and,
for a non-zero exit, the first line of stderr), or the type of an exception
that escaped ``main``.  The corpus covers every command in both time models
with csv and json output, ``--trace``, ``--oracle`` (also at M = 8 with b_1
free), ``infer --stats``, ``--R-grid`` with ``--site``, all three protocol
schemes (one with bounds too large for a float), ensembles that end in or
cross 256- and 1024-replica chunks (checkpoints at 1023, 1536 and 2049 among
them), the deep ``"A" * 1000`` rates landscape, ``infer`` (posteriors,
b_1 free, h_max 4) and ``rates`` on a 1000-site sequence, ``infer`` on
1000-site sequences whose MAP ties only past site 500 (2 co-optimal
sequences, and 32 cut at the tie cap), ``simulate`` on a 5000-site
sequence, whose chunks are too small to step in lockstep, ``simulate``
and ``infer`` runs whose settings all come from ``--config``, configs
that must be refused with exit 2 (among them a one-checkpoint grid, an
unknown ``prior`` key, a negative window half-width, an environment whose
``beta`` is a string, a prior whose weights are strings, a protocol key
its scheme's plan would drop, and a stats file whose sojourns hold a string
and a bool), runs whose walks pass
``--step-cap`` and exit 1 naming the replica (one in the scalar tail of a
lockstep chunk, one on the 5000-site sequence), and runs that cannot
finish, refused with exit 1 before any walk: ``simulate`` and
``infer --R-grid`` on a ``"GC" * 20`` trap, and a 200-site table-ladder scan
whose level 10 expects 10^32.0 steps per walk.  A 400-site ``infer`` and
``--R-grid`` run where an error is near certain (R = 1..3), and a 1000-site
``--R-grid`` whose log P(any error) rounds to zero, which writes its curve and
then exits 1: the rate fit is refused.  Everything is seeded, so two checkouts can be
compared file by file:

    PYTHONPATH=<checkout A>/src python tools/output_corpus.py /tmp/a
    PYTHONPATH=<checkout B>/src python tools/output_corpus.py /tmp/b
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from unzipseq.cli import main


def _twin_env(c_sites: set[int]) -> dict:
    """1000 random A/T sites with a C at each of ``c_sites``, under a table
    whose C and G rows and columns are equal."""
    rng = random.Random(1001)
    seq = "".join("C" if x in c_sites else rng.choice("AT") for x in range(1, 1001))
    return {"sequence": seq, "beta": 1.0, "r": 1.0, "g1": 2.5,
            "g0": [[1.0, 1.6, 2.8, 2.8], [1.6, 1.2, 2.8, 2.8],
                   [2.8, 2.8, 3.4, 3.4], [2.8, 2.8, 3.4, 3.4]]}


def _certain_error_env(M: int) -> dict:
    return {"sequence": "T" * M, "beta": 1.0, "r": 1.0, "g1": 3.2}


ENVS = {
    # M = 7: small enough for the 4^(M-1) oracle
    "short": {"sequence": "ATCGGAC", "beta": 1.0, "r": 1.0, "g1": 2.3},
    # M = 8: the largest the oracle accepts
    "oracle-max": {"sequence": "ATCGGACT", "beta": 1.0, "r": 1.0, "g1": 2.3},
    "medium": {"sequence": "ACAATTGGGGCTAGCATCGATTACGGATCA", "beta": 1.1, "r": 0.8, "g1": 2.6},
    "deep": {"sequence": "A" * 1000, "beta": 1.0, "r": 1.0, "g1": 1.0},
    # ~10^31.4 steps per walk
    "trap": {"sequence": "GC" * 20, "beta": 1.0, "r": 1.0, "g1": 2.0},
    # 400 sites: an error is near certain at R = 1..3, log P(MAP correct) < -360
    "certain-error": _certain_error_env(400),
    # 1000 sites: log P(MAP correct) < -900 at R = 1..3, so log P(any error)
    # rounds to zero and no rate can be fitted
    "certain-error-1000": _certain_error_env(1000),
    # 1000 sites, the decode benchmark's scale: ~10^3.7 steps per walk
    "sites-1000": {"sequence": "".join(random.Random(1000).choice("ATCG") for _ in range(1000)),
                   "beta": 1.0, "r": 1.0, "g1": 3.5},
    # 5000 sites: ~10^3.9 steps per walk, 13 replicas per chunk, too few to
    # step in lockstep, so every walk runs alone
    "sites-5000": {"sequence": "".join(random.Random(5000).choice("ATCG") for _ in range(5000)),
                   "beta": 1.0, "r": 1.0, "g1": 3.3},
    # C and G are interchangeable under this table, so the MAP ties only at
    # its C/G sites, here all past site 500
    "twin-one": _twin_env({701}),
    "twin-five": _twin_env({601, 701, 801, 851, 951}),
}
_TRAP_RNG = random.Random(200)
# protocol configs, with the replicas per level of each run
PROTOCOLS = {
    "pair-scan": {"energies": [1.78, 1.55, 1.78, 1.78, 1.55, 1.78, 1.55, 1.55, 1.78],
                  "ladder": "from-table", "scheme": "uniform-pair", "max_level": 10,
                  "R_per_level": 200},
    "pair-k": {"energies": [3.14, 1.78, 3.14, 1.78, 1.78], "scheme": "uniform-pair", "k": 1,
               "R_per_level": 200},
    "focus": {"energies": [2.0, 1.5, 2.2, 1.9, 2.1, 1.7],
              "ladder": {"mu": [2.2, 1.5], "r": [2.5, 1.8, 0.0]},
              "scheme": "focus-at-x", "site": 3, "R_per_level": 100},
    "absorbing": {"energies": [0.6, 0.4, 0.5, 0.6, 0.4],
                  "ladder": {"mu": [0.6, 0.5, 0.4], "r": [0.65, 0.55, 0.45, 0.0]},
                  "scheme": "absorbing-tail", "site": 2, "R_per_level": 200},
    # 801 sites: the absorbing factor e^(1.55 (M - x)) overflows a float for x <= 343
    "absorbing-long": {"energies": [1.55, 1.78] * 400, "scheme": "absorbing-tail",
                       "site": 799, "R_per_level": 5},
    # refused: level 10 of the table ladder expects 10^32.0 steps per walk
    "trap-scan": {"energies": [_TRAP_RNG.choice((1.55, 1.78)) for _ in range(200)],
                  "ladder": "from-table", "scheme": "uniform-pair", "max_level": 10,
                  "R_per_level": 5},
}

# simulate / infer configs that set everything but --out, with the command
# each is run under; an integral float such as 3e1 is an integer setting
CONFIGS = {
    "simulate": ("simulate", {"environment": ENVS["short"], "R": 3e1, "seed": 5,
                              "mode": "continuous", "format": "csv", "trace": True,
                              "window": "3:2:0.5", "step_cap": 1e6}),
    "infer": ("infer", {"environment": ENVS["short"], "R": 3e1, "seed": 6, "format": "csv",
                        "b1": "t", "h_max": 2, "prior": {"weights": [0.4, 0.1, 0.3, 0.2]},
                        "oracle": True}),
}
# one bad value each, on top of a config that runs: every one must exit 2
REFUSED = {
    "max-level-str": ("protocol", "pair-scan", {"max_level": "x"}),
    "site-str": ("protocol", "focus", {"site": "2"}),
    "k-str": ("protocol", "pair-k", {"k": "1"}),
    "k-bool": ("protocol", "pair-k", {"k": True}),
    "h-max-str": ("infer", "infer", {"h_max": "x"}),
    "seed-str": ("simulate", "simulate", {"seed": "x"}),
    "R-fraction": ("simulate", "simulate", {"R": 5.9}),
    "trace-str": ("simulate", "simulate", {"trace": "no"}),
    "format-xml": ("infer", "infer", {"format": "xml"}),
    # the base infer config asks for the oracle, which a grid run would drop
    "grid-oracle": ("infer", "infer", {"R_grid": "10:30:10"}),
    "grid-one-point": ("infer", "infer", {"R_grid": "5:5:1", "oracle": False}),
    "prior-unknown-key": ("infer", "infer",
                          {"prior": {"weights": [0.4, 0.1, 0.3, 0.2], "wieghts": 3}}),
    "window-negative": ("simulate", "simulate", {"window": "3:-2:0.5"}),
    "environment-beta-str": ("infer", "infer", {"environment": {**ENVS["short"], "beta": "2"}}),
    "prior-weights-str": ("infer", "infer", {"prior": {"weights": ["1", "1", "1", "1"]}}),
    # keys the scheme's plan would drop
    "focus-k": ("protocol", "focus", {"k": 1}),
    "pair-k-max-level": ("protocol", "pair-k", {"max_level": 3}),
    "pair-scan-site": ("protocol", "pair-scan", {"site": 3}),
}
# a continuous stats file for ENVS["short"] whose sojourns hold a string and a
# bool: `infer --stats` must exit 2
STATS_S_STR = {"mode": "continuous", "R": 1, "steps": 6, "site": [1, 2, 3, 4, 5, 6],
               "L_plus": [1] * 6, "L_minus": [0] * 6,
               "S": ["0.5", True, 0.5, 0.5, 0.5, 0.5], "wall_time": 3.0}


def _config(name: str) -> dict:
    return {**PROTOCOLS[name], "seed": 9} if name in PROTOCOLS else CONFIGS[name][1]


def cases(inputs: Path) -> dict[str, list]:
    env = {name: inputs / f"env-{name}.json" for name in ENVS}
    proto = {name: inputs / f"protocol-{name}.json" for name in PROTOCOLS}
    runs: dict[str, list] = {}
    for mode in ("discrete", "continuous"):
        for fmt in ("csv", "json"):
            runs[f"simulate-{mode}-{fmt}"] = [
                "simulate", "--env", env["short"], "--R", 40, "--seed", 5, "--mode", mode,
                "--format", fmt, "--trace"]
            runs[f"infer-{mode}-{fmt}"] = [
                "infer", "--env", env["short"], "--R", 30, "--seed", 6, "--mode", mode,
                "--format", fmt, "--oracle"]
        runs[f"infer-oracle-max-{mode}"] = [
            "infer", "--env", env["oracle-max"], "--R", 30, "--seed", 12, "--mode", mode,
            "--oracle", "--b1", "none", "--h-max", 4]
        runs[f"infer-stats-{mode}"] = [
            "infer", "--env", env["short"], "--stats",
            inputs.parent / f"simulate-{mode}-json" / "stats.json", "--mode", mode,
            "--format", "csv", "--b1", "none", "--h-max", 4]
        runs[f"infer-grid-{mode}"] = [
            "infer", "--env", env["medium"], "--R-grid", "200:2000:200", "--seed", 7,
            "--mode", mode, "--site", 5]
        runs[f"protocol-focus-{mode}"] = [
            "protocol", "--config", proto["focus"], "--seed", 8, "--mode", mode]
    # ensembles that end in or cross 256-replica chunks, then 1024-replica ones
    runs["chunks-simulate"] = [
        "simulate", "--env", env["short"], "--R", 257, "--seed", 2**40 + 1,
        "--mode", "continuous"]
    runs["chunks-infer-grid"] = [
        "infer", "--env", env["medium"], "--R-grid", "100:700:150", "--seed", 10, "--site", 5]
    runs["chunks-protocol"] = [
        "protocol", "--config", proto["pair-k"], "--seed", 11, "--R-per-level", 300]
    runs["chunks-1024-simulate"] = [
        "simulate", "--env", env["short"], "--R", 1025, "--seed", 2**40 + 2,
        "--mode", "continuous"]
    runs["chunks-1024-infer-grid"] = [
        "infer", "--env", env["medium"], "--R-grid", "1023:2049:513", "--seed", 13,
        "--site", 5]
    runs["chunks-1024-protocol"] = [
        "protocol", "--config", proto["pair-k"], "--seed", 14, "--R-per-level", 1100]
    runs["rates-medium"] = ["rates", "--env", env["medium"], "--R", 3]
    runs["rates-deep"] = ["rates", "--env", env["deep"]]
    runs["sites-1000-infer"] = [
        "infer", "--env", env["sites-1000"], "--R", 50, "--seed", 5, "--mode", "continuous",
        "--format", "csv", "--h-max", 4, "--b1", "none"]
    runs["sites-1000-rates"] = ["rates", "--env", env["sites-1000"], "--R", 50]
    for mode in ("discrete", "continuous"):
        runs[f"sites-5000-simulate-{mode}"] = [
            "simulate", "--env", env["sites-5000"], "--R", 20, "--seed", 5, "--mode", mode,
            "--format", "csv"]
    # 2 co-optimal sequences, and 32 cut at the tie cap of 16
    for name in ("twin-one", "twin-five"):
        runs[f"{name}-infer"] = [
            "infer", "--env", env[name], "--R", 50, "--seed", 5, "--mode", "continuous"]
    for name in ("pair-scan", "pair-k", "absorbing", "absorbing-long", "trap-scan"):
        runs[f"protocol-{name}"] = ["protocol", "--config", proto[name], "--seed", 9]
    # runs that cannot finish: refused with exit 1
    runs["trap-simulate"] = [
        "simulate", "--env", env["trap"], "--R", 5, "--seed", 1, "--step-cap", 100000000]
    # walks over the step cap, which must name the lowest replica over it.
    # 5 of 1024 walks outlive the lockstep windows (1024 steps) and go on in
    # the scalar tail, where replica 172 absorbs at step 1060 and replica 230
    # passes the cap; on 5000 sites, replicas 5, 8 and 9 of 13 pass step 7900
    # (E = 7797)
    runs["step-cap-tail-simulate"] = [
        "simulate", "--env", env["short"], "--R", 1024, "--seed", 3, "--step-cap", 1100]
    runs["step-cap-sites-5000-simulate"] = [
        "simulate", "--env", env["sites-5000"], "--R", 13, "--seed", 3, "--step-cap", 7900]
    runs["trap-infer-grid"] = [
        "infer", "--env", env["trap"], "--R-grid", "10:30:10", "--seed", 1,
        "--step-cap", 100000000]
    runs["certain-error-infer"] = ["infer", "--env", env["certain-error"], "--R", 3, "--seed", 1]
    runs["certain-error-infer-grid"] = [
        "infer", "--env", env["certain-error"], "--R-grid", "1:3:1", "--seed", 1]
    # the curve is written, then the fit of a log P of 0.0 is refused with exit 1
    runs["certain-error-1000-infer-grid"] = [
        "infer", "--env", env["certain-error-1000"], "--R-grid", "1:3:1", "--seed", 1]
    for name, (command, _) in CONFIGS.items():
        runs[f"config-{name}"] = [command, "--config", inputs / f"config-{name}.json"]
    for name, (command, _, _) in REFUSED.items():
        runs[f"refused-{name}"] = [command, "--config", inputs / f"refused-{name}.json"]
    runs["refused-stats-S-str"] = [
        "infer", "--env", env["short"], "--stats", inputs / "stats-S-str.json",
        "--mode", "continuous"]
    return runs


def run_corpus(outdir: Path) -> None:
    inputs = outdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, doc in ENVS.items():
        (inputs / f"env-{name}.json").write_text(json.dumps(doc))
    for name, doc in PROTOCOLS.items():
        (inputs / f"protocol-{name}.json").write_text(json.dumps(doc))
    for name, (_, doc) in CONFIGS.items():
        (inputs / f"config-{name}.json").write_text(json.dumps(doc))
    for name, (_, base, bad) in REFUSED.items():
        (inputs / f"refused-{name}.json").write_text(json.dumps({**_config(base), **bad}))
    (inputs / "stats-S-str.json").write_text(json.dumps(STATS_S_STR))
    for name, argv in cases(inputs).items():
        out = outdir / name
        out.mkdir(parents=True, exist_ok=True)
        argv = [str(a) for a in argv] + ["--out", str(out)]
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
            status = f"exit {code}"
            if code:
                status += "\n" + stderr.getvalue().split("\n")[0]
        except Exception as e:  # recorded: the comparison shows a crash as a difference
            status = f"raised {type(e).__name__}"
        (out / "status.txt").write_text(status + "\n")
        print(f"{name}: {status}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run_corpus(Path(sys.argv[1]))
