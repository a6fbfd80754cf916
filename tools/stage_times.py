#!/usr/bin/env python3
"""Time each walker, inference and writer stage in-process, best of 5.

    PYTHONPATH=src python tools/stage_times.py [OUT.json]

The walker stage is ``simulate_ensemble`` in steps per second, in both time
models, on seeded random sequences: at the sizes of the benchmark's walk
workloads, M = 100 at g1 = 3.2 with R = 200 and M = 10 at g1 = 3.0 with
R = 10^4 and with R = 2000 (the size of one ladder level), and on long chains at g1 = 3.6, M = 1000 with R = 256 and
M = 10000 with R = 24 (~4.4e3 and ~4.4e4 expected steps per walk).  The
``simulate_walk`` rows time one walk alone, replica 0 of a seeded random
sequence at M = 100 and g1 = 1.74, 97,141 steps, in the scalar loop.
``walker_peak_bytes`` is the tracemalloc peak of one continuous 1024-replica
chunk at M = 10, the case whose memory ``test_lockstep_memory_stays_flat``
bounds.  At M = 1000 and 10000, in both
time models, the statistics come from the walker (a seeded random sequence,
g1 = 3.5, R = 8).  The stages are
``build_edge_potentials``, ``decode_map``, the forward sweep (the block
probabilities to h_max 3, relative to the MAP, and log Z in one pass), the
site records (sites 2..M-1), the ``decode.json`` text, ``rate_report`` and
the ``rates.*`` text, in milliseconds.  The result, with the commit, numpy
version and host, goes to ``OUT.json`` (default ``BENCH_stages.json``).
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from unzipseq import cli, inference
from unzipseq.energy import environment_from_json
from unzipseq.rates import rate_report
from unzipseq.walker import SeedSpec, simulate_ensemble, simulate_walk


def best_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return round(min(times) * 1e3, 3)


def random_env(M: int, g1: float):
    seq = "".join(random.Random(M).choice("ATCG") for _ in range(M))
    return environment_from_json({"sequence": seq, "beta": 1.0, "r": 1.0, "g1": g1})


def walker_stages() -> dict[str, int]:
    """``simulate_ensemble`` and ``simulate_walk`` steps per second, best of 5."""
    table = {}
    for M, g1, R in ((100, 3.2, 200), (10, 3.0, 10**4), (10, 3.0, 2000), (1000, 3.6, 256),
                     (10000, 3.6, 24)):
        env = random_env(M, g1)
        for mode in ("discrete", "continuous"):
            run = lambda: simulate_ensemble(env, R, mode, SeedSpec(M))
            table[f"M={M} R={R} {mode}"] = round(run().steps / best_ms(run) * 1e3)
    env = random_env(100, 1.74)
    for mode in ("discrete", "continuous"):
        run = lambda: simulate_walk(env, mode, SeedSpec(100), 0)
        table[f"simulate_walk M=100 {mode}"] = round(run().steps / best_ms(run) * 1e3)
    return table


def walker_peak_bytes() -> int:
    """Peak traced memory of ``simulate_ensemble`` on one full chunk."""
    env = environment_from_json({"sequence": "ATCGGTACGG", "beta": 1.0, "r": 1.0, "g1": 3.0})
    simulate_ensemble(env, 40, "continuous", SeedSpec(8))  # imports numpy.random
    tracemalloc.start()
    try:
        simulate_ensemble(env, 1024, "continuous", SeedSpec(8))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stages(M: int, mode: str, out: Path) -> dict[str, float]:
    env = random_env(M, 3.5)
    stats = simulate_ensemble(env, 8, mode, SeedSpec(M))
    pot = inference.build_edge_potentials(stats, env)
    b1 = env.seq.base(1)
    ref = inference.decode_map(pot, b1).map_sequence.array
    report = inference.error_report(stats, env, None, b1, 3)
    rates = rate_report(env, 8)
    return {
        "build_edge_potentials": best_ms(lambda: inference.build_edge_potentials(stats, env)),
        "decode_map": best_ms(lambda: inference.decode_map(pot, b1)),
        "forward_sweep": best_ms(lambda: inference._forward_sweep(pot, b1, ref, 3)),
        "site_records": best_ms(lambda: inference._site_record(pot, env.seq, np.arange(2, M))),
        "decode_json_text": best_ms(lambda: cli._write_decode(out, report, "json")),
        "rate_report": best_ms(lambda: rate_report(env, 8)),
        "rates_text": best_ms(lambda: cli._write_rates(out, rates)),
    }


def main(path: Path) -> None:
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=Path(__file__).resolve().parent)
    commit = git.stdout.strip() or "unknown"
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"M={M} {mode}": stages(M, mode, Path(tmp))
                 for M in (1000, 10000) for mode in ("discrete", "continuous")}
    walks = walker_stages()
    peak = walker_peak_bytes()
    doc = {"commit": commit, "numpy": np.__version__, "python": platform.python_version(),
           "host": f"{platform.machine()}, {os.cpu_count()} CPUs", "best_of": 5,
           "walker_unit": "steps/s", "walker": walks, "walker_peak_bytes": peak,
           "unit": "ms", "stages": table}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, rate in walks.items():
        print(name, f"steps/s={rate}")
    print("walker_peak_bytes", peak)
    for name, row in table.items():
        print(name, " ".join(f"{k}={v}" for k, v in row.items()))


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "BENCH_stages.json"))
