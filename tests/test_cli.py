import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unzipseq import cli
from unzipseq.cli import canonical_json, main
from unzipseq.energy import BASES, BaseSequence, environment_from_json
from unzipseq.inference import (
    DecodeResult,
    ErrorReport,
    Prior,
    SitePosterior,
    error_report,
    site_posterior,
)
from unzipseq.protocols import LevelLadder, rc_energy
from unzipseq.rates import decision_margins, rate_report
from unzipseq.walker import AggregateStats, SeedSpec, simulate_ensemble

from bruteforce import law_stats, oracle_summary
from conftest import random_sequence

ENV_DOC = {"sequence": "ATCGG", "beta": 1.0, "r": 1.0, "g1": 2.2}


@pytest.fixture()
def env_file(tmp_path):
    p = tmp_path / "env.json"
    p.write_text(json.dumps(ENV_DOC))
    return p


def run(args) -> int:
    return main([str(a) for a in args])


def test_simulate_writes_stats(tmp_path, env_file):
    out = tmp_path / "out"
    rc = run(["simulate", "--env", env_file, "--R", 3, "--seed", 7, "--out", out])
    assert rc == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["R"] == 3 and doc["L_plus"][-1] == 3


def test_simulate_m2_trivial(tmp_path):
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "AT", "beta": 1.0, "r": 1.0, "g1": 0.3}))
    out = tmp_path / "o"
    assert run(["simulate", "--env", envp, "--R", 3, "--seed", 1, "--out", out]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["L_plus"] == [3] and doc["steps"] == 3


def test_simulate_requires_seed(tmp_path, env_file, capsys):
    rc = run(["simulate", "--env", env_file, "--R", 3, "--out", tmp_path / "x"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_rerun_byte_identical(tmp_path, env_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        args = ["simulate", "--env", env_file, "--R", 20, "--seed", 5, "--out", out,
                "--mode", "continuous", "--format", "csv", "--trace"]
        assert run(args) == 0
    for name in ("stats.json", "stats.csv", "trace.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parser_built_once_and_flags_do_not_leak(tmp_path, env_file, monkeypatch):
    # the parser is built on the first main call, not at import, and reused;
    # a flag given to one call is absent from the next call's config
    code = "import unzipseq.cli as c; print(c._build_parser.cache_info().currsize)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert fresh.stdout.strip() == "0", fresh.stderr
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "infer", lambda cfg: seen.append(cfg) or 0)
    base = ["infer", "--env", env_file, "--R", 3, "--seed", 1]
    assert run(base) == 0
    assert run(base + ["--format", "csv", "--oracle", "--h-max", 4, "--b1", "none",
                       "--out", tmp_path / "o"]) == 0
    assert run(base) == 0
    assert seen[2] == seen[0]
    assert {k: seen[1][k] for k in ("format", "oracle", "h_max", "b1", "out")} == {
        "format": "csv", "oracle": True, "h_max": 4, "b1": "none", "out": str(tmp_path / "o")}
    assert cli._build_parser() is cli._build_parser()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"environment": ENV_DOC, "R": 2, "seed": 1, "bogus": True}))
    rc = run(["simulate", "--config", cfg])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_infer_roundtrip_matches_in_memory(tmp_path, env_file):
    out = tmp_path / "out"
    assert run(["simulate", "--env", env_file, "--R", 25, "--seed", 11, "--out", out,
                "--mode", "continuous"]) == 0
    assert run(["infer", "--env", env_file, "--stats", out / "stats.json",
                "--mode", "continuous", "--out", out]) == 0
    written = (out / "decode.json").read_bytes()

    env = environment_from_json(ENV_DOC)
    agg = simulate_ensemble(env, 25, "continuous", SeedSpec(11))
    rep = error_report(agg, env, b1=env.seq.base(1), h_max=3)
    doc = _generic_decode_doc(rep)
    doc["site_posteriors"] = [
        {"site": x, "probs": {b.name: p for b, p in
                              zip(BASES, site_posterior(agg, env, x).probs)}}
        for x in range(2, env.M)
    ]
    assert _generic_json(doc) == written


# -------------------------------------------------------- columnar writers


def _generic_json(obj) -> bytes:
    """The generic route: NaN/inf become null, then json.dumps."""
    def clean(o):
        if isinstance(o, dict):
            return {str(k): clean(v) for k, v in o.items()}
        if isinstance(o, (list, tuple, np.ndarray)):
            return [clean(v) for v in (o.tolist() if isinstance(o, np.ndarray) else o)]
        return None if isinstance(o, float) and not math.isfinite(o) else o
    return (json.dumps(clean(obj), sort_keys=True, separators=(",", ":")) + "\n").encode()


def _generic_csv(header, columns) -> bytes:
    """The generic route: str of each cell of the ``.tolist()`` columns."""
    cells = [col.tolist() for col in columns]
    lines = [",".join(header)] + [",".join(map(str, row)) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode()


def _generic_decode_doc(report) -> dict:
    """decode.json built from one Python dict per site."""
    sites = report.sites
    site_list = sites.site.tolist()
    return {
        "map_sequence": str(report.decode.map_sequence),
        "cost": report.decode.cost,
        "log_partition": report.log_partition,
        "ties": [str(s) for s in report.decode.ties],
        "tie": report.decode.tie,
        "p_any_error": report.p_any,
        "log_p_any_error": report.log_p_any,
        "p_h_errors": [{"h": h, "p": p, "log_p": lp} for h, p, lp in report.p_blocks],
        "site_errors": [
            {"site": x, "p": p, "log_p": lp}
            for x, p, lp in zip(site_list, sites.p_error.tolist(), sites.log_p_error.tolist())
        ],
        "site_posteriors": [
            {"site": x, "probs": dict(zip((b.name for b in BASES), row))}
            for x, row in zip(site_list, sites.probs.tolist())
        ],
    }


def _law_report(sequence: str, R: int, mode: str, h_max: int):
    env = environment_from_json({**ENV_DOC, "sequence": sequence, "g1": 3.0})
    stats = law_stats(env, R, mode, np.random.default_rng([len(sequence), R]))
    return error_report(stats, env, b1=None, h_max=h_max)


def _nonfinite_report():
    nan, inf = float("nan"), float("inf")
    probs = np.array([[0.25] * 4, [nan, 0.5, 0.5, 0.0], [inf, -inf, 0.0, 1.0], [1e-300] * 4])
    sites = SitePosterior(
        site=np.arange(2, 6), log_unnormalized=np.zeros((4, 4)), probs=probs,
        map_base=np.zeros(4, dtype=int), tie=np.zeros(4, dtype=bool),
        p_error=np.array([0.75, nan, inf, -inf]), log_p_error=np.array([-0.3, -inf, nan, inf]))
    seq = BaseSequence.from_string("ATCGGA")
    return ErrorReport(decode=DecodeResult(seq, 12.5, (seq,), False), log_partition=-inf,
                       p_any=nan, log_p_any=nan, p_blocks=((1, 0.5, -0.69), (2, 0.0, -inf)),
                       sites=sites)


DECODE_REPORTS = {
    # no interior site; P(>= 2 blocks) = 0 on two sites, so its log_p is null
    "M2": lambda: _law_report("AT", 10**3, "discrete", 4),
    # discrete time, b_1 free: edge 1 costs nothing, so the four first bases tie
    "M1000-ties": lambda: _law_report(random_sequence(np.random.default_rng(5), 1000),
                                      10**3, "discrete", 4),
    "nonfinite": _nonfinite_report,
}


@pytest.mark.parametrize("case", list(DECODE_REPORTS))
def test_decode_writer_matches_generic_route(tmp_path, case):
    report = DECODE_REPORTS[case]()
    doc = cli._write_decode(tmp_path, report, "csv")
    written = (tmp_path / "decode.json").read_bytes()
    assert written == _generic_json(_generic_decode_doc(report))
    assert doc["map_sequence"] == str(report.decode.map_sequence)
    sites = report.sites
    csv = (tmp_path / "posteriors.csv").read_bytes()
    assert csv == _generic_csv(("site", "p_A", "p_T", "p_C", "p_G"), (sites.site, *sites.probs.T))
    if case == "M2":
        assert b'"site_errors":[]' in written and b'"site_posteriors":[]' in written
        assert b'"log_p":null' in written
    elif case == "M1000-ties":
        assert len(report.decode.ties) == 4 and len(report.p_blocks) == 4
    else:
        assert written.count(b"null") == 13 and b"nan" not in written
        assert b",nan," in csv and b",-inf," in csv


def test_rates_writer_matches_generic_route(tmp_path):
    env_doc = {"sequence": "A" * 1000, "beta": 1.0, "r": 1.0, "g1": 1.0}
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps(env_doc))
    out = tmp_path / "o"
    assert run(["rates", "--env", envp, "--out", out]) == 0
    report = rate_report(environment_from_json(env_doc), 1)
    written = (out / "rates.json").read_bytes()
    assert written == _generic_json(report.to_json_dict())
    csv = (out / "rates.csv").read_bytes()
    header = report.CSV_HEADER
    assert csv == _generic_csv(header, [np.arange(1, 1000)] + [getattr(report, n)[1:]
                                                                for n in header[1:]])
    assert b"null" in written and b"inf" not in written and b"nan" not in written
    assert b",inf," in csv and b",nan" in csv


def test_infer_zero_r_uniform_posteriors(tmp_path, env_file):
    env = environment_from_json(ENV_DOC)
    from unzipseq.walker import zero_stats

    stats_path = tmp_path / "zero.json"
    stats_path.write_text(canonical_json(zero_stats(env.M, "discrete").to_json_dict()))
    out = tmp_path / "o"
    assert run(["infer", "--env", env_file, "--stats", stats_path, "--out", out]) == 0
    doc = json.loads((out / "decode.json").read_text())
    for entry in doc["site_posteriors"]:
        for v in entry["probs"].values():
            assert v == pytest.approx(0.25, abs=1e-12)
    assert doc["p_any_error"] == pytest.approx(1 - 0.25 ** (env.M - 1), rel=1e-12)


@pytest.mark.parametrize("sequence,b1,h_max", [("ATCGG", "auto", 3), ("ATCGGACT", "none", 4)],
                         ids=["M5", "M8-b1-free"])
def test_infer_oracle_mode(tmp_path, sequence, b1, h_max):
    env_doc = {**ENV_DOC, "sequence": sequence}
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps(env_doc))
    out = tmp_path / "o"
    assert run(["infer", "--env", envp, "--R", 4, "--seed", 3, "--out", out, "--oracle",
                "--b1", b1, "--h-max", h_max]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["diffs"]["map_sequence_equal"]
    assert doc["diffs"]["cost"] <= 1e-10
    assert doc["diffs"]["log_partition"] <= 1e-10
    assert doc["diffs"]["p_any_error"] <= 1e-10
    assert all(d <= 1e-10 for d in doc["diffs"]["p_h_errors"])
    # the enumeration against an independent one on the same statistics
    env = environment_from_json(env_doc)
    stats = simulate_ensemble(env, 4, "discrete", SeedSpec(3))
    brute = oracle_summary(stats, env, "discrete", None if b1 == "none" else env.seq.base(1),
                           h_max)
    oracle = doc["oracle"]
    assert oracle["map_sequence"] == "".join(b.name for b in brute["map"])
    assert oracle["cost"] == pytest.approx(brute["map_cost"], rel=1e-10)
    assert oracle["log_partition"] == pytest.approx(brute["log_z"], rel=1e-10)
    assert oracle["p_any_error"] == pytest.approx(brute["p_any"], rel=1e-10, abs=1e-13)
    assert [e["h"] for e in oracle["p_h_errors"]] == list(range(1, h_max + 1))
    for e in oracle["p_h_errors"]:
        assert e["p"] == pytest.approx(brute["p_blocks"][e["h"]], rel=1e-10, abs=1e-13)


def test_infer_grid_rate_fit(tmp_path, env_file):
    out = tmp_path / "o"
    assert run(["infer", "--env", env_file, "--R-grid", "200:1000:200", "--seed", 5,
                "--site", 3, "--out", out, "--mode", "continuous"]) == 0
    lines = (out / "error_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "R,log_p_any_error,p_any_error,log_p_site_error,p_site_error"
    assert len(lines) == 6
    fit = json.loads((out / "rate_fit.json").read_text())
    assert fit["slope_any_error"] > 0 and fit["rc_site"] > 0
    # each site residual is -log P_site - R rc_site, R written as a float
    rows = [line.split(",") for line in lines[1:]]
    assert [(type(e["R"]), e["R"]) for e in fit["site_residuals"]] == [
        (float, float(row[0])) for row in rows]
    assert [e["residual"] for e in fit["site_residuals"]] == [
        -float(row[3]) - int(row[0]) * fit["rc_site"] for row in rows]


@pytest.mark.parametrize("g1", [2.2, [2.0, 2.2, 2.4, 2.6]])
def test_infer_grid_margin_bound_needs_constant_g1_in_discrete_time(tmp_path, g1):
    # the discrete margins are taken at the one constant stretch work; a
    # varying field has none, so the bound is null there, as rate_report's
    # discrete L_c bound is NaN; the continuous margins do not read g1
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({**ENV_DOC, "g1": g1}))
    env = environment_from_json(json.loads(envp.read_text()))
    for mode in ("discrete", "continuous"):
        out = tmp_path / mode
        assert run(["infer", "--env", envp, "--R-grid", "20:60:20", "--seed", 3,
                    "--mode", mode, "--out", out]) == 0
        bound = json.loads((out / "rate_fit.json").read_text())["margin_lower_bound"]
        if mode == "discrete" and isinstance(g1, list):
            assert bound is None
            assert math.isnan(rate_report(env).inv_lc_discrete)
        else:
            g1_at = g1 if mode == "discrete" else 0.0
            assert bound == decision_margins(env.table, env.beta, g1_at, mode=mode).minus


def test_infer_grid_fits_a_near_certain_error(tmp_path):
    # at 400 random sites and R = 1..3, log P(MAP correct) is -367 to -287:
    # P(any error) rounds to 1, but its log stays negative, so the rate fit
    # is made
    rnd = random.Random(3)
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "".join(rnd.choice("ATCG") for _ in range(400)),
                                "beta": 1.0, "r": 1.0, "g1": 3.2}))
    out = tmp_path / "o"
    assert run(["infer", "--env", envp, "--R-grid", "1:3:1", "--seed", 1, "--out", out]) == 0
    rows = [line.split(",") for line in (out / "error_curve.csv").read_text().split()[1:]]
    assert [row[2] for row in rows] == ["1.0"] * 3
    assert all(-1e-100 < float(row[1]) < 0.0 for row in rows), rows
    assert (out / "rate_fit.json").exists()


def test_infer_grid_refuses_a_fit_of_log_p_zero(tmp_path, capsys):
    # "T" * 1000 at R = 1..3: log P(MAP correct) is -1116, -998 and -920, so
    # log P(any error) underflows to -0.0: the curve is written, the fit is
    # refused with exit 1 and no rate_fit.json
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "T" * 1000, "beta": 1.0, "r": 1.0, "g1": 3.2}))
    out = tmp_path / "o"
    assert run(["infer", "--env", envp, "--R-grid", "1:3:1", "--seed", 1, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "runtime error: rate fit: log probability must be finite and < 0, got -0.0")
    assert (out / "error_curve.csv").read_text().split("\n")[1:4] == [
        "1,-0.0,1.0", "2,-0.0,1.0", "3,-0.0,1.0"]
    assert not (out / "rate_fit.json").exists()


def test_infer_stats_mismatch_rejected(tmp_path, env_file, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"sequence": "ATCGGA", "beta": 1.0, "r": 1.0, "g1": 2.0}))
    out = tmp_path / "o"
    assert run(["simulate", "--env", other, "--R", 5, "--seed", 1, "--out", out]) == 0
    rc = run(["infer", "--env", env_file, "--stats", out / "stats.json", "--out", out])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_rates_outputs(tmp_path, env_file):
    out = tmp_path / "o"
    assert run(["rates", "--env", env_file, "--out", out]) == 0
    rows = (out / "rates.csv").read_text().strip().split("\n")
    assert rows[0].startswith("site,pbar,inv_rc_discrete,inv_rc_continuous")
    assert len(rows) == 5  # header + M-1 sites
    assert rows[1].startswith("1,")
    profile = (out / "profile.csv").read_text().strip().split("\n")
    assert profile[1] == "0,0.0"
    doc = json.loads((out / "rates.json").read_text())
    assert all(v > 0 for v in doc["inv_rc_continuous"][1:])
    # degenerate table: every rate column becomes zero
    flat_env = tmp_path / "flat.json"
    flat_env.write_text(json.dumps({"sequence": "ATCGG", "beta": 1.0, "r": 1.0,
                                    "g1": 2.0, "g0": [[2.0] * 4] * 4}))
    out2 = tmp_path / "o2"
    assert run(["rates", "--env", flat_env, "--out", out2]) == 0
    doc2 = json.loads((out2 / "rates.json").read_text())
    assert all(v == 0.0 for v in doc2["inv_rc_discrete"][1:-1])


def test_rates_rerun_byte_identical(tmp_path, env_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["rates", "--env", env_file, "--out", out]) == 0
    for name in ("rates.json", "rates.csv", "profile.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_protocol_command(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "energies": [3.14, 1.78, 3.14, 1.78, 1.78],
        "scheme": "uniform-pair",
        "max_level": 3,
        "R_per_level": 400,
    }))
    out = tmp_path / "o"
    assert run(["protocol", "--config", cfg, "--seed", 21, "--out", out]) == 0
    est = json.loads((out / "estimates.json").read_text())
    assert [e["value"] for e in est] == [1.78, 3.14, 1.78, 1.78]
    # a scan prices each site at the pair (k, k + 1) its estimate flipped at
    assert [e["level"] for e in est] == [2, 1, 2, 2]
    ladder = LevelLadder.from_energies([3.14, 1.78, 3.14, 1.78, 1.78])
    bounds = (out / "bounds.csv").read_text().strip().split("\n")
    assert len(bounds) == 1 + len(est)
    for line, e in zip(bounds[1:], est):
        site, scheme, bound = line.split(",")
        assert int(site) == e["site"] and scheme == "uniform-pair"
        want = rc_energy([3.14, 1.78, 3.14, 1.78, 1.78], e["site"], ladder, 1.0,
                         "uniform-pair", k=e["level"])
        assert float(bound) == want > 0
    # stopped at level 2, the 1.78 sites never reach their pair: their cells stay empty
    out_short = tmp_path / "short"
    assert run(["protocol", "--config", cfg, "--seed", 21, "--max-level", 2,
                "--out", out_short]) == 0
    short = (out_short / "bounds.csv").read_text().strip().split("\n")[1:]
    assert [line.split(",")[2] for line in short] == ["", bounds[2].split(",")[2], "", ""]
    out2 = tmp_path / "o2"
    assert run(["protocol", "--config", cfg, "--seed", 21, "--out", out2]) == 0
    for name in ("levels.json", "levels.csv", "estimates.json", "estimates.csv", "bounds.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_protocol_absorbing_bound_invariant_to_tail(tmp_path):
    # small energies keep a zero-force tail simulable; the explicit ladder is
    # held fixed so only the energies move between the two runs
    ladder = {"mu": [0.6, 0.5, 0.4], "r": [0.65, 0.55, 0.45, 0.0]}
    base = {"ladder": ladder, "scheme": "absorbing-tail", "site": 2,
            "R_per_level": 50, "seed": 9}
    outs = []
    for tag, energies in (("a", [0.6, 0.4, 0.5]), ("b", [0.6, 0.4, 0.6])):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({**base, "energies": energies}))
        out = tmp_path / tag
        assert run(["protocol", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    # tail energy (site 3) differs, the absorbing bound column does not
    assert (outs[0] / "bounds.csv").read_bytes() == (outs[1] / "bounds.csv").read_bytes()


def test_simulate_trace_long_molecule(tmp_path):
    # a Figure-4 scale molecule: path CSV covers the full unzipping
    rng = np.random.default_rng(12)
    letters = "".join(rng.choice(list("ATCG"), size=500))
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": letters, "beta": 1.0, "r": 1.0, "g1": 3.0}))
    out = tmp_path / "o"
    assert run(["simulate", "--env", envp, "--R", 1, "--seed", 4, "--out", out,
                "--trace"]) == 0
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,site,time"
    assert lines[1].startswith("0,1,")
    assert lines[-1].split(",")[1] == "500"


def test_protocol_invalid_ladder_names_inequality(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "energies": [2.0, 1.5],
        "ladder": {"mu": [3.0, 1.0], "r": [2.0, 4.0, 0.0]},
        "R_per_level": 5,
    }))
    rc = run(["protocol", "--config", cfg, "--seed", 1, "--out", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "mu[1] - r[1] < 0" in err


def test_simulate_window_flag(tmp_path):
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "ATCGGTACGGAT", "beta": 1.0, "r": 1.0,
                                "g1": 2.4}))
    out = tmp_path / "o"
    assert run(["simulate", "--env", envp, "--R", 5, "--seed", 2, "--out", out,
                "--window", "6:3:0.5"]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["R"] == 5


def test_step_cap_runtime_error(tmp_path, capsys):
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "GCGCGCGC", "beta": 1.0, "r": 1.0, "g1": 0.0}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"environment": str(envp), "R": 2, "seed": 1,
                               "step_cap": 40}))
    rc = run(["simulate", "--config", cfg, "--out", tmp_path / "o"])
    assert rc == 1
    assert "step cap" in capsys.readouterr().err


def test_canonical_json_sorted_and_nan_free():
    s = canonical_json({"b": 1, "a": float("nan"), "c": [1.5, float("inf")]})
    assert s == '{"a":null,"b":1,"c":[1.5,null]}\n'
    # numpy scalars, non-string keys, escapes and subnormals: json.dumps's bytes
    def doc(f, i, b):
        return {"z": [f(0.1), i(-3), b(True), None, True, "\u00e9\"\n", f(np.float32(2.5))],
                10: {"b": -0.0, "a": f("-inf"), "c": []}, "2": (1, 2.5e-320, {})}
    plain = _generic_json(doc(float, int, bool))
    assert canonical_json(doc(np.float64, np.int64, np.bool_)).encode() == plain
    assert canonical_json(doc(float, int, bool)).encode() == plain
    assert canonical_json([np.float32(2.5), np.float32("nan")]) == "[2.5,null]\n"


def _stats_doc(env_doc, mode, tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--env", env_doc, "--R", 4, "--seed", 3, "--mode", mode,
                "--out", out]) == 0
    return json.loads((out / "stats.json").read_text())


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_entry(key, i, value):
    def edit(doc):
        doc[key][i] = value
    return edit


@pytest.mark.parametrize("mode,edit,field", [
    ("discrete", _drop("L_minus"), "L_minus"),
    ("continuous", _drop("S"), "S"),
    ("discrete", _set("L_plus", [1, 2, 3]), "L_plus"),
    ("continuous", _set("S", [1.0, 2.0]), "S"),
    ("discrete", _set_entry("L_minus", 1, -1), "L_minus"),
    ("discrete", _set_entry("L_plus", 0, 2.5), "L_plus"),
    ("discrete", _set("R", "4"), "R"),
    ("discrete", _set("site", [1, 2, 4, 3]), "site"),
    ("continuous", _set_entry("S", 2, None), "S"),
    ("continuous", _set_entry("S", 2, 0.0), "S"),
    ("continuous", _set_entry("S", 2, -1.0), "S"),
    ("discrete", _set("mode", "sideways"), "mode"),
    ("discrete", _set_entry("L_plus", 3, 5), "L_plus"),  # breaks L+_{M-1} = R
    ("discrete", _set("steps", 1), "steps"),
    # numpy read "0.5" as 0.5 and true as 1.0
    ("continuous", _set_entry("S", 1, "0.5"), "S"),
    ("continuous", _set_entry("S", 1, True), "S"),
])
def test_infer_stats_file_rejected(tmp_path, env_file, capsys, mode, edit, field):
    doc = _stats_doc(env_file, mode, tmp_path)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run(["infer", "--env", env_file, "--stats", bad, "--mode", mode, "--out", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: stats:") and field in err, err


def test_rates_deep_landscape_saturates(tmp_path):
    # 1/pbar_1 ~ e^779: the moments and the expected time overflow a float
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "A" * 1000, "beta": 1.0, "r": 1.0, "g1": 1.0}))
    out = tmp_path / "o"
    assert run(["rates", "--env", envp, "--out", out]) == 0
    doc = json.loads((out / "rates.json").read_text())
    assert doc["e_up"][0] is None and doc["time_expectation"] is None
    assert doc["pbar"][0] == 0.0 and doc["pbar"][-1] == 1.0


@pytest.mark.parametrize("argv,code,message", [
    (["simulate", "--R", 0, "--seed", 1], 2, "config error: R:"),
    (["infer", "--R", 0, "--seed", 1], 2, "config error: R:"),
    (["rates", "--R", 0], 2, "config error: R:"),
    (["simulate", "--R", 1, "--seed", 1, "--step-cap", 0], 2, "config error: step_cap:"),
    (["infer", "--R-grid", "10:20:10", "--seed", 1, "--site", 1], 2, "config error: site:"),
    (["infer", "--R-grid", "10:20:10", "--seed", 1, "--site", 5], 2, "config error: site:"),
    # level 10 of the table ladder expects ~10^127.6 steps per walk on this list
    (["protocol", "--config", "{long}", "--seed", 1], 1, "runtime error: force level 10:"),
], ids=["simulate-R0", "infer-R0", "rates-R0", "step-cap0", "grid-site1", "grid-siteM",
        "protocol-level10"])
def test_refused_before_any_walk(tmp_path, env_file, capsys, argv, code, message):
    energies = np.random.default_rng(800).choice([1.55, 1.78], size=800).tolist()
    long_cfg = tmp_path / "long.json"
    long_cfg.write_text(json.dumps({"energies": energies, "ladder": "from-table",
                                    "max_level": 10, "R_per_level": 5}))
    argv = [str(a).format(long=long_cfg) for a in argv]
    t0 = time.perf_counter()
    rc = run(argv + ["--env", env_file, "--out", tmp_path / "o"])
    elapsed = time.perf_counter() - t0
    assert rc == code
    assert capsys.readouterr().err.startswith(message)
    assert elapsed < 1.0


def test_protocol_absorbing_bounds_saturate(tmp_path):
    # 801 sites: e^(mu_K beta (M - x)) overflows a float for x <= 343
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"energies": [1.55, 1.78] * 400, "scheme": "absorbing-tail",
                               "site": 799, "R_per_level": 5}))
    out = tmp_path / "o"
    assert run(["protocol", "--config", cfg, "--seed", 2, "--out", out]) == 0
    bounds = [line.split(",") for line in (out / "bounds.csv").read_text().split()[1:]]
    assert [b[0] for b in bounds] == [str(x) for x in range(2, 801)]
    assert {b[2] for b in bounds[:342]} == {"inf"}
    assert all(0 < float(b[2]) < math.inf for b in bounds[342:])


@pytest.mark.parametrize("argv", [
    ["simulate", "--R", 1, "--seed", 1],
    ["infer", "--R", 1, "--seed", 1],
    ["infer", "--R-grid", "10:20:10", "--seed", 1],
])
def test_trapping_walks_refused_before_simulating(tmp_path, capsys, argv):
    # expected ~2e31 steps per walk: walking to the 1e8 cap would take ~30 s
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "GC" * 20, "beta": 1.0, "r": 1.0, "g1": 2.0}))
    t0 = time.perf_counter()
    rc = run(argv + ["--env", envp, "--step-cap", 10**8, "--out", tmp_path / "o"])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    err = capsys.readouterr().err
    assert "step cap 100000000" in err and "steps per walk" in err
    assert elapsed < 1.0



@pytest.mark.parametrize("mode, b1", [("continuous", "auto"), ("discrete", "none")])
def test_infer_grid_rows_are_error_report_values(tmp_path, monkeypatch, mode, b1):
    # each checkpoint's row carries its error_report's log P(any error) and
    # the site's log P(error), bit for bit in their text
    rnd = random.Random(7)
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "".join(rnd.choice("ATCG") for _ in range(60)),
                                "beta": 1.0, "r": 1.0, "g1": 3.0}))
    env = environment_from_json(json.loads(envp.read_text()))
    rng = np.random.default_rng(25)
    stats = [law_stats(env, R, mode, rng) for R in (10**3, 10**4, 10**5, 10**6)]
    monkeypatch.setattr(cli, "accumulate_checkpoints", lambda *args, **kwargs: stats)
    out = tmp_path / "o"
    assert run(["infer", "--env", envp, "--R-grid", "1:4:1", "--seed", 1,
                "--mode", mode, "--b1", b1, "--site", 30, "--out", out]) == 0
    rows = [line.split(",") for line in (out / "error_curve.csv").read_text().split()[1:]]
    b1_base = None if b1 == "none" else env.seq.base(1)
    reports = [error_report(agg, env, Prior.uniform(env.M), b1_base, 1) for agg in stats]
    assert len(rows) == len(reports) == 4
    assert [row[1] for row in rows] == [str(rep.log_p_any) for rep in reports]
    assert [row[3] for row in rows] == [str(float(rep.sites.log_p_error[28])) for rep in reports]


def test_infer_grid_calls_error_report_once_per_checkpoint(tmp_path, env_file, monkeypatch):
    # the grid has no inference route of its own: each checkpoint is one
    # error report at h_max 1
    calls = []

    def spy(stats, env, prior=None, b1=None, h_max=3):
        calls.append((stats.R, h_max))
        return error_report(stats, env, prior, b1, h_max)

    monkeypatch.setattr(cli, "error_report", spy)
    assert run(["infer", "--env", env_file, "--R-grid", "10:30:10", "--seed", 1, "--site", 3,
                "--out", tmp_path / "o"]) == 0
    assert calls == [(10, 1), (20, 1), (30, 1)]


def test_infer_grid_memory_is_one_checkpoint_at_a_time(tmp_path, monkeypatch):
    # the grid keeps two floats of each checkpoint's error report and drops
    # the report, site records included, before the next one, so at
    # M = 10,000 its peak stays under error_report's bound (8 MiB) with any
    # number of points; its stats come in before the peak is traced
    rnd = random.Random(8)
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({"sequence": "".join(rnd.choice("ATCG") for _ in range(10_000)),
                                "beta": 1.0, "r": 1.0, "g1": 3.5}))
    env = environment_from_json(json.loads(envp.read_text()))
    rng = np.random.default_rng(26)
    grid = [10**3, 10**4, 10**5, 10**6, 10**7]
    stats = [law_stats(env, R, "continuous", rng) for R in grid]
    monkeypatch.setattr(cli, "accumulate_checkpoints", lambda *args, **kwargs: stats)
    argv = ["infer", "--env", envp, "--R-grid", "1:5:1", "--seed", 1, "--mode", "continuous",
            "--site", 5000, "--out", tmp_path / "o"]
    assert run(argv) == 0  # warms the caches
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak

def _no_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the config was checked")

    for name in ("simulate_ensemble", "run_protocol", "accumulate_checkpoints", "simulate_walk"):
        monkeypatch.setattr(cli, name, no_walk)


@pytest.mark.parametrize("command,doc,message", [
    ("protocol", {"energies": [1.55, "x", 1.78]}, "config error: energies: entry 1"),
    ("protocol", {"energies": 1.55}, "config error: energies:"),
    ("protocol", {"energies": [1.55, float("nan"), 1.78], "ladder": "from-table"},
     "config error: energies: entry 1"),
    ("simulate", {"mode": "Discrete"}, "config error: mode:"),
    ("infer", {"mode": "Discrete"}, "config error: mode:"),
    ("protocol", {"energies": [1.55, 1.78, 1.55], "mode": "Discrete"}, "config error: mode:"),
    ("infer", {"prior": {"weights": [0, 0, 0, 0]}}, "config error: prior:"),
    ("infer", {"prior": {"weights": [float("nan"), 1, 1, 1]}}, "config error: prior:"),
    ("infer", {"prior": {"weights": [1, 1, 1, 1], "wieghts": 3}},
     "config error: prior: unknown key(s) ['wieghts']"),
    # numpy read these as a uniform prior
    ("infer", {"prior": {"weights": ["1", "1", "1", "1"]}},
     "config error: prior: weights: entry 0 must be a number, got '1'"),
    ("infer", {"prior": {"weights": [1, 1, 1, True]}},
     "config error: prior: weights: entry 3 must be a number, got True"),
    # a single checkpoint walks every replica, then has nothing to fit
    ("infer", {"R_grid": "5:5:1"}, "config error: R_grid:"),
    ("infer", {"R_grid": "5:9:10"}, "config error: R_grid:"),
    # a negative half-width used to leave the force field unchanged
    ("simulate", {"window": "4:-2:1.0"}, "config error: window: window half-width"),
    # a key its scheme's plan would drop
    ("protocol", {"energies": [1.55, 1.78, 1.55], "scheme": "focus-at-x", "site": 2, "k": 1},
     "config error: k:"),
    ("protocol", {"energies": [1.55, 1.78, 1.55], "scheme": "absorbing-tail", "site": 2,
                  "k": 1}, "config error: k:"),
    ("protocol", {"energies": [1.55, 1.78, 1.55], "k": 1, "max_level": 3},
     "config error: max_level:"),
    ("protocol", {"energies": [1.55, 1.78, 1.55], "site": 2}, "config error: site:"),
], ids=["energies-str", "energies-scalar", "energies-nan", "simulate-mode", "infer-mode",
        "protocol-mode", "prior-zero", "prior-nan", "prior-unknown-key", "prior-str",
        "prior-bool", "grid-one-point",
        "grid-step-past-stop", "window-negative-A", "focus-k", "absorbing-k",
        "pair-k-max-level", "pair-site"])
def test_config_field_refused_before_any_walk(tmp_path, capsys, monkeypatch, command, doc,
                                              message):
    _no_walk(monkeypatch)
    sized = {"R_per_level": 5} if command == "protocol" else {"environment": ENV_DOC, "R": 5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**doc, **sized, "seed": 1}))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit,message", [
    ({"beta": "2"}, "beta: expected a number, got '2'"),
    ({"beta": None}, "beta: expected a number, got None"),  # was a TypeError traceback
    ({"r": True}, "r: expected a number, got True"),
    ({"g1": True}, "g1: expected a number, got True"),
    ({"g1": ["1", "2", "3", "4"]}, "g1: entry 0 must be a number, got '1'"),
    ({"g0": [[1.0, 1.6, 2.8, 2.8]] * 3 + [[2.8, "2.8", 3.4, 3.4]]},
     "g0: entry 3, 1 must be a number, got '2.8'"),
], ids=["beta-str", "beta-null", "r-bool", "g1-bool", "g1-str-entries", "g0-str-entry"])
def test_environment_takes_numbers_only(tmp_path, capsys, monkeypatch, edit, message):
    # numpy read each of these as a number: "2" as beta = 2.0, true as 1.0
    _no_walk(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"environment": {**ENV_DOC, **edit}, "R": 5, "seed": 1}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: environment: {message}")
    assert not (tmp_path / "o").exists()


def test_non_string_sequence_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"environment": {"sequence": 5, "beta": 1, "r": 1, "g1": 1}}))
    assert run(["rates", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error: environment: sequence:")


def test_every_flag_overrides_an_allowed_key():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    for name, sub in commands.choices.items():
        allowed = {k for k, spec in cli._CONFIG_KEYS.items() if name in spec.commands}
        dests = {a.dest for a in sub._actions} - {"help", "config"}
        assert dests <= allowed, (name, sorted(dests - allowed))


# values of the wrong type for each kind of config key
_WRONG = {
    "int": ["1", True, 1.5, float("inf"), None],
    "enum": ["Nope", 5, True],
    "str": [5, ["a"]],
    "path": [5, ""],
    "doc": [5, ["x"]],
    "floats": ["x", [], [1.0, "x"], [True], [1.0, float("inf")]],
    "object": [5, "x"],
    "flag": ["no", 1, 0, None],
}
_WRONG_CASES = [
    (command, key, value)
    for key, spec in cli._CONFIG_KEYS.items()
    for command in spec.commands
    for value in _WRONG[spec.kind] + ([spec.low - 1] if spec.kind == "int" else [])
]


@pytest.mark.parametrize("command,key,value", _WRONG_CASES,
                         ids=[f"{c}-{k}-{v!r}" for c, k, v in _WRONG_CASES])
def test_every_key_refuses_a_wrong_value(tmp_path, capsys, monkeypatch, command, key, value):
    _no_walk(monkeypatch)
    base = ({"energies": [1.55, 1.78, 1.55], "R_per_level": 5} if command == "protocol"
            else {"environment": ENV_DOC, "R": 5})
    out = tmp_path / "o"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, "seed": 1, "out": str(out), key: value}))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}:"), err
    assert not out.exists()


def test_integral_floats_count_as_integers(tmp_path, env_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"environment": str(env_file), "R": 3e1, "seed": 7.0,
                               "step_cap": 1e6}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["simulate", "--env", env_file, "--R", 30, "--seed", 7,
                "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a/stats.json").read_bytes() == (tmp_path / "b/stats.json").read_bytes()


def test_oracle_refused_above_8_sites_before_any_walk(tmp_path, capsys, monkeypatch):
    _no_walk(monkeypatch)
    envp = tmp_path / "env.json"
    envp.write_text(json.dumps({**ENV_DOC, "sequence": "ATCGGATCG"}))
    out = tmp_path / "o"
    rc = run(["infer", "--env", envp, "--R", 2000, "--seed", 1, "--oracle", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: oracle: ")
    assert not out.exists()


def test_oracle_refused_with_R_grid_before_any_walk(tmp_path, env_file, capsys, monkeypatch):
    # the grid writes no decode to check, so the oracle would be dropped silently
    _no_walk(monkeypatch)
    out = tmp_path / "o"
    rc = run(["infer", "--env", env_file, "--R-grid", "10:30:10", "--seed", 1, "--oracle",
              "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: oracle: ")
    assert not out.exists()


def test_out_naming_a_file_refused(tmp_path, env_file, capsys):
    taken = tmp_path / "c.json"
    taken.write_text("{}")
    assert run(["rates", "--env", env_file, "--out", taken]) == 2
    assert capsys.readouterr().err.startswith("config error: out: ")


_COMMON_OPTIONS = {"-h": "help", "--help": "help", "--config": "config", "--out": "out",
                   "--format": "format", "--seed": "seed", "--mode": "mode",
                   "--env": "environment", "--step-cap": "step_cap"}
_COMMON_KEYS = {"command", "environment", "mode", "seed", "out", "format", "step_cap"}
# each subcommand's option strings (option -> config key it sets), its
# valueless options, and the config keys it accepts
CLI_SURFACE = {
    "simulate": ({**_COMMON_OPTIONS, "--R": "R", "--trace": "trace", "--window": "window"},
                 {"-h", "--help", "--trace"},
                 _COMMON_KEYS | {"R", "trace", "window"}),
    "infer": ({**_COMMON_OPTIONS, "--R": "R", "--R-grid": "R_grid", "--stats": "stats",
               "--b1": "b1", "--site": "site", "--h-max": "h_max", "--oracle": "oracle"},
              {"-h", "--help", "--oracle"},
              _COMMON_KEYS | {"R", "R_grid", "stats", "b1", "site", "h_max", "oracle",
                              "prior"}),
    "rates": ({**_COMMON_OPTIONS, "--R": "R"}, {"-h", "--help"}, _COMMON_KEYS | {"R"}),
    "protocol": ({**_COMMON_OPTIONS, "--scheme": "scheme", "--site": "site", "--k": "k",
                  "--max-level": "max_level", "--R-per-level": "R_per_level"},
                 {"-h", "--help"},
                 _COMMON_KEYS | {"energies", "ladder", "scheme", "site", "k", "max_level",
                                 "R_per_level"}),
}


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_cli_surface_pinned(tmp_path, monkeypatch, capsys, command):
    options, valueless, keys = CLI_SURFACE[command]
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(CLI_SURFACE)
    actions = commands.choices[command]._actions
    assert {s: a.dest for a in actions for s in a.option_strings} == options
    assert {s for a in actions if a.nargs == 0 for s in a.option_strings} == valueless

    # every accepted key gets past the key check (an empty object is refused
    # later, as a bad value); every other command's key is refused by name
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: {} for key in keys}))
    assert run([command, "--config", cfg]) == 2
    assert "unknown key" not in capsys.readouterr().err
    others = set().union(*(k for _, _, k in CLI_SURFACE.values())) - keys
    for key in sorted(others):
        cfg.write_text(json.dumps({key: {}}))
        assert run([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown key(s) for {command}: [{key!r}]\n")
