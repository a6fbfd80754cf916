"""Batch front-end: simulate / infer / rates / protocol.

Configuration is a single JSON document; command-line flags override config
keys.  Every command is deterministic under a fixed seed and config, and all
outputs are written in a canonical form (sorted-key JSON, '.'-decimal CSV
with '\\n' line endings) so reruns can be diffed byte for byte.

Usage examples:

  unzipseq simulate --config run.json --seed 7 --R 1000 --out results
  unzipseq infer --config run.json --stats results/stats.json --oracle
  unzipseq rates --config run.json --out results
  unzipseq protocol --config ladder.json --seed 3 --R-per-level 2000

Exit codes: 0 success, 2 configuration error (message names the offending
field), 1 runtime failure (e.g. a step-cap abort).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import (
    BASES,
    Base,
    Environment,
    EnergyTable,
    ModelParams,
    environment_from_json,
)
from .inference import (
    ErrorReport,
    Prior,
    build_edge_potentials,
    empirical_rate_from_logs,
    error_report,
)
from .protocols import (
    SCHEMES,
    LevelLadder,
    ProtocolAbort,
    _require_plan_keys,
    build_protocol,
    estimate_energy,
    rc_energy,
    run_protocol,
    window_schedule,
)
from .rates import RateReport, _margin_g1, decision_margins, rate_report, rc_site
from .walker import (
    DEFAULT_STEP_CAP,
    MODES,
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    accumulate_checkpoints,
    simulate_ensemble,
    simulate_walk,
    verify_conservation,
)

__all__ = ["main", "cli_entry"]


class ConfigError(ValueError):
    pass


_ALL_COMMANDS = ("simulate", "infer", "rates", "protocol")


@dataclass(frozen=True)
class _Key:
    """One config key: its kind, the commands that accept it, the value it
    takes when absent (None: it stays absent) and the flag that overrides it."""

    kind: str  # int, enum, str, path, doc, floats, object or flag
    commands: tuple[str, ...] = _ALL_COMMANDS
    default: object = None
    flag: str | None = None
    low: int = 1  # int: the smallest value allowed
    choices: tuple = ()  # enum: the values allowed
    help: str | None = None


# kind -> (what a value must be, its test); an integral float such as 1e7
# counts as an integer, a bool never does
_KINDS = {
    "int": ("an integer >= {low}", lambda v, k: type(v) is int and v >= k.low),
    "enum": ("one of {choices}", lambda v, k: v in k.choices),
    "str": ("a string", lambda v, k: isinstance(v, str)),
    "path": ("a non-empty path", lambda v, k: isinstance(v, str) and v != ""),
    "doc": ("a string or an object", lambda v, k: isinstance(v, (str, dict))),
    "floats": ("a non-empty list of numbers", lambda v, k: isinstance(v, list) and v != []),
    "object": ("an object", lambda v, k: isinstance(v, dict)),
    "flag": ("true or false", lambda v, k: isinstance(v, bool)),
}

# every config key, once: the parser, the allowed-key check and the
# validation pass are all read off this table
_CONFIG_KEYS = {
    "environment": _Key("doc", flag="--env", help="environment JSON file"),
    "mode": _Key("enum", default="discrete", flag="--mode", choices=MODES),
    "seed": _Key("int", flag="--seed", low=0),
    "out": _Key("path", default=".", flag="--out", help="output directory"),
    "format": _Key("enum", default="json", flag="--format", choices=("csv", "json")),
    "step_cap": _Key("int", default=DEFAULT_STEP_CAP, flag="--step-cap"),
    "R": _Key("int", ("simulate", "infer", "rates"), flag="--R"),
    "trace": _Key("flag", ("simulate",), default=False, flag="--trace"),
    "window": _Key("str", ("simulate",), flag="--window", help="y:A:C force window"),
    "R_grid": _Key("str", ("infer",), flag="--R-grid", help="a:b:step"),
    "stats": _Key("path", ("infer",), flag="--stats", help="stats JSON from simulate"),
    "b1": _Key("str", ("infer",), default="auto", flag="--b1", help="A|T|C|G|auto|none"),
    "site": _Key("int", ("infer", "protocol"), flag="--site", low=2),
    "h_max": _Key("int", ("infer",), default=3, flag="--h-max", low=0),
    "oracle": _Key("flag", ("infer",), default=False, flag="--oracle"),
    "prior": _Key("object", ("infer",)),
    "energies": _Key("floats", ("protocol",)),
    "ladder": _Key("doc", ("protocol",), default="from-energies"),
    "scheme": _Key("enum", ("protocol",), default="uniform-pair", flag="--scheme",
                   choices=SCHEMES),
    "k": _Key("int", ("protocol",), flag="--k"),
    "max_level": _Key("int", ("protocol",), flag="--max-level"),
    "R_per_level": _Key("int", ("protocol",), flag="--R-per-level"),
}


def _keys(command: str) -> dict[str, _Key]:
    return {key: spec for key, spec in _CONFIG_KEYS.items() if command in spec.commands}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; each flag's dest is the config key it
    overrides, and a flag left out stays out of the namespace.  Built on the
    first call and kept: parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="unzipseq", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _ALL_COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file")
        for key, spec in _keys(name).items():
            if spec.flag is None:
                continue
            if spec.kind == "flag":
                p.add_argument(spec.flag, dest=key, action="store_true")
            else:
                p.add_argument(spec.flag, dest=key, type=int if spec.kind == "int" else str,
                               choices=spec.choices or None, help=spec.help)
    return parser


def _check(key: str, spec: _Key, value):
    """``value`` checked against the key's kind, and normalised."""
    if spec.kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    what, test = _KINDS[spec.kind]
    if not test(value, spec):
        what = what.format(low=spec.low, choices=list(spec.choices))
        raise ConfigError(f"{key}: expected {what}, got {value!r}")
    if spec.kind == "floats":
        for i, e in enumerate(value):
            number = isinstance(e, (int, float)) and not isinstance(e, bool)
            # abs(nan) <= max is False, and so is it for a number too large for a float
            if not (number and abs(e) <= sys.float_info.max):
                raise ConfigError(f"{key}: entry {i} must be a finite number, got {e!r}")
        value = [float(e) for e in value]
    return value


def _load_config(args: argparse.Namespace) -> dict:
    """The config file overridden by the flags, with every key checked and
    every absent key that has a default filled in: the one validation pass,
    run before any file is written or any walk starts."""
    flags = vars(args)
    path = flags.pop("config", None)
    cfg: dict = {}
    if path:
        try:
            cfg = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"config: cannot read {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: invalid JSON in {path}: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config: top-level document must be an object")
    cfg.update(flags)
    keys = _keys(cfg["command"])
    unknown = set(cfg) - set(keys) - {"command"}
    if unknown:
        raise ConfigError(f"unknown key(s) for {cfg['command']}: {sorted(unknown)}")
    for key, spec in keys.items():
        if key in cfg:
            cfg[key] = _check(key, spec, cfg[key])
        elif spec.default is not None:
            cfg[key] = spec.default
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"{key}: required for command {cfg['command']!r}")
    return cfg[key]


def _environment(cfg: dict) -> Environment:
    doc = _require(cfg, "environment")
    if isinstance(doc, str):
        try:
            doc = json.loads(Path(doc).read_text())
        except OSError as e:
            raise ConfigError(f"environment: cannot read file: {e}") from e
    try:
        return environment_from_json(doc)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"environment: {e}") from e


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out: cannot create the output directory: {e}") from None
    return out


class _Json(str):
    """Text already in canonical JSON form."""


def _json(obj) -> str:
    """Canonical JSON text: sorted keys, no spaces, NaN/inf as null; the
    same bytes as ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.
    The commonest values are tested first."""
    if isinstance(obj, float):  # np.float64 too
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, _Json):
        return obj
    if isinstance(obj, dict):
        keys = sorted(obj, key=str)
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json(obj[k]) for k in keys) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_json, obj)) + "]"
    if isinstance(obj, np.floating):
        return _json(float(obj))
    return json.dumps(obj)


def canonical_json(obj) -> str:
    return _json(obj) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(canonical_json(obj))


def _cells(col) -> list[str]:
    """A numeric column's entries as text, in one pass: the repr of each
    Python int or float, ``nan``, ``inf`` or ``-inf`` where not finite."""
    return list(map(repr, col.tolist() if isinstance(col, np.ndarray) else col))


def _json_column(col, cells: list[str]) -> list[str]:
    """The ``cells`` of a numeric column as JSON values: null where not finite."""
    bad = np.flatnonzero(~np.isfinite(col)).tolist()
    if bad:
        cells = cells.copy()
        for i in bad:
            cells[i] = "null"
    return cells


def _json_array(cells: list[str]) -> _Json:
    return _Json("[" + ",".join(cells) + "]")


def _json_rows(columns: dict[str, list[str]]) -> list[str]:
    """One JSON object per row of the text ``columns``, keys sorted."""
    keys = sorted(columns)
    template = "{" + ",".join(json.dumps(k) + ":%s" for k in keys) + "}"
    return [template % row for row in zip(*(columns[k] for k in keys))]


def _write_csv(path: Path, header, columns) -> None:
    """One row per entry of the columns (arrays, lists or iterators; the
    shortest sets the row count).  An array is turned into text by
    ``_cells``, other cells by ``str``; a column already in text passes
    through unchanged."""
    cells = [_cells(col) if isinstance(col, np.ndarray) else map(str, col) for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n")


def _parse_grid(spec: str) -> list[int]:
    try:
        a, b, step = (int(v) for v in spec.split(":"))
    except ValueError:
        raise ConfigError(f"R_grid: expected 'start:stop:step', got {spec!r}") from None
    if a < 1 or step < 1 or b < a:
        raise ConfigError(f"R_grid: bad range {spec!r}")
    grid = list(range(a, b + 1, step))
    if len(grid) < 2:
        raise ConfigError(f"R_grid: {spec!r} gives one checkpoint, a rate fit needs at least 2")
    return grid


# --------------------------------------------------------------------------
# simulate


def _apply_window(env: Environment, spec: str) -> Environment:
    try:
        y, A, C = spec.split(":")
        y, A, C = int(y), int(A), float(C)
    except ValueError:
        raise ConfigError(f"window: expected 'y:A:C', got {spec!r}") from None
    try:
        field = window_schedule(y, A, C, env.M, baseline=env.force)
    except ValueError as e:
        raise ConfigError(f"window: {e}") from None
    return Environment(env.seq, env.table, field, env.params)


def _stats_json(agg: AggregateStats) -> tuple[dict, dict[str, list[str]]]:
    """``agg.to_json_dict()`` with its site columns in JSON text, and those
    columns' cells: each column is turned into text once, for both files."""
    doc = agg.to_json_dict()
    text = {n: _cells(doc[n]) for n in ("site", "L_plus", "L_minus", "S") if n in doc}
    doc.update((n, _json_array(_json_column(doc[n], cells))) for n, cells in text.items())
    return doc, text


def cmd_simulate(cfg: dict) -> int:
    env = _environment(cfg)
    if "window" in cfg:
        env = _apply_window(env, cfg["window"])
    mode = cfg["mode"]
    R = _require(cfg, "R")
    seed = SeedSpec(_require(cfg, "seed"))
    out = _outdir(cfg)
    agg = simulate_ensemble(env, R, mode, seed, step_cap=cfg["step_cap"])
    doc, text = _stats_json(agg)
    _write_json(out / "stats.json", doc)
    if cfg["format"] == "csv":
        _write_csv(out / "stats.csv", ("site", "L_plus", "L_minus", "S", "R"),
                   (text["site"], text["L_plus"], text["L_minus"],
                    text.get("S", itertools.repeat("")), itertools.repeat(agg.R)))
    if cfg["trace"]:
        walk = simulate_walk(env, mode, seed, 0, trace=True, step_cap=cfg["step_cap"])
        _write_csv(out / "trace.csv", ("step", "site", "time"),
                   (range(walk.path.size), walk.path, walk.path_times))
    return 0


# --------------------------------------------------------------------------
# infer


def _parse_b1(cfg: dict, env: Environment) -> Base | None:
    raw = cfg["b1"].lower()
    if raw == "none":
        return None
    if raw == "auto":
        return env.seq.base(1)
    try:
        return Base.from_letter(raw)
    except ValueError as e:
        raise ConfigError(f"b1: {e}") from None


def _prior(cfg: dict, M: int) -> Prior:
    if "prior" not in cfg:
        return Prior.uniform(M)
    doc = cfg["prior"]
    unknown = set(doc) - {"weights"}
    if unknown:
        raise ConfigError(f"prior: unknown key(s) {sorted(unknown)}")
    if "weights" not in doc:
        raise ConfigError("prior: expected {'weights': [wA, wT, wC, wG]}")
    try:
        return Prior.iid(doc["weights"], M)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"prior: {e}") from None


def _oracle_enumeration(phi: np.ndarray, b1, h_max: int) -> dict:
    """Plain 4^(M-1) enumeration of the posterior by array sums; reference
    for small M (the CLI allows M <= 8)."""
    M = phi.shape[0]
    starts = [b1] if b1 is not None else list(BASES)
    # every sequence as a row, in Base order (last site fastest)
    rest = np.indices((4,) * (M - 1)).reshape(M - 1, -1).T
    seqs = np.column_stack((np.repeat(starts, len(rest)), np.tile(rest, (len(starts), 1))))
    costs = np.zeros(len(seqs))
    for x in range(1, M):  # edge by edge, so each cost is summed left to right
        costs += phi[x, seqs[:, x - 1], seqs[:, x]]
    shift = float(costs.min())
    # enumeration runs in base order, so the first within-tolerance optimum
    # is the same tie-broken representative the decoder reports
    best = int(np.flatnonzero(costs <= shift + 1e-9)[0])
    weights = np.exp(-(costs - shift))
    Z = float(weights.sum())
    log_z = float(-shift + math.log(Z))
    p_any = float(1.0 - weights[best] / Z)
    # maximal runs of sites that differ from the MAP
    mism = seqs != seqs[best]
    blocks = mism[:, 0] + (mism[:, 1:] & ~mism[:, :-1]).sum(axis=1)
    p_h = [{"h": h, "p": sum(weights[blocks >= h].tolist()) / Z}
           for h in range(1, h_max + 1)]
    return {
        "map_sequence": "".join(BASES[b].name for b in seqs[best]),
        "cost": float(costs[best]),
        "log_partition": log_z,
        "p_any_error": p_any,
        "p_h_errors": p_h,
    }


def cmd_infer(cfg: dict) -> int:
    env = _environment(cfg)
    mode = cfg["mode"]
    prior = _prior(cfg, env.M)
    b1 = _parse_b1(cfg, env)
    h_max = cfg["h_max"]

    if "R_grid" in cfg:
        if "stats" in cfg:
            raise ConfigError("R_grid: cannot be combined with a stats file")
        if cfg["oracle"]:
            raise ConfigError("oracle: cannot be combined with R_grid")
        return _infer_grid(cfg, env, mode, prior, b1)
    if cfg["oracle"] and env.M > 8:
        raise ConfigError(f"oracle: exhaustive enumeration limited to M <= 8, got M = {env.M}")

    out = _outdir(cfg)
    if "stats" in cfg:
        agg = _load_stats(cfg["stats"], env, mode)
    else:
        R = _require(cfg, "R")
        seed = SeedSpec(_require(cfg, "seed"))
        agg = simulate_ensemble(env, R, mode, seed, step_cap=cfg["step_cap"])

    doc = _write_decode(out, error_report(agg, env, prior, b1, h_max), cfg["format"])
    if cfg["oracle"]:
        oracle = _oracle_enumeration(build_edge_potentials(agg, env, prior), b1, h_max)
        diffs = {k: abs(oracle[k] - doc[k]) for k in ("cost", "log_partition", "p_any_error")}
        diffs["map_sequence_equal"] = oracle["map_sequence"] == doc["map_sequence"]
        diffs["p_h_errors"] = [abs(o["p"] - m["p"])
                               for o, m in zip(oracle["p_h_errors"], doc["p_h_errors"])]
        _write_json(out / "oracle.json", {"oracle": oracle, "diffs": diffs})
    return 0


def _write_decode(out: Path, report: ErrorReport, fmt: str) -> dict:
    """decode.json and, for csv, posteriors.csv; each float column of the
    site records is turned into text once, for both files.  Returns the
    decode document."""
    post = report.sites
    sites = _cells(post.site)
    probs = [_cells(col) for col in post.probs.T]  # in Base order
    posteriors = _json_rows({b.name: _json_column(col, cells)
                             for b, col, cells in zip(BASES, post.probs.T, probs)})
    doc = {
        "map_sequence": str(report.decode.map_sequence),
        "cost": report.decode.cost,
        "log_partition": report.log_partition,
        "ties": [str(t) for t in report.decode.ties],
        "tie": report.decode.tie,
        "p_any_error": report.p_any,
        "log_p_any_error": report.log_p_any,
        "p_h_errors": [{"h": h, "p": p, "log_p": lp} for h, p, lp in report.p_blocks],
        "site_errors": _json_array(_json_rows({
            "site": sites,
            "p": _json_column(post.p_error, _cells(post.p_error)),
            "log_p": _json_column(post.log_p_error, _cells(post.log_p_error)),
        })),
        "site_posteriors": _json_array(_json_rows({"site": sites, "probs": posteriors})),
    }
    _write_json(out / "decode.json", doc)
    if fmt == "csv":
        _write_csv(out / "posteriors.csv", ("site", "p_A", "p_T", "p_C", "p_G"), (sites, *probs))
    return doc


def _load_stats(path: str, env: Environment, mode: str) -> AggregateStats:
    """A stats file, checked field by field and against the flow identities."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"stats: cannot read file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"stats: invalid JSON: {e}") from e
    try:
        agg = AggregateStats.from_json_dict(doc)
    except ValueError as e:
        raise ConfigError(f"stats: {e}") from None
    if agg.M != env.M:
        raise ConfigError(f"stats: M = {agg.M} does not match environment M = {env.M}")
    if agg.mode != mode:
        raise ConfigError(f"stats: recorded mode {agg.mode!r} does not match {mode!r}")
    broken = verify_conservation(agg)
    if broken:
        raise ConfigError(
            "stats: L_plus, L_minus and steps break the flow identities: " + "; ".join(broken[:3])
        )
    return agg


def _infer_grid(cfg, env, mode, prior, b1) -> int:
    grid = _parse_grid(cfg["R_grid"])
    seed = SeedSpec(_require(cfg, "seed"))
    site = cfg.get("site")
    if site is not None and not 2 <= site <= env.M - 1:
        raise ConfigError(f"site: expected an interior site in [2, {env.M - 1}], got {site!r}")
    out = _outdir(cfg)
    stats_seq = accumulate_checkpoints(env, mode, seed, grid, step_cap=cfg["step_cap"])
    # one error report per checkpoint, dropped before the next one
    lp_any, lp_site = [], []
    for agg in stats_seq:
        report = error_report(agg, env, prior, b1, 1)
        lp_any.append(report.log_p_any)
        if site is not None:
            lp_site.append(float(report.sites.log_p_error[site - 2]))
    columns = [grid, lp_any, [math.exp(min(lp, 0.0)) for lp in lp_any]]
    header = ["R", "log_p_any_error", "p_any_error"]
    if site is not None:
        columns += [lp_site, [math.exp(min(lp, 0.0)) for lp in lp_site]]
        header += ["log_p_site_error", "p_site_error"]
    _write_csv(out / "error_curve.csv", header, columns)
    # a log P that rounds to 0 cannot be fitted: the curve stays, rate_fit.json is not written
    try:
        fit = empirical_rate_from_logs(zip(grid, lp_any))
        fit_site = empirical_rate_from_logs(zip(grid, lp_site)) if site is not None else None
    except ValueError as e:
        print(f"runtime error: rate fit: {e}", file=sys.stderr)
        return 1
    g1 = _margin_g1(env, mode)
    margin_bound = (None if g1 is None
                    else decision_margins(env.table, env.beta, g1, mode=mode).minus)
    doc = {
        "mode": mode,
        "slope_any_error": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "intercept": fit.intercept,
        "margin_lower_bound": margin_bound,
    }
    if site is not None:
        rc = rc_site(env, site, mode)
        doc["site"] = site
        doc["slope_site_error"] = fit_site.slope
        doc["slope_site_stderr"] = fit_site.slope_stderr
        doc["rc_site"] = rc
        # finite-R residual -log P - R rc against the analytic rate: its correction
        # carries an unspecified constant (~sqrt(R log log R)), so it is
        # diagnostic only and never asserted against
        doc["site_residuals"] = [
            {"R": float(r), "residual": -lp - r * rc} for r, lp in zip(grid, lp_site)
        ]
    _write_json(out / "rate_fit.json", doc)
    return 0


# --------------------------------------------------------------------------
# rates


def cmd_rates(cfg: dict) -> int:
    env = _environment(cfg)
    out = _outdir(cfg)
    _write_rates(out, rate_report(env, cfg.get("R", 1)))
    _write_csv(out / "profile.csv", ("x", "g"), (range(env.M), env.profile))
    return 0


def _write_rates(out: Path, report: RateReport) -> None:
    """rates.json and rates.csv; each column is turned into text once, for
    both files."""
    doc = report.to_json_dict()
    text = {n: _cells(doc[n]) for n in report.CSV_HEADER}
    _write_csv(out / "rates.csv", report.CSV_HEADER, text.values())
    doc.update((n, _json_array(_json_column(doc[n], cells))) for n, cells in text.items())
    _write_json(out / "rates.json", doc)


# --------------------------------------------------------------------------
# protocol


def _ladder(cfg: dict, energies: list[float]) -> LevelLadder:
    """The configured ladder, built (and so checked) once."""
    doc = cfg["ladder"]
    try:
        if doc == "from-energies":
            return LevelLadder.from_energies(energies)
        if doc == "from-table":
            return LevelLadder.from_table(EnergyTable.default())
        if isinstance(doc, dict) and set(doc) == {"mu", "r"}:
            return LevelLadder(tuple(doc["mu"]), tuple(doc["r"]))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"ladder: {e}") from None
    raise ConfigError("ladder: expected 'from-energies', 'from-table' or {'mu': [...], 'r': [...]}")


def cmd_protocol(cfg: dict) -> int:
    # the environment, needed unless energies are given, also sets the model parameters
    env = _environment(cfg) if "environment" in cfg or "energies" not in cfg else None
    energies = cfg["energies"] if "energies" in cfg else env.edge_g0[1:].tolist()
    params = env.params if env is not None else ModelParams()
    mode = cfg["mode"]
    scheme = cfg["scheme"]
    try:
        _require_plan_keys(scheme, cfg.get("site"), cfg.get("k"), cfg.get("max_level"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    R_per_level = _require(cfg, "R_per_level")
    seed = SeedSpec(_require(cfg, "seed"))
    M = len(energies) + 1
    ladder = _ladder(cfg, energies)
    try:
        plan = build_protocol(scheme, ladder, M, R_per_level, site=cfg.get("site"),
                              k=cfg.get("k"), max_level=cfg.get("max_level"))
    except (ValueError, IndexError) as e:
        raise ConfigError(f"protocol: {e}") from None
    out = _outdir(cfg)
    stats = run_protocol(energies, params, plan, seed, mode, step_cap=cfg["step_cap"])
    levels = sorted(stats)
    aggs = [stats[i] for i in levels]
    _write_json(out / "levels.json", {str(i): _stats_json(agg)[0] for i, agg in zip(levels, aggs)})
    _write_csv(out / "levels.csv", ("level", "site", "L_plus", "L_minus", "R"), (
        np.repeat(levels, M - 1),
        np.tile(np.arange(1, M), len(levels)),
        np.concatenate([agg.up[1:] for agg in aggs]),
        np.concatenate([agg.down[1:] for agg in aggs]),
        np.repeat([agg.R for agg in aggs], M - 1),
    ))

    # site-dependent schemes only calibrate the drift at the target site;
    # a scan that runs past the plan's deepest level is reported, not fatal
    sites = [plan.site] if plan.site is not None else list(range(2, M))
    est_docs = []
    for x in sites:
        try:
            est = estimate_energy(stats, x, ladder)
            est_docs.append({"site": x, "level": est.level, "value": est.value,
                             "undecided": est.undecided, "note": ""})
        except ValueError as e:
            est_docs.append({"site": x, "level": None, "value": None, "undecided": True,
                             "note": str(e)})
    _write_csv(out / "estimates.csv", ("site", "level", "mu", "undecided", "note"),
               [["" if d[k] is None else d[k] for d in est_docs]
                for k in ("site", "level", "value", "undecided", "note")])
    _write_json(out / "estimates.json", est_docs)

    bound_sites = np.arange(2, M)
    if scheme == "uniform-pair" and "k" not in cfg:
        # a scan prices each decided site at the pair its estimate flipped at
        flips = [d["level"] for d in est_docs]
        priced = {k: rc_energy(energies, bound_sites, ladder, params.beta, scheme, k=k).tolist()
                  for k in set(flips) - {None}}
        bounds = ["" if k is None else priced[k][i] for i, k in enumerate(flips)]
    else:
        bounds = rc_energy(energies, bound_sites, ladder, params.beta, scheme, k=cfg.get("k"))
    _write_csv(out / "bounds.csv", ("site", "scheme", "rate_lower_bound"),
               (bound_sites, itertools.repeat(scheme), bounds))
    return 0


_COMMANDS = dict(zip(_ALL_COMMANDS, (cmd_simulate, cmd_infer, cmd_rates, cmd_protocol)))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[cfg["command"]](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (StepCapExceeded, ProtocolAbort) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
