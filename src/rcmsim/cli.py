"""Campaign runner: JSON configuration in, trial table and cell summary out.

A campaign is a grid of (density, offset) cells, each simulated for a fixed
number of trials under one kernel and one metric.  Output is two files: a
per-trial table (one row per trial, schema below) and a per-cell summary
holding empirical means with 99% confidence half-widths next to the
quadrature predictions, so theory-vs-experiment comparison needs no second
tool.  Runs are deterministic: the same config produces byte-identical
files at any worker count.

Config document (JSON, unknown keys are errors):

    {
      "model": {"kind": "unit_disk"},
      "rho_list": [500, 2000],
      "b_list": [0.0],
      "metric": "torus",            # torus | square | coupled
      "trials": 1000,
      "master_seed": 1,
      "epsilon": 0.25,              # optional, dependence-bound exponent
      "output_path": "runs/out.csv",
      "format": "csv"               # csv | json, optional
    }

Model specs: {"kind": "unit_disk"}, {"kind": "gaussian", "cutoff_eps": ...},
{"kind": "log_normal", "sigma_db": ..., "eta": ..., "cutoff_eps": ...},
{"kind": "table", "knots": [[0.0, 1.0], ...]} or {"kind": "table",
"path": "kernel.txt"}.

Cells with log rho + b <= 0, or whose scaled support r * cutoff exceeds
1/2, are skipped with a warning, not an error.
Exit codes: 0 success (possibly with skipped cells), 2 bad config or
parameters, 3 model validation failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .analysis import TrialRecord, stack_records
from .errors import ConfigError, ModelError, ParameterError, QuadratureError, RcmError
from .geometry import Metric
from .models import (ConnectionModel, gaussian, load_table, log_normal,
                     table_model, unit_disk)
from .sampler import (SampleParams, stack_coupled_edges, stack_edges, stack_points,
                      truncation_bias)
from .theory import (ChenSteinParams, chen_stein_terms, theory_report,
                     tv_to_poisson)

SEED_ENV = "RCM_SEED"
SKIP_REASON = "log rho + b <= 0"
# two-sided 99% normal quantile
Z99 = 2.5758293035489004
# expected points per batch of a cell's trials: 8 trials at rho 2000, 4 at
# 4000; a bigger batch saves little more per trial and holds more memory
_BATCH_POINTS = 1 << 14

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4

TRIAL_COLUMNS = tuple(f.name for f in dataclass_fields(TrialRecord))

_CONFIG_KEYS = {"model", "rho_list", "b_list", "metric", "trials",
                "master_seed", "epsilon", "output_path", "format"}
_MODEL_KEYS = {
    "unit_disk": set(),
    "gaussian": {"cutoff_eps"},
    "log_normal": {"sigma_db", "eta", "cutoff_eps"},
    "table": {"knots", "path", "cutoff_eps"},
}


@dataclass(frozen=True)
class CampaignConfig:
    model: ConnectionModel
    rho_list: tuple[float, ...]
    b_list: tuple[float, ...]
    metric: str
    trials: int
    master_seed: int
    epsilon: float
    output_path: str
    format: str


@dataclass(frozen=True)
class CellSummary:
    rho: float
    b: float
    metric: str
    trials: int
    skipped: bool
    reason: str | None
    mean_isolated: float | None = None
    var_isolated: float | None = None
    ci99_isolated: float | None = None
    p_no_isolated: float | None = None
    ci99_p_no_isolated: float | None = None
    frac_connected: float | None = None
    ci99_frac_connected: float | None = None
    mean_degree: float | None = None
    ci99_mean_degree: float | None = None
    tv_to_poisson: float | None = None
    theory_isolated: float | None = None
    theory_asymptotic_mean: float | None = None
    theory_prob_no_isolated: float | None = None
    theory_p_no_isolated: float | None = None
    theory_mean_degree: float | None = None
    theory_boundary_excess: float | None = None
    chen_stein_b1: float | None = None
    chen_stein_b2: float | None = None
    mean_boundary: float | None = None
    ci99_boundary: float | None = None


SUMMARY_COLUMNS = tuple(f.name for f in dataclass_fields(CellSummary))


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[CellSummary, ...]


# ---------------------------------------------------------------------------
# configuration


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _real(doc, key, *, positive=False):
    v = doc[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"field {key!r} must be a number")
    v = float(v)
    _require(math.isfinite(v), f"field {key!r} must be finite")
    if positive:
        _require(v > 0.0, f"field {key!r} must be > 0")
    return v


def _integer(doc, key, *, lo=0, hi=None):
    v = doc[key]
    _require(isinstance(v, int) and not isinstance(v, bool),
             f"field {key!r} must be an integer")
    _require(v >= lo, f"field {key!r} must be >= {lo}")
    if hi is not None:
        _require(v <= hi, f"field {key!r} must be <= {hi}")
    return v


def build_model(spec) -> ConnectionModel:
    """Construct a kernel from its JSON spec (kind + parameters)."""
    _require(isinstance(spec, dict), "model spec must be an object")
    _require("kind" in spec, "model spec missing field 'kind'")
    kind = spec["kind"]
    _require(kind in _MODEL_KEYS, f"unknown model kind {kind!r}")
    allowed = _MODEL_KEYS[kind]
    for k in spec:
        _require(k == "kind" or k in allowed,
                 f"unknown key {k!r} for model kind {kind!r}")
    kwargs = {}
    if "cutoff_eps" in spec:
        kwargs["cutoff_eps"] = _real(spec, "cutoff_eps", positive=True)
    if kind == "unit_disk":
        return unit_disk()
    if kind == "gaussian":
        return gaussian(**kwargs)
    if kind == "log_normal":
        _require("sigma_db" in spec and "eta" in spec,
                 "log_normal model needs 'sigma_db' and 'eta'")
        return log_normal(_real(spec, "sigma_db", positive=True),
                          _real(spec, "eta", positive=True), **kwargs)
    # table
    _require(("knots" in spec) != ("path" in spec),
             "table model needs exactly one of 'knots' or 'path'")
    if "path" in spec:
        _require(isinstance(spec["path"], str), "field 'path' must be a string")
        try:
            return load_table(spec["path"], **kwargs)
        except OSError as e:
            raise _IoFailure(f"cannot read table {spec['path']}: {e}") from e
        except UnicodeDecodeError as e:
            raise ModelError(f"table {spec['path']} is not UTF-8 text: {e}") from e
    knots = spec["knots"]
    _require(isinstance(knots, list) and knots, "field 'knots' must be a nonempty list")
    pairs = []
    for item in knots:
        _require(isinstance(item, list) and len(item) == 2
                 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in item),
                 "each knot must be a [radius, value] pair")
        pairs.append((float(item[0]), float(item[1])))
    return table_model(pairs, **kwargs)


def parse_config(doc) -> CampaignConfig:
    """Validate a parsed JSON document into a CampaignConfig.

    Unknown keys anywhere are hard errors; silent typos have ruined enough
    long runs.  The RCM_SEED environment variable, when set, overrides the
    configured master_seed.
    """
    _require(isinstance(doc, dict), "config must be a JSON object")
    for k in doc:
        _require(k in _CONFIG_KEYS, f"unknown config key {k!r}")
    for k in ("model", "rho_list", "b_list", "metric", "trials", "output_path"):
        _require(k in doc, f"config missing field {k!r}")

    model = build_model(doc["model"])

    for key in ("rho_list", "b_list"):
        _require(isinstance(doc[key], list) and doc[key],
                 f"field {key!r} must be a nonempty list")
    rho_list = tuple(
        _real({"rho_list": v}, "rho_list", positive=True) for v in doc["rho_list"]
    )
    b_list = tuple(_real({"b_list": v}, "b_list") for v in doc["b_list"])

    metric = doc["metric"]
    _require(metric in ("torus", "square", "coupled"),
             "field 'metric' must be 'torus', 'square' or 'coupled'")
    trials = _integer(doc, "trials", lo=1)
    seed = _integer(doc, "master_seed", lo=0, hi=2**64 - 1) if "master_seed" in doc else 0
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
        _require(0 <= seed < 2**64, f"{SEED_ENV} must fit in 64 bits")
    epsilon = _real(doc, "epsilon") if "epsilon" in doc else 0.25
    _require(0.0 < epsilon < 0.5, "field 'epsilon' must lie in (0, 1/2)")
    _require(isinstance(doc["output_path"], str) and doc["output_path"],
             "field 'output_path' must be a nonempty string")
    fmt = doc.get("format", "csv")
    _require(fmt in ("csv", "json"), "field 'format' must be 'csv' or 'json'")

    if not model.validation.ok:
        raise ModelError(f"model failed validation: {model.validation}")
    return CampaignConfig(model=model, rho_list=rho_list, b_list=b_list,
                          metric=metric, trials=trials, master_seed=seed,
                          epsilon=epsilon, output_path=doc["output_path"],
                          format=fmt)


def load_config(path) -> CampaignConfig:
    return parse_config(_read_json(path, "config"))


def _read_json(path, what: str):
    """The parsed JSON document at `path`, which `what` names in errors:
    _IoFailure when it cannot be read, ConfigError when it does not decode
    or parse."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _IoFailure(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {path} is not text: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from e


class _IoFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# campaign execution


def _run_trials(model: ConnectionModel, metric: str, seed: int,
                task: tuple[float, float, int, int]) -> list[TrialRecord]:
    """The records of the trials start .. stop - 1 of the cell (rho, b),
    realized as one batch: one sampler pass and one components call.  A
    coupled batch realizes the torus seam only at lone nodes, those that
    no square edge touches (sampler.stack_coupled_edges): isolated_torus
    reads nothing else of the torus graph, so it stays exact."""
    rho, b, start, stop = task
    coupled = metric == "coupled"
    params = SampleParams(rho, b, model, Metric.TORUS if coupled else Metric(metric),
                          seed, start)
    points, offsets = stack_points(params, stop - start)
    if coupled:
        return stack_records(params, offsets, *stack_coupled_edges(params, points, offsets))
    return stack_records(params, offsets, stack_edges(params, points, offsets))


def run_campaign(config: CampaignConfig, workers: int = 1
                 ) -> tuple[SweepSummary, list[TrialRecord], list[str]]:
    """Execute every (rho, b) cell; returns (summary, trial rows, warnings).

    A cell's trials run in batches of about _BATCH_POINTS expected points;
    with a pool a batch also holds at most one eighth of a worker's share
    of the trials, for load balance.  The rows are in task order, (cell,
    trial), from the serial loop and from `Pool.map` alike; with the
    counter-based sampler the output is independent of the worker count
    and the batch size.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cells = [(rho, b) for rho in config.rho_list for b in config.b_list]

    warnings: list[str] = []
    reasons: list[str | None] = []  # why each cell is skipped, None if it runs
    metric = Metric.TORUS if config.metric == "coupled" else Metric(config.metric)
    for rho, b in cells:
        try:
            SampleParams(rho, b, config.model, metric, config.master_seed, 0)
            reasons.append(None)
        except ParameterError as e:
            reasons.append(SKIP_REASON if math.log(rho) + b <= 0 else str(e))
            warnings.append(f"cell rho={rho:g} b={b:g} skipped: {reasons[-1]}")
    trials = config.trials
    cap = reasons.count(None) * trials // (workers * 8) if workers > 1 else trials
    tasks = []
    for (rho, b), reason in zip(cells, reasons):
        if reason is None:
            size = max(1, min(cap, int(_BATCH_POINTS / max(rho, 1.0))))
            tasks += [(rho, b, t, min(t + size, trials)) for t in range(0, trials, size)]

    run = functools.partial(_run_trials, config.model, config.metric, config.master_seed)
    if workers == 1 or not tasks:
        batches = [run(t) for t in tasks]
    else:
        with multiprocessing.Pool(workers) as pool:
            batches = pool.map(run, tasks, chunksize=1)
    rows = [rec for batch in batches for rec in batch]

    summaries: list[CellSummary] = []
    start = 0
    for (rho, b), reason in zip(cells, reasons):
        if reason is not None:
            summaries.append(CellSummary(rho=rho, b=b, metric=config.metric,
                                         trials=0, skipped=True, reason=reason))
            continue
        recs = rows[start:start + config.trials]
        start += config.trials
        summaries.append(_summarize_cell(config, rho, b, recs, warnings))
    return SweepSummary(cells=tuple(summaries)), rows, warnings


def _mean_ci(values) -> tuple[float, float, float]:
    a = np.asarray(values, dtype=np.float64)
    mean = float(a.mean())
    var = float(a.var(ddof=1)) if a.size > 1 else 0.0
    return mean, var, Z99 * math.sqrt(var / a.size)


def _prop_ci(flags) -> tuple[float, float]:
    a = np.asarray(flags, dtype=np.float64)
    p = float(a.mean())
    return p, Z99 * math.sqrt(p * (1.0 - p) / a.size)


def _summarize_cell(config: CampaignConfig, rho: float, b: float,
                    recs: list[TrialRecord], warnings: list[str]) -> CellSummary:
    iso = [r.isolated for r in recs]
    mean_iso, var_iso, ci_iso = _mean_ci(iso)
    p0, ci_p0 = _prop_ci([r.isolated == 0 for r in recs])
    conn, ci_conn = _prop_ci([r.connected for r in recs])
    mdeg, _, ci_mdeg = _mean_ci([r.mean_degree for r in recs])

    # a coupled run's base statistics describe the square-metric graph
    theory_metric = Metric.SQUARE if config.metric in ("square", "coupled") \
        else Metric.TORUS
    tv = report = b1 = b2 = None
    try:
        report = theory_report(config.model, rho, b, theory_metric)
        tv = tv_to_poisson(iso, report.expected_isolated)
    except RcmError as e:
        warnings.append(f"cell rho={rho:g} b={b:g}: theory unavailable: {e}")
    try:
        b1, b2 = chen_stein_terms(config.model, rho, b,
                                  ChenSteinParams(epsilon=config.epsilon))
    except RcmError as e:
        warnings.append(f"cell rho={rho:g} b={b:g}: dependence bounds unavailable: {e}")

    mean_bnd = ci_bnd = None
    if config.metric == "coupled":
        mean_bnd, _, ci_bnd = _mean_ci([r.isolated_boundary for r in recs])

    return CellSummary(
        rho=rho, b=b, metric=config.metric, trials=len(recs),
        skipped=False, reason=None,
        mean_isolated=mean_iso, var_isolated=var_iso, ci99_isolated=ci_iso,
        p_no_isolated=p0, ci99_p_no_isolated=ci_p0,
        frac_connected=conn, ci99_frac_connected=ci_conn,
        mean_degree=mdeg, ci99_mean_degree=ci_mdeg,
        tv_to_poisson=tv,
        theory_isolated=None if report is None else report.expected_isolated,
        theory_asymptotic_mean=None if report is None else report.asymptotic_mean,
        theory_prob_no_isolated=None if report is None else report.prob_no_isolated,
        theory_p_no_isolated=None if report is None else math.exp(-report.expected_isolated),
        theory_mean_degree=None if report is None else (
            report.mean_degree_square if theory_metric is Metric.SQUARE else report.mean_degree),
        theory_boundary_excess=None if report is None else report.boundary_excess,
        chen_stein_b1=b1, chen_stein_b2=b2,
        mean_boundary=mean_bnd, ci99_boundary=ci_bnd,
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def format_trials_csv(rows: list[TrialRecord]) -> str:
    lines = [",".join(TRIAL_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in TRIAL_COLUMNS))
    return "\n".join(lines) + "\n"


def format_summary_csv(summary: SweepSummary) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for cell in summary.cells:
        lines.append(",".join(_fmt(getattr(cell, c)) for c in SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def _record_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclass_fields(obj)}


def format_trials_json(rows: list[TrialRecord]) -> str:
    return json.dumps([_record_dict(r) for r in rows], indent=2,
                      sort_keys=True) + "\n"


def format_summary_json(summary: SweepSummary) -> str:
    return json.dumps([_record_dict(c) for c in summary.cells], indent=2,
                      sort_keys=True) + "\n"


def summary_path(output_path: str) -> str:
    p = Path(output_path)
    return str(p.with_name(p.stem + "_summary" + p.suffix))


def write_outputs(config: CampaignConfig, summary: SweepSummary,
                  rows: list[TrialRecord]) -> tuple[str, str]:
    if config.format == "csv":
        trial_text = format_trials_csv(rows)
        summary_text = format_summary_csv(summary)
    else:
        trial_text = format_trials_json(rows)
        summary_text = format_summary_json(summary)
    out = Path(config.output_path)
    s_path = summary_path(config.output_path)
    try:
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(trial_text)
        Path(s_path).write_text(summary_text)
    except OSError as e:
        raise _IoFailure(f"cannot write output: {e}") from e
    return str(out), s_path


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    over = {"output_path": args.output, "format": args.format}
    config = replace(load_config(args.config),
                     **{k: v for k, v in over.items() if v is not None})
    summary, rows, warnings = run_campaign(config, workers=args.workers)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    trial_file, summary_file = write_outputs(config, summary, rows)
    print(f"{len(rows)} trial rows -> {trial_file}")
    print(f"{len(summary.cells)} summary rows -> {summary_file}")
    return EXIT_OK


def _model_from_arg(arg: str) -> ConnectionModel:
    if arg in ("unit_disk", "gaussian"):
        return build_model({"kind": arg})
    return build_model(_read_json(arg, "model spec"))


def _cmd_theory(args) -> int:
    model = _model_from_arg(args.model)
    if not model.validation.ok:
        raise ModelError(f"model failed validation: {model.validation}")
    # an epsilon outside (0, 1/2) is a config error before any quadrature
    params = ChenSteinParams(epsilon=args.epsilon)
    report = _record_dict(theory_report(model, args.rho, args.b, Metric.SQUARE))
    del report["expected_isolated"]  # the square mean, under its own key
    doc = {
        "model": model.kind,
        "rho": args.rho,
        "b": args.b,
        "epsilon": args.epsilon,
        **report,
        "truncation_bias": truncation_bias(model, args.rho, args.b),
    }
    try:
        b1, b2, err_b2 = chen_stein_terms(model, args.rho, args.b, params,
                                          return_error=True)
        doc.update(chen_stein_b1=b1, chen_stein_b2=b2, quad_error_b2=err_b2)
    except RcmError as e:
        doc["chen_stein_b1"] = doc["chen_stein_b2"] = doc["quad_error_b2"] = None
        doc["chen_stein_error"] = str(e)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise _IoFailure(f"cannot write output: {e}") from e
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate_model(args) -> int:
    doc = _read_json(args.config, "config")
    spec = doc.get("model", doc) if isinstance(doc, dict) else doc
    model = build_model(spec)
    v = model.validation
    out = {
        "kind": model.kind,
        # null where not finite, which the flags explain: JSON has no Infinity
        **{key: x if math.isfinite(x) else None for key, x in
           (("cutoff", model.cutoff), ("C", model.C), ("C_error", model.C_error))},
        "monotone_ok": v.monotone_ok,
        "range_ok": v.range_ok,
        "integral_finite": v.integral_finite,
        "tail_ok": v.tail_ok,
        "ok": v.ok,
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if v.ok else EXIT_MODEL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcmsim",
        description="Poisson random-connection-network simulation campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the campaign in a config file")
    p_sim.add_argument("config")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes (output is identical for any value)")
    p_sim.add_argument("--output", default=None, help="override config output_path")
    p_sim.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override config format")

    p_th = sub.add_parser("theory", help="print quadrature predictions, no simulation")
    p_th.add_argument("--model", required=True,
                      help="'unit_disk', 'gaussian', or a path to a model spec JSON")
    p_th.add_argument("--rho", type=float, required=True)
    p_th.add_argument("--b", type=float, required=True)
    p_th.add_argument("--epsilon", type=float, default=0.25)
    p_th.add_argument("--output", default=None)

    p_val = sub.add_parser("validate-model", help="check a kernel spec and exit")
    p_val.add_argument("config", help="JSON file with a model spec or a 'model' key")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "theory":
            return _cmd_theory(args)
        return _cmd_validate_model(args)
    except (ConfigError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, QuadratureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except _IoFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
