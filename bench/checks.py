"""Correctness checks on a round's output files, and operation accounting.

An operation is one trial (a row of the trial table) or one theory
evaluation (a cell's theory report or Chen-Stein terms; a kernel's torus
mean, square mean or Chen-Stein terms).  It fails when it is missing,
when it misses a check, or when its round leaked an IntegrationWarning.
Properties of a whole run (rounds agree byte for byte, simulated means
agree with theory, the process exits cleanly) go to `errors` and make the
result incorrect.

Reference values come from reference.py, never from rcmsim; rcmsim is used
here only to regenerate a sampled trial's points (the input of the graph
check) and to replay sampled trials serially (the determinism check).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Campaign, output_files

# fixed relative tolerance for quadrature values, well above the
# reference methods' own accuracy (1e-8 or better) and far below any
# modelling change
REL_TOL = 1e-6
# simulated means must lie within this many standard errors of theory;
# a 99% band fails by chance about once in fifty runs per cell, and a
# comparison of two commits runs dozens of seeds
Z_MEANS = 5.0
# trials per cell checked against the all-pairs graph and the serial replay
SAMPLED_TRIALS = 2

INT_COLUMNS = ("trial", "n_points", "n_edges", "isolated", "n_components")
OPTIONAL_INT_COLUMNS = ("isolated_torus", "isolated_square", "isolated_boundary")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def kernel_of(spec: dict) -> ref.Kernel:
    if spec["kind"] == "table":
        return ref.Kernel("table", tuple(tuple(map(float, k)) for k in spec["knots"]))
    return ref.Kernel(spec["kind"])


# ---------------------------------------------------------------------------
# parsing, without rcmsim's own parser


def _scalar(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(data: bytes, fmt: str) -> list[dict]:
    """Rows of a trial or summary file as dicts with typed values."""
    if fmt == "json":
        return json.loads(data)
    rows = [{k: _scalar(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(data.decode()))]
    for row in rows:
        for k in INT_COLUMNS + OPTIONAL_INT_COLUMNS:
            if isinstance(row.get(k), float):
                row[k] = int(row[k])
    return rows


# ---------------------------------------------------------------------------
# references computed once per run


def _theory(kernel: ref.Kernel, rho: float, b: float) -> dict:
    """Torus and square isolated-node means and Chen-Stein (b1, b2); the
    Gaussian square mean by its separable form."""
    square = (ref.gaussian_square_isolated_mean(rho, b) if kernel.kind == "gaussian"
              else ref.square_isolated_mean(kernel, rho, b))
    return {"torus": ref.torus_isolated_mean(kernel, rho, b), "square": square,
            "chen_stein": ref.chen_stein(kernel, rho, b)}


def sampled_trials(work: Campaign, seed: int) -> list[tuple[float, float, int]]:
    rng = random.Random(seed)
    return [(rho, b, t) for rho, b in work.cells
            for t in sorted(rng.sample(range(work.trials), min(SAMPLED_TRIALS, work.trials)))]


def campaign_references(work: Campaign, config, seed: int) -> dict:
    """Theory per cell, the all-pairs graph of sampled unit-disk trials, and
    the serial replay of the sampled trials."""
    import rcmsim

    kernel = kernel_of(work.model)
    cells = {(rho, b): _theory(kernel, rho, b) for rho, b in work.cells}
    graphs, replay = {}, {}
    coupled = work.metric == "coupled"
    metric = rcmsim.Metric.TORUS if coupled else rcmsim.Metric(work.metric)
    for rho, b, t in sampled_trials(work, seed):
        params = rcmsim.SampleParams(rho, b, config.model, metric, config.master_seed, t)
        if coupled:
            record = rcmsim.coupled_statistics(rcmsim.couple_torus_to_square(params))
        else:
            points = rcmsim.sample_points(params)
            record = rcmsim.trial_statistics(rcmsim.build_graph(params, points))
            if kernel.kind == "unit_disk" and work.metric == "torus":
                edges, isolated, n_comp = ref.torus_graph(points, ref.radius(kernel, rho, b))
                graphs[(rho, b, t)] = {"n_points": points.shape[0], "n_edges": edges,
                                       "isolated": isolated, "n_components": n_comp}
        replay[(rho, b, t)] = dataclasses.asdict(record)
    return {"cells": cells, "graphs": graphs, "replay": replay}


def theory_references(work) -> dict:
    return {name: _theory(kernel_of(spec), work.rho, work.b) for name, spec in work.kernels}


# ---------------------------------------------------------------------------
# checks


def _close(value, expected: float, what: str, problems: list[str]) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= REL_TOL * abs(expected)):
        problems.append(f"{what} {value!r} != reference {expected!r}")


def _row_problems(row: dict, coupled: bool) -> list[str]:
    p = []
    n, m = row["n_points"], row["n_edges"]
    if not 0 <= row["isolated"] <= n:
        p.append("isolated outside [0, n_points]")
    if row["connected"] != (row["n_components"] <= 1):
        p.append("connected disagrees with n_components")
    if n and not 1 <= row["n_components"] <= n:
        p.append("n_components outside [1, n_points]")
    if row["mean_degree"] != (2.0 * m / n if n else 0.0):
        p.append("mean_degree != 2 n_edges / n_points")
    if coupled:
        t, s, bd = row["isolated_torus"], row["isolated_square"], row["isolated_boundary"]
        if None in (t, s, bd) or s != t + bd:
            p.append("isolated_square != isolated_torus + isolated_boundary")
        elif bd < 0:
            p.append("isolated_boundary < 0")
        elif row["isolated"] != s:
            p.append("isolated != isolated_square")
    elif any(row[k] is not None for k in OPTIONAL_INT_COLUMNS):
        p.append("coupled columns set on an uncoupled run")
    return p


def check_trials(work: Campaign, rows: list[dict], refs: dict, leaked: bool,
                 tally: Tally) -> None:
    """One operation per expected trial."""
    coupled = work.metric == "coupled"
    by_key = {}
    for row in rows:
        by_key[(row["rho"], row["b"], row["trial"])] = row
    for rho, b in work.cells:
        for t in range(work.trials):
            key = (rho, b, t)
            row = by_key.get(key)
            if row is None:
                tally.op(f"trial {key}", ["missing from the trial table"])
                continue
            p = _row_problems(row, coupled)
            if row["metric"] != work.metric:
                p.append(f"metric {row['metric']!r}")
            graph = refs["graphs"].get(key)
            if graph is not None:
                p += [f"{k} {row[k]} != all-pairs {v}" for k, v in graph.items() if row[k] != v]
            if key in refs["replay"] and row != refs["replay"][key]:
                p.append("row differs from the serial replay")
            if leaked:
                p.append("round leaked a warning")
            tally.op(f"trial {key}", p)
    if len(rows) != len(by_key) or len(rows) != work.trials * len(work.cells):
        tally.errors.append(f"trial table has {len(rows)} rows, expected "
                            f"{work.trials * len(work.cells)} distinct")


def check_summary(work: Campaign, summary: list[dict], refs: dict, leaked: bool,
                  tally: Tally) -> None:
    """Two theory operations per cell: the isolated-node means and the
    Chen-Stein terms."""
    by_cell = {(c["rho"], c["b"]): c for c in summary}
    for cell in work.cells:
        want = refs["cells"][cell]
        got = by_cell.get(cell, {})
        p = []
        iso, excess = got.get("theory_isolated"), got.get("theory_boundary_excess")
        if iso is None or excess is None:
            p.append("theory columns missing")
        elif work.metric == "torus":
            _close(iso, want["torus"], "theory_isolated", p)
            _close(iso + excess, want["square"], "square mean", p)
        else:
            _close(iso, want["square"], "theory_isolated", p)
            _close(iso - excess, want["torus"], "torus mean", p)
        cs = []
        b1, b2 = want["chen_stein"]
        _close(got.get("chen_stein_b1"), b1, "chen_stein_b1", cs)
        _close(got.get("chen_stein_b2"), b2, "chen_stein_b2", cs)
        for what, problems in (("theory", p), ("chen_stein", cs)):
            if leaked:
                problems.append("round leaked a warning")
            tally.op(f"{what} {cell}", problems)


def check_means(work: Campaign, rows: list[dict], refs: dict, tally: Tally) -> None:
    """Simulated isolated-node means against the theory, per cell."""
    columns = ((("isolated_torus", "torus"), ("isolated", "square"))
               if work.metric == "coupled" else (("isolated", work.metric),))
    for cell in work.cells:
        cell_rows = [r for r in rows if (r["rho"], r["b"]) == cell]
        if len(cell_rows) < 2:
            continue
        for column, which in columns:
            x = np.array([r[column] for r in cell_rows], dtype=float)
            se = x.std(ddof=1) / math.sqrt(x.size)
            want = refs["cells"][cell][which]
            if abs(x.mean() - want) > Z_MEANS * se + 1e-12:
                tally.errors.append(f"cell {cell}: mean {column} {x.mean():.4f} is more than "
                                    f"{Z_MEANS:g} standard errors ({se:.4f}) from {want:.4f}")


def check_theory_doc(name: str, doc: dict | None, want: dict, failed_run: str | None,
                     tally: Tally) -> None:
    """Three operations per kernel: torus mean, square mean, Chen-Stein."""
    ops = {"torus": [], "square": [], "chen_stein": []}
    if doc is None:
        for p in ops.values():
            p.append("no output")
    else:
        _close(doc.get("expected_isolated_torus"), want["torus"], "torus mean", ops["torus"])
        sq = doc.get("expected_isolated_square")
        _close(sq, want["square"], "square mean", ops["square"])
        if isinstance(sq, float) and not sq > want["torus"]:
            ops["square"].append("square mean does not exceed the torus mean")
        if isinstance(sq, float) and isinstance(doc.get("boundary_excess"), float):
            _close(doc["expected_isolated_torus"] + doc["boundary_excess"], sq,
                   "torus mean + boundary_excess", ops["square"])
        b1, b2 = want["chen_stein"]
        _close(doc.get("chen_stein_b1"), b1, "chen_stein_b1", ops["chen_stein"])
        if b2 is not None:
            _close(doc.get("chen_stein_b2"), b2, "chen_stein_b2", ops["chen_stein"])
        elif not (isinstance(doc.get("chen_stein_b2"), float) and doc["chen_stein_b2"] > 0.0):
            ops["chen_stein"].append("chen_stein_b2 missing or not positive")
    for what, problems in ops.items():
        if failed_run:
            problems.append(failed_run)
        tally.op(f"{name} {what}", problems)


def check_round(work, report: dict, files: dict[str, bytes], refs: dict, tally: Tally) -> None:
    """All checks on one round: `report` is the child's, `files` maps each
    output file name to its bytes.  A campaign warning (theory unavailable,
    cell skipped) counts like a leaked IntegrationWarning."""
    names = [p.name for p in output_files(work, Path())]
    if isinstance(work, Campaign):
        leaked = bool(report["leaks"]) or bool(report["notes"])
        tally.problems += [f"campaign warning: {note}" for note in report["notes"]]
        rows = parse_table(files[names[0]], work.format)
        summary = parse_table(files[names[1]], work.format)
        check_trials(work, rows, refs, leaked, tally)
        check_summary(work, summary, refs, leaked, tally)
        check_means(work, rows, refs, tally)
        return
    for k, ((name, _), file) in enumerate(zip(work.kernels, names)):
        failed = None
        if report["codes"][k] != 0:
            failed = f"rcmsim theory exited {report['codes'][k]}"
        elif any(i == k for i, _ in report["leaks"]):
            failed = "leaked an IntegrationWarning"
        doc = json.loads(files[file]) if file in files else None
        check_theory_doc(name, doc, refs[name], failed, tally)


def operations(work) -> int:
    """Operations one round attempts."""
    if isinstance(work, Campaign):
        return len(work.cells) * (work.trials + 2)
    return 3 * len(work.kernels)
