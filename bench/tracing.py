"""Traced replay: the work of one round, serially, through rcmsim's public
functions, with a span around every call into a layer.

A span is {id, name, parent, trial, start, end} plus counts measured at
that boundary (points, edges, peak bytes).  Spans live in memory and the
child writes them to a JSON file when the round ends; the parent derives
the per-layer metrics from them as self times.

Three roots:
- "replay": the workload's own work (its trials, the per-cell theory,
  the output write); its duration is the traced total;
- "probe": a few trials per cell through layers the workload itself does
  not call (coupling on disk-torus, the whole sampler on theory-kernels),
  so every per-layer metric measures this workload's kernel and density;
- "memory": build_graph under tracemalloc, for the peak allocation.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from rcmsim import (ChenSteinParams, Metric, SampleParams, build_graph,
                    chen_stein_terms, cli, components, couple_torus_to_square,
                    coupled_statistics, expected_isolated, isolated_count,
                    sample_points, theory_report, trial_statistics)

PROBE_TRIALS = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._trials = 0

    @contextmanager
    def span(self, name: str, trial: bool = False):
        """Record a span around the block; trial=True opens a new trial id,
        otherwise the span inherits its parent's.  The block may add counts
        to the yielded record."""
        parent = self._stack[-1] if self._stack else None
        if trial:
            self._trials += 1
            tid = self._trials
        else:
            tid = parent["trial"] if parent else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None, "trial": tid}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _trial(tracer: Tracer, params: SampleParams, coupled: bool):
    """One trial as the campaign runs it, with components and isolated_count
    timed again on the same graph, and build_graph timed on its own when
    the campaign reaches it through couple_torus_to_square."""
    with tracer.span("sampler.sample_points"):
        points = sample_points(params)
    with tracer.span("sampler.build_graph") as s:
        graph = build_graph(params, points)
        s["points"], s["edges"] = graph.n_points, graph.n_edges
    if coupled:
        with tracer.span("sampler.couple_torus_to_square"):
            sample = couple_torus_to_square(params)
        with tracer.span("analysis.trial_statistics"):
            record = coupled_statistics(sample)
        graph = sample.square_sample()
    else:
        with tracer.span("analysis.trial_statistics"):
            record = trial_statistics(graph)
    with tracer.span("analysis.components"):
        components(graph)
    with tracer.span("analysis.isolated_count"):
        isolated_count(graph)
    return record


def _theory(tracer: Tracer, model, rho: float, b: float, metric: Metric, epsilon: float):
    """The cell's theory, each piece timed on its first evaluation in this
    process (later calls hit rcmsim's per-process cache)."""
    with tracer.span("theory.expected_isolated_square"):
        expected_isolated(model, rho, b, Metric.SQUARE, return_error=True)
    with tracer.span("theory.theory_report"):
        report = theory_report(model, rho, b, metric)
    with tracer.span("theory.chen_stein_terms"):
        b1, b2 = chen_stein_terms(model, rho, b, ChenSteinParams(epsilon=epsilon))
    return report, b1, b2


def replay_campaign(tracer: Tracer, config, output_path: str) -> None:
    coupled = config.metric == "coupled"
    metric = Metric.TORUS if coupled else Metric(config.metric)
    theory_metric = Metric.TORUS if config.metric == "torus" else Metric.SQUARE
    rows, cells = [], []
    with tracer.span("replay"):
        for rho in config.rho_list:
            for b in config.b_list:
                for t in range(config.trials):
                    params = SampleParams(rho, b, config.model, metric, config.master_seed, t)
                    with tracer.span("trial", trial=True):
                        rows.append(_trial(tracer, params, coupled))
                report, b1, b2 = _theory(tracer, config.model, rho, b, theory_metric,
                                         config.epsilon)
                # only the theory columns: the summary is one row per cell and
                # the trial table is what the determinism check compares
                cells.append(cli.CellSummary(
                    rho=rho, b=b, metric=config.metric, trials=config.trials,
                    skipped=False, reason=None,
                    theory_isolated=report.expected_isolated,
                    theory_boundary_excess=report.boundary_excess,
                    chen_stein_b1=b1, chen_stein_b2=b2))
        with tracer.span("cli.write_outputs"):
            cli.write_outputs(dataclasses.replace(config, output_path=output_path),
                              cli.SweepSummary(cells=tuple(cells)), rows)


def replay_theory(tracer: Tracer, spec: dict) -> None:
    with tracer.span("replay"):
        for run in spec["runs"]:
            model = cli.build_model(json.loads(Path(run["spec"]).read_text()))
            _theory(tracer, model, spec["rho"], spec["b"], Metric.TORUS, 0.25)
            # the subcommand itself once the quadrature is cached: kernel
            # build, truncation bias, JSON serialization and write
            with tracer.span("cli.main"):
                cli.main(run["argv"])


def _cells(spec: dict, config):
    """(model, rho, b) of every cell the workload covers."""
    if config is not None:
        return [(config.model, rho, b) for rho in config.rho_list for b in config.b_list]
    return [(cli.build_model(json.loads(Path(run["spec"]).read_text())), spec["rho"], spec["b"])
            for run in spec["runs"]]


def probe(tracer: Tracer, spec: dict, config) -> None:
    """Layers off the workload's own path, and build_graph's peak allocation,
    on a few trials of each of the workload's cells."""
    cells = _cells(spec, config)
    seed = config.master_seed if config is not None else 0
    with tracer.span("probe"):
        for model, rho, b in cells:
            for t in range(PROBE_TRIALS):
                params = SampleParams(rho, b, model, Metric.TORUS, seed, t)
                with tracer.span("trial", trial=True):
                    _trial(tracer, params, coupled=True)
    with tracer.span("memory"):
        tracemalloc.start()
        try:
            for model, rho, b in cells:
                for t in range(PROBE_TRIALS):
                    params = SampleParams(rho, b, model, Metric.TORUS, seed, t)
                    points = sample_points(params)
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    with tracer.span("sampler.build_graph") as s:
                        build_graph(params, points)
                    s["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
