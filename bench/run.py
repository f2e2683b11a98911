"""rcmsim benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload disk-torus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (it imports rcmsim from ./src).  A run
repeats whole rounds of the workload for about --seconds seconds, each
round in a fresh interpreter (bench/child.py), because a CLI user pays
rcmsim's per-process quadrature caches on every invocation.  After each
round the outputs are checked against reference.py and the run's rounds
must agree byte for byte.  Medians over rounds are reported.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, trials_per_s,
peak_rss_mb.  --trace 1 alternates untraced rounds with traced ones (a
serial replay through the public functions, spans written to
bench/out/<workload>-<seed>/spans.json) and reports the per-layer metrics.
The last stdout line is the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, Campaign, output_files, write_inputs

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
# a run must end within 180 s; a child gets what is left of this
RUN_BUDGET_S = 170.0


class RoundFailed(RuntimeError):
    pass


def spawn(spec: dict, out: Path, name: str, deadline: float) -> dict:
    """Run one round in a fresh interpreter; return its report with
    setup_s and wall_s filled in."""
    path = out / f"{name}.json"
    path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "RCM_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(path)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        # the round's process group includes its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{name} round ran past the run's time budget") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise RoundFailed(f"{name} round exited {proc.returncode}: {tail[0]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["wall_s"] = report["done"] - report["ready"]
    return report


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced round, from span self times."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    def self_time(s):
        return s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    tree = {"replay": [], "probe": [], "memory": []}
    for s in spans:
        tree[root(s)].append(s)

    def pick(name):
        """Spans of `name` on the workload's own path, else from the probe,
        with the number of trials they cover."""
        for where in ("replay", "probe"):
            found = [s for s in tree[where] if s["name"] == name]
            if found:
                trials = sum(1 for s in tree[where] if s["name"] == "trial")
                return found, trials
        return [], 0

    def ms_per_trial(name):
        found, trials = pick(name)
        return 1e3 * sum(map(self_time, found)) / trials if trials else 0.0

    def seconds(*names):
        return sum(self_time(s) for s in tree["replay"] if s["name"] in names)

    graphs, trials = pick("sampler.build_graph")
    replay_root = next(s for s in spans if s["name"] == "replay")
    return {
        "sampler.sample_points.ms_per_trial": ms_per_trial("sampler.sample_points"),
        "sampler.build_graph.ms_per_trial": ms_per_trial("sampler.build_graph"),
        "sampler.couple_torus_to_square.ms_per_trial":
            ms_per_trial("sampler.couple_torus_to_square"),
        "sampler.build_graph.peak_alloc_mb":
            max(s["peak_bytes"] for s in tree["memory"] if "peak_bytes" in s) / 2**20,
        "sampler.points_per_trial": sum(s["points"] for s in graphs) / trials,
        "sampler.edges_per_trial": sum(s["edges"] for s in graphs) / trials,
        "analysis.components.ms_per_trial": ms_per_trial("analysis.components"),
        "analysis.isolated_count.ms_per_trial": ms_per_trial("analysis.isolated_count"),
        "analysis.trial_statistics.ms_per_trial": ms_per_trial("analysis.trial_statistics"),
        "theory.expected_isolated_square.s": seconds("theory.expected_isolated_square"),
        "theory.chen_stein_terms.s": seconds("theory.chen_stein_terms"),
        "cli.write_outputs.s": seconds("cli.write_outputs", "cli.main"),
        "trace.total_s": replay_root["end"] - replay_root["start"],
    }


UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "trials/s", "peak_rss_mb": "MB",
         "sampler.points_per_trial": "count", "sampler.edges_per_trial": "count",
         "sampler.build_graph.peak_alloc_mb": "MB", "cli.output_bytes": "bytes"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith(".ms_per_trial") else "s"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = time.monotonic()
    deadline = begin + RUN_BUDGET_S
    work = WORKLOADS[workload]
    out = BENCH / "out" / f"{workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    spec = write_inputs(work, seed, out)
    if isinstance(work, Campaign):
        from rcmsim import cli
        config = cli.load_config(spec["config"])
        refs = checks.campaign_references(work, config, seed)
        per_round = work.trials * len(work.cells)
    else:
        refs = checks.theory_references(work)
        per_round = len(work.kernels)

    tally = checks.Tally()
    plain, layers, first = [], [], None
    while True:
        started = time.monotonic()
        checked = checks.Tally()
        # every round writes new files: overwriting one costs a filesystem
        # flush on close that no change to rcmsim can remove
        for path in output_files(work, out) + output_files(work, out / "traced"):
            path.unlink(missing_ok=True)
        try:
            report = spawn(spec, out, "round", deadline)
            files = {p.name: p.read_bytes() for p in output_files(work, out) if p.exists()}
            checks.check_round(work, report, files, refs, checked)
        except (RoundFailed, ValueError, KeyError, TypeError) as e:
            # a crash or unreadable output fails every operation of the round
            tally.errors.append(f"{type(e).__name__}: {e}")
            tally.attempted += checks.operations(work)
            tally.failed += checks.operations(work)
        else:
            tally.attempted += checked.attempted
            tally.failed += checked.failed
            tally.problems += checked.problems
            tally.errors += checked.errors
            if first is None:
                first = files
            elif files != first:
                tally.errors.append("a round's outputs differ from the first round's")
            plain.append(report)
        if trace and plain:
            traced = dict(spec, trace=True, spans=str(out / "spans.json"))
            if isinstance(work, Campaign):
                traced["trace_output"] = str(out / "traced" / output_files(work, out)[0].name)
            for path in output_files(work, out):
                path.unlink(missing_ok=True)
            try:
                report = spawn(traced, out, "traced", deadline)
                if report["leaks"]:
                    tally.errors.append("traced round leaked an IntegrationWarning")
                layers.append(layer_metrics(json.loads((out / "spans.json").read_text())))
                if isinstance(work, Campaign):
                    name = output_files(work, out)[0].name
                    if (out / "traced" / name).read_bytes() != first.get(name):
                        tally.errors.append("serial replay's trial table differs from the "
                                            f"{work.workers}-worker campaign's")
            except RoundFailed as e:
                tally.errors.append(str(e))
        now = time.monotonic()
        if not plain or now - begin + (now - started) > seconds:
            break

    if not plain:
        raise RoundFailed("; ".join(tally.errors))
    med = statistics.median
    if trace:
        if not layers:
            raise RoundFailed("; ".join(tally.errors))
        wall = med(r["wall_s"] for r in plain)
        metrics = {k: med(m[k] for m in layers) for k in layers[0] if k != "trace.total_s"}
        metrics["cli.output_bytes"] = sum(len(v) for v in first.values())
        metrics["trace.overhead_s"] = med(m["trace.total_s"] for m in layers) - wall
    else:
        metrics = {
            "setup_s": med(r["setup_s"] for r in plain),
            "wall_s": med(r["wall_s"] for r in plain),
            "trials_per_s": med(per_round / r["wall_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_kib"] for r in plain) / 1024.0,
        }
    for line in tally.problems[:20] + tally.errors:
        print(f"check: {line}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(plain)} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    return {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    from_root = Path("src") / "rcmsim" / "__init__.py"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not from_root.is_file():
        print(f"error: {from_root} not found; run from the root of an rcmsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rcmsim
    if Path(rcmsim.__file__).resolve() != (ROOT / from_root).resolve():
        print(f"error: imported rcmsim from {rcmsim.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as e:
        print(f"error: no round completed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
