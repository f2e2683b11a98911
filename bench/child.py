"""One round of a workload in a fresh interpreter.

    python3 bench/child.py ROUND_SPEC.json

Run from the checkout root with PYTHONPATH pointing at src.  Setup is the
import of rcmsim plus loading the config (or building the kernels), model
validation included; the round then runs the campaign or the `rcmsim
theory` invocations and writes their outputs.  The last stdout line is a
JSON object with the monotonic clock at ready and done (the parent stamps
the spawn time on the same clock), the peak resident set of this process
and of its reaped pool workers, and any IntegrationWarning raised.
With "trace": true the round instead replays the work serially through
the public functions and writes spans (see tracing.py).
"""

import json
import resource
import sys
import time
import warnings
from pathlib import Path


def _own_peak_rss_kib() -> int:
    """This process's high-water resident set.

    Not RUSAGE_SELF: Linux carries the pre-exec peak of the forking
    parent (the benchmark harness) into ru_maxrss across exec.  The pool
    workers are forked without exec, so RUSAGE_CHILDREN is their own peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from rcmsim import cli
    from scipy.integrate import IntegrationWarning

    if spec["kind"] == "campaign":
        config = cli.load_config(spec["config"])
    else:
        for run in spec["runs"]:
            model = cli.build_model(json.loads(Path(run["spec"]).read_text()))
            if not model.validation.ok:
                raise SystemExit(f"kernel {run['name']} failed validation")
    ready = time.monotonic()

    report = {"ready": ready, "leaks": [], "codes": [], "notes": []}

    def integration_warnings(caught, k=-1):
        return [[k, str(w.message)] for w in caught if issubclass(w.category, IntegrationWarning)]

    if spec.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            if spec["kind"] == "campaign":
                tracing.replay_campaign(tracer, config, spec["trace_output"])
            else:
                tracing.replay_theory(tracer, spec)
            tracing.probe(tracer, spec, config if spec["kind"] == "campaign" else None)
        report["leaks"] = integration_warnings(caught)
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    elif spec["kind"] == "campaign":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            summary, rows, report["notes"] = cli.run_campaign(config, workers=spec["workers"])
            cli.write_outputs(config, summary, rows)
        report["leaks"] = integration_warnings(caught)
    else:
        for k, run in enumerate(spec["runs"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                report["codes"].append(cli.main(run["argv"]))
            report["leaks"] += integration_warnings(caught, k)
    report["done"] = time.monotonic()
    report["peak_rss_kib"] = max(_own_peak_rss_kib(),
                                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
