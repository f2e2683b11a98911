"""The three benchmark workloads and the inputs each one generates from a seed.

A workload's inputs are files a user would write: a campaign config, or
kernel specs for `rcmsim theory`.  The seed sets the campaign's
master_seed, so the same seed gives the same trials; the theory workload
is deterministic quadrature and has no random input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

TABLE_KNOTS = ((0.0, 1.0), (1.0, 0.6), (2.0, 0.0))


@dataclass(frozen=True)
class Campaign:
    """`rcmsim simulate` (or `couple`, metric "coupled") on one config."""

    model: dict
    rho_list: tuple[float, ...]
    b_list: tuple[float, ...]
    metric: str
    trials: int
    workers: int
    format: str

    def config(self, seed: int, output_path: str) -> dict:
        return {"model": self.model, "rho_list": list(self.rho_list),
                "b_list": list(self.b_list), "metric": self.metric,
                "trials": self.trials, "master_seed": seed % 2**64,
                "epsilon": 0.25, "output_path": output_path,
                "format": self.format}

    @property
    def cells(self) -> list[tuple[float, float]]:
        return [(rho, b) for rho in self.rho_list for b in self.b_list]


@dataclass(frozen=True)
class Theory:
    """`rcmsim theory` once per kernel at one (rho, b)."""

    kernels: tuple[tuple[str, dict], ...]
    rho: float
    b: float


WORKLOADS = {
    # the paper's reference kernel; pure-Python union-find dominates a trial
    "disk-torus": Campaign(model={"kind": "unit_disk"}, rho_list=(2000.0, 4000.0),
                           b_list=(0.0,), metric="torus", trials=100,
                           workers=1, format="csv"),
    # boundary split under a wide kernel: 3x3 candidate set, thinning,
    # the worker pool, JSON output, and serial square quadrature per cell
    "gauss-coupled": Campaign(model={"kind": "gaussian"}, rho_list=(2000.0,),
                              b_list=(0.0,), metric="coupled", trials=100,
                              workers=2, format="json"),
    # nested adaptive quadrature only; the sampler does no work
    "theory-kernels": Theory(kernels=(("gaussian", {"kind": "gaussian"}),
                                      ("table", {"kind": "table",
                                                 "knots": [list(k) for k in TABLE_KNOTS]})),
                             rho=2000.0, b=0.0),
}


def write_inputs(workload, seed: int, out: Path) -> dict:
    """Write the workload's input files under `out`; return the round spec
    the child process runs (paths relative to the checkout root)."""
    out.mkdir(parents=True, exist_ok=True)
    outputs = output_files(workload, out)
    if isinstance(workload, Campaign):
        cfg = out / "config.json"
        cfg.write_text(json.dumps(workload.config(seed, str(outputs[0]))))
        return {"kind": "campaign", "config": str(cfg), "workers": workload.workers}
    runs = []
    for (name, spec), output in zip(workload.kernels, outputs):
        path = out / f"kernel_{name}.json"
        path.write_text(json.dumps(spec))
        runs.append({"name": name, "spec": str(path),
                     "argv": ["theory", "--model", str(path), "--rho", repr(workload.rho),
                              "--b", repr(workload.b), "--output", str(output)]})
    return {"kind": "theory", "runs": runs, "rho": workload.rho, "b": workload.b}


def output_files(workload, out: Path) -> list[Path]:
    """The files a round writes under `out`, in a fixed order: the trial
    table first for campaigns, one JSON document per kernel for theory."""
    if isinstance(workload, Campaign):
        suffix = ".csv" if workload.format == "csv" else ".json"
        return [out / ("trials" + suffix), out / ("trials_summary" + suffix)]
    return [out / f"theory_{name}.json" for name, _ in workload.kernels]

