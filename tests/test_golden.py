"""Byte-level pins on the campaign trial tables.

Small fixed campaigns over {torus, square, coupled} x {unit disk, Gaussian,
table} run through `run_campaign`, and the sha256 of each trial table, in
both CSV and JSON, must match the digest recorded here.  Any change to
point sampling, pair enumeration, edge realization, thinning, component
counting or serialization that moves a single byte of a trial table fails
this test.

The cell summaries are not pinned: their theory columns are quadrature
values that may move within their error estimates, and computing them for
the Gaussian and table kernels would dominate the run time, so the summary
step is replaced by a stub.  The cells reach every enumeration regime: a
trial with a single point (rho 2), a grid with fewer than three cells per
side (the Gaussian at rho 400), cells skipped because the support is too
wide for the grid (rho 2 and 40) and grids of up to 26 cells per side.
"""

import hashlib

import pytest

from rcmsim import cli
from rcmsim.cli import (format_trials_csv, format_trials_json, parse_config,
                        run_campaign)

KERNELS = {
    "unit_disk": {"kind": "unit_disk"},
    "gaussian": {"kind": "gaussian"},
    "table": {"kind": "table", "knots": [[0, 1], [1, 0.6], [2, 0]]},
}

# sha256 of the (csv, json) trial tables
GOLDEN = {
    ("torus", "gaussian"): (
        "4e8d2bf8931dce048dce68253627c9776059edb49c382ec1eb8f9ed5a765cbfc",
        "39c93f798640710ae5d8e0ad4b1b6cfd5f2563b0f2acfaced226d93b8ca32813"),
    ("torus", "table"): (
        "db0e14b49237c863a8919cf6116af91f421309e9090cc5d85cb36505d3b623a5",
        "1cdfbf7ddc934f7fffbaca7f009d3f4795829b9d27b5caeae06452c4a6eab01d"),
    ("torus", "unit_disk"): (
        "b84730930c616c0928e451f3853a77140ccabde3023b07706adcb982dd6fe14a",
        "3e64a3da5ecdc2c595d26b1feb8771ed9a42eab787c16b14f3d39ff0d3148126"),
    ("square", "gaussian"): (
        "89b83a0bd70a8fdbebace380fc4334242b25a8923495c27c0fd42a2ec8260866",
        "a956b4f69cf8ad8f2cdf1066286311fabc401aa7dc812d459cd88a7d5ce50f83"),
    ("square", "table"): (
        "f6c61142fcc6289b5d720e26538628906671274373f77bcef1c085bbef1d8d17",
        "31581c9a9c032e017fab413255dac3f173a9fe08947e291e26600371f4ba6618"),
    ("square", "unit_disk"): (
        "9ff495b12bee4685b70d403808f3e8f6970c190b934063d06761b2dc959986ff",
        "8edcf2f7271a095077947d8f28e942a1dfd0a75c617cf8c885f554adfe582b11"),
    ("coupled", "gaussian"): (
        "a64bbc17e7084dd0d9453a40eb23ca9f1f14f7b47632c794159f5ac2d565e6a3",
        "c19456c494ee2d1b72700487bc934da6c835a0eefc3e9f3f5a425397b488d6f9"),
    ("coupled", "table"): (
        "ae54a41d90acd4a0aeb332222c15f0b3a81a50afe4490cedf08dae4b56120976",
        "1fce25fde1612b17c4ab45136a08695f5ba3651a58080ce6590cb339d8e2e260"),
    ("coupled", "unit_disk"): (
        "f278cd14e601725dce3678a0255e306f89962b26e2ceb358f783a1920ccb01c4",
        "cb374825093987a3f78493f249cc8820c611975dcf99bd9128cfe15bcd962a65"),
}


def _campaign(metric, kernel):
    return parse_config({
        "model": KERNELS[kernel],
        "rho_list": [2.0, 40.0, 400.0, 1500.0],
        "b_list": [-0.5, 1.0],
        "metric": metric,
        "trials": 4,
        "master_seed": 20240611,
        "output_path": "unused.csv",
    })


@pytest.mark.parametrize("metric", ["torus", "square", "coupled"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_trial_tables_match_golden_digests(metric, kernel, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    monkeypatch.setattr(cli, "_summarize_cell", lambda *args: None)
    _, rows, _ = run_campaign(_campaign(metric, kernel))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (format_trials_csv(rows), format_trials_json(rows)))
    assert digests == GOLDEN[(metric, kernel)]
