"""Tests of the benchmark itself (not collected by the project's test suite).

    python3 -m pytest bench/test_bench.py -q

The checks must reject perturbed outputs, the reference computations must
agree with closed forms, and a tiny run of every workload must complete.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rcmsim import cli  # noqa: E402

TABLE = ref.Kernel("table", workloads.TABLE_KNOTS)


# ---------------------------------------------------------------------------
# reference computations against closed forms


def test_kernel_masses_closed_form():
    assert ref.UNIT_DISK.C == pytest.approx(math.pi, rel=1e-15)
    c = ref.GAUSSIAN.cutoff
    assert ref.GAUSSIAN.C == pytest.approx(math.pi * (1.0 - math.exp(-c * c)), rel=1e-15)
    # 2 pi [int_0^1 x (1 - 0.4 x) dx + int_1^2 0.6 x (2 - x) dx] = 2 pi * 23/30
    assert TABLE.C == pytest.approx(2.0 * math.pi * 23.0 / 30.0, rel=1e-14)


def test_torus_mean_is_exp_minus_b():
    for kernel in (ref.UNIT_DISK, TABLE):
        for b in (-1.0, 0.0, 2.5):
            assert ref.torus_isolated_mean(kernel, 3000.0, b) == pytest.approx(math.exp(-b), rel=1e-12)


def test_cross_mass_matches_plane_integral():
    for s in (0.3, 1.2, 1.9):
        # two unit disks: the overlap's vertical extent at abscissa x
        def chord(x):
            return 2.0 * math.sqrt(max(0.0, min(1.0 - x * x, 1.0 - (x - s) ** 2)))
        lens, _ = integrate.quad(chord, s - 1.0, 1.0, points=[0.5 * s], epsabs=1e-13)
        assert float(ref.UNIT_DISK.cross_mass(s)) == pytest.approx(lens, rel=1e-9)

        def gauss(y, x):
            return math.exp(-(x * x + y * y) - ((x - s) ** 2 + y * y))
        num, _ = integrate.dblquad(gauss, -8.0, 8.0, -8.0, 8.0, epsabs=1e-12)
        assert float(ref.GAUSSIAN.cross_mass(s)) == pytest.approx(num, rel=1e-9)


def test_gaussian_ray_method_matches_separable_form():
    for rho, b in ((2000.0, 0.0), (500.0, 2.0)):
        sep = ref.gaussian_square_isolated_mean(rho, b)
        assert ref.square_isolated_mean(ref.GAUSSIAN, rho, b) == pytest.approx(sep, rel=1e-9)


def test_square_mean_converges_in_panel_order():
    for kernel in (ref.UNIT_DISK, TABLE):
        coarse = ref.square_isolated_mean(kernel, 2000.0, 0.0)
        fine = ref.square_isolated_mean(kernel, 2000.0, 0.0, n=64)
        assert coarse == pytest.approx(fine, rel=1e-8)
        assert coarse > ref.torus_isolated_mean(kernel, 2000.0, 0.0)


def test_torus_graph_small_configuration():
    # points 0 and 1 are neighbours across the wrap, 2 and 3 directly,
    # 4 is isolated
    pts = np.array([[-0.49, 0.0], [0.48, 0.0], [0.0, 0.2], [0.0, 0.25], [0.2, -0.3]])
    assert ref.torus_graph(pts, 0.06) == (2, 1, 3)


# ---------------------------------------------------------------------------
# checks reject perturbed outputs


def _campaign(metric: str, fmt: str):
    """A tiny unit-disk campaign run in process: (work, rows, summary, refs)."""
    work = workloads.Campaign(model={"kind": "unit_disk"}, rho_list=(300.0,), b_list=(0.0,),
                              metric=metric, trials=4, workers=1, format=fmt)
    config = cli.parse_config(work.config(11, "unused.csv"))
    summary, rows, _ = cli.run_campaign(config)
    if fmt == "csv":
        rows_text, summary_text = cli.format_trials_csv(rows), cli.format_summary_csv(summary)
    else:
        rows_text, summary_text = cli.format_trials_json(rows), cli.format_summary_json(summary)
    refs = checks.campaign_references(work, config, 11)
    return (work, checks.parse_table(rows_text.encode(), fmt),
            checks.parse_table(summary_text.encode(), fmt), refs)


def _tally_trials(work, rows, refs):
    tally = checks.Tally()
    checks.check_trials(work, rows, refs, False, tally)
    return tally


def test_edge_count_off_by_one_fails():
    work, rows, _, refs = _campaign("torus", "csv")
    assert refs["graphs"]
    assert _tally_trials(work, rows, refs).failed == 0
    rho, b, t = next(iter(refs["graphs"]))
    row = next(r for r in rows if (r["rho"], r["b"], r["trial"]) == (rho, b, t))
    row["n_edges"] += 1
    tally = _tally_trials(work, rows, refs)
    assert tally.failed == 1 and "n_edges" in tally.problems[0]


def test_coupled_boundary_off_by_one_fails():
    work, rows, _, refs = _campaign("coupled", "json")
    assert _tally_trials(work, rows, refs).failed == 0
    unsampled = {k[2] for k in refs["replay"]}
    row = next(r for r in rows if r["trial"] not in unsampled)
    row["isolated_boundary"] += 1
    tally = _tally_trials(work, rows, refs)
    assert tally.failed == 1 and "isolated_boundary" in tally.problems[0]


@pytest.mark.parametrize("column", ["theory_isolated", "theory_boundary_excess",
                                    "chen_stein_b1", "chen_stein_b2"])
def test_campaign_quadrature_off_by_1e5_fails(column):
    work, _, summary, refs = _campaign("torus", "csv")
    tally = checks.Tally()
    checks.check_summary(work, summary, refs, False, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    summary[0][column] *= 1.0 + 1e-5
    tally = checks.Tally()
    checks.check_summary(work, summary, refs, False, tally)
    assert tally.failed == 1


@pytest.mark.parametrize("name,kernel", [("gaussian", ref.GAUSSIAN), ("table", TABLE)])
@pytest.mark.parametrize("field,op", [("expected_isolated_torus", "torus"),
                                      ("expected_isolated_square", "square"),
                                      ("chen_stein_b1", "chen_stein")])
def test_theory_doc_off_by_1e5_fails(name, kernel, field, op):
    rho, b = 2000.0, 0.0
    want = {"torus": ref.torus_isolated_mean(kernel, rho, b),
            "square": ref.square_isolated_mean(kernel, rho, b),
            "chen_stein": ref.chen_stein(kernel, rho, b)}
    doc = {"expected_isolated_torus": want["torus"], "expected_isolated_square": want["square"],
           "boundary_excess": want["square"] - want["torus"],
           "chen_stein_b1": want["chen_stein"][0],
           "chen_stein_b2": want["chen_stein"][1] or 0.1}
    tally = checks.Tally()
    checks.check_theory_doc(name, doc, want, None, tally)
    assert (tally.attempted, tally.failed) == (3, 0)
    doc[field] *= 1.0 + 1e-5
    tally = checks.Tally()
    checks.check_theory_doc(name, doc, want, None, tally)
    assert any(p.startswith(f"{name} {op}: ") for p in tally.problems)


def test_leaked_warning_fails_the_theory_operations():
    work, _, summary, refs = _campaign("torus", "csv")
    tally = checks.Tally()
    checks.check_summary(work, summary, refs, True, tally)
    assert tally.failed == 2


# ---------------------------------------------------------------------------
# tiny runs of every workload, traced and untraced


TINY = {
    "disk-torus": dataclasses.replace(workloads.WORKLOADS["disk-torus"],
                                      rho_list=(300.0, 600.0), trials=3),
    "gauss-coupled": dataclasses.replace(workloads.WORKLOADS["gauss-coupled"],
                                         rho_list=(300.0,), trials=3),
    # the unit disk keeps the quadrature short; the Gaussian and table
    # kernels run at full size in the benchmark itself
    "theory-kernels": dataclasses.replace(workloads.WORKLOADS["theory-kernels"],
                                          kernels=(("disk", {"kind": "unit_disk"}),)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_completes(name, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.chdir(REPO)
    for trace in (False, True):
        result = run.run(name, 424242, 0.0, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        metrics = result["metrics"]
        if trace:
            assert (BENCH / "out" / f"{name}-424242" / "spans.json").is_file()
            assert metrics["sampler.points_per_trial"]["value"] > 0
        else:
            assert set(metrics) == {"setup_s", "wall_s", "trials_per_s", "peak_rss_mb"}
            assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "disk-torus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
