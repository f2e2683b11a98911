"""Config parsing, campaign plumbing, serialization, and exit codes."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rcmsim import cli
from rcmsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_MODEL, EXIT_OK,
                        SKIP_REASON, Z99, CampaignConfig, build_model,
                        format_summary_csv, format_trials_csv, load_config,
                        main, parse_config, run_campaign,
                        summary_path, write_outputs)
from rcmsim.analysis import coupled_statistics
from rcmsim.errors import ConfigError, ModelError, ParameterError
from rcmsim.geometry import Metric
from rcmsim.sampler import SampleParams, couple_torus_to_square
from oracles import brute_force_edges, read_trials_csv
from test_theory import DENSE


def _doc(tmp_path, **over):
    doc = {
        "model": {"kind": "unit_disk"},
        "rho_list": [100.0, 250.0],
        "b_list": [0.0],
        "metric": "torus",
        "trials": 4,
        "master_seed": 3,
        "output_path": "out.csv" if tmp_path is None else str(tmp_path / "out.csv"),
    }
    doc.update(over)
    return doc


def _write_config(tmp_path, **over):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(tmp_path, **over)))
    return str(path)


# --- configuration ---


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_doc(tmp_path))
    assert cfg.rho_list == (100.0, 250.0)
    assert cfg.metric == "torus"
    assert cfg.epsilon == 0.25
    assert cfg.format == "csv"
    assert cfg.master_seed == 3


def test_parse_config_rejections(tmp_path):
    bad = [
        {"typo_key": 1},
        {"metric": "klein_bottle"},
        {"format": "xml"},
        {"epsilon": 0.5},
        {"epsilon": -0.1},
        {"trials": 0},
        {"trials": 2.5},
        {"trials": True},  # bool is not an integer here
        {"rho_list": []},
        {"rho_list": [100.0, -5.0]},
        {"rho_list": [100.0, True]},
        {"b_list": "zero"},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"output_path": ""},
    ]
    for over in bad:
        with pytest.raises(ConfigError):
            parse_config(_doc(None, **over))
    for missing in ("model", "rho_list", "b_list", "metric", "trials",
                    "output_path"):
        doc = _doc(None)
        del doc[missing]
        with pytest.raises(ConfigError):
            parse_config(doc)
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_build_model_variants():
    assert build_model({"kind": "unit_disk"}).kind == "unit_disk"
    g = build_model({"kind": "gaussian", "cutoff_eps": 1e-6})
    assert g.kind == "gaussian"
    ln = build_model({"kind": "log_normal", "sigma_db": 4.0, "eta": 2.0})
    assert ln.kind == "log_normal"
    t = build_model({"kind": "table", "knots": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]})
    assert t.kind == "table"


def test_build_model_rejections(tmp_path):
    bad = [
        "unit_disk",                                  # not an object
        {},                                            # no kind
        {"kind": "donut"},
        {"kind": "unit_disk", "cutoff_eps": 1e-6},     # key not allowed here
        {"kind": "gaussian", "cutoff_eps": True},
        {"kind": "log_normal", "sigma_db": 4.0},       # eta missing
        {"kind": "log_normal", "sigma_db": -4.0, "eta": 2.0},
        {"kind": "table"},                             # neither source
        {"kind": "table", "knots": [[0, 1]], "path": "x"},  # both sources
        {"kind": "table", "knots": []},
        {"kind": "table", "knots": [[0.0, 1.0, 2.0]]},
        {"kind": "table", "knots": [[0.0, True]]},
        {"kind": "table", "path": 7},
    ]
    for spec in bad:
        with pytest.raises(ConfigError):
            build_model(spec)


def test_rcm_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "99")
    assert parse_config(_doc(tmp_path)).master_seed == 99
    monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
    with pytest.raises(ConfigError):
        parse_config(_doc(tmp_path))
    monkeypatch.setenv(cli.SEED_ENV, str(2**64))
    with pytest.raises(ConfigError):
        parse_config(_doc(tmp_path))
    monkeypatch.delenv(cli.SEED_ENV)
    assert parse_config(_doc(tmp_path)).master_seed == 3


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(cli._IoFailure):
        load_config(str(tmp_path / "missing.json"))


# --- campaign execution ---


def test_campaign_cardinality_and_order(tmp_path):
    cfg = parse_config(_doc(tmp_path, rho_list=[120.0, 240.0],
                            b_list=[0.0, 0.5, 1.0], trials=4))
    summary, rows, warnings = run_campaign(cfg)
    assert not warnings
    assert len(rows) == 2 * 3 * 4
    assert len(summary.cells) == 6
    # rho outer, b inner, trials contiguous and ascending
    seen = [(r.rho, r.b) for r in rows[::4]]
    assert seen == [(r, b) for r in (120.0, 240.0) for b in (0.0, 0.5, 1.0)]
    assert all(rows[4 * k + i].trial == i for k in range(6) for i in range(4))
    for cell in summary.cells:
        assert cell.trials == 4 and not cell.skipped


def test_campaign_skips_impossible_cell(tmp_path):
    cfg = parse_config(_doc(tmp_path, rho_list=[2.0, 120.0], b_list=[-1.0],
                            trials=3))
    summary, rows, warnings = run_campaign(cfg)
    assert len(rows) == 3  # only the feasible cell ran
    assert len(warnings) == 1 and SKIP_REASON in warnings[0]
    skipped = summary.cells[0]
    assert skipped.skipped and skipped.reason == SKIP_REASON
    assert skipped.trials == 0 and skipped.mean_isolated is None
    assert not summary.cells[1].skipped


def test_campaign_skips_square_cell_wider_than_half(tmp_path):
    # r * cutoff = 0.52: the sampler and the theory refuse the cell on
    # every metric, so the campaign skips it with their reason
    cfg = parse_config(_doc(tmp_path, metric="square", rho_list=[2.0, 120.0],
                            b_list=[1.0], trials=3))
    summary, rows, warnings = run_campaign(cfg)
    assert len(rows) == 3
    skipped = summary.cells[0]
    assert skipped.skipped and skipped.reason == "r * cutoff = 0.5191 exceeds 1/2"
    assert warnings == [f"cell rho=2 b=1 skipped: {skipped.reason}"]


def test_campaign_cell_at_large_offset_keeps_its_theory(tmp_path):
    # exp(-exp(-40)) rounds to 1, a valid limit: the cell keeps every
    # theory column
    cfg = parse_config(_doc(tmp_path, rho_list=[2000.0], b_list=[0.0, 40.0], trials=2))
    summary, _, warnings = run_campaign(cfg)
    assert not warnings
    cell = summary.cells[1]
    assert cell.theory_prob_no_isolated == 1.0
    assert cell.theory_isolated == pytest.approx(math.exp(-40.0), rel=1e-9)
    assert cell.theory_boundary_excess > 0.0 and cell.tv_to_poisson is not None
    assert cell.chen_stein_b1 > 0.0 and cell.chen_stein_b2 > 0.0


@pytest.mark.parametrize("model", ["unit_disk", "gaussian"])
def test_summary_and_theory_document_agree(tmp_path, capsys, model):
    # both print one record: the same floats, not merely close ones
    assert main(["theory", "--model", model, "--rho", "2000", "--b", "0.5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    for metric, mean, degree in (("torus", "expected_isolated_torus", "mean_degree"),
                                 ("square", "expected_isolated_square", "mean_degree_square")):
        cfg = parse_config(_doc(tmp_path, model={"kind": model}, metric=metric,
                                rho_list=[2000.0], b_list=[0.5], trials=1))
        cell = run_campaign(cfg)[0].cells[0]
        assert cell.theory_isolated == doc[mean]
        assert cell.theory_mean_degree == doc[degree]
        assert cell.theory_boundary_excess == doc["boundary_excess"]
        assert cell.chen_stein_b1 == doc["chen_stein_b1"]
        assert cell.chen_stein_b2 == doc["chen_stein_b2"]


def test_campaign_runs_torus_cell_whose_support_fits(tmp_path):
    # r = 0.95 exceeds half the period, but the support r * cutoff = 0.38
    # does not: the torus holds the cell, and the theory gives its mean
    cfg = parse_config(_doc(tmp_path, model={"kind": "table", "knots": [[0, 1], [0.4, 0]]},
                            rho_list=[20.0], trials=3))
    summary, rows, warnings = run_campaign(cfg)
    cell = summary.cells[0]
    assert not cell.skipped and len(rows) == 3
    assert not any("skipped" in w for w in warnings)
    assert cell.theory_isolated > 0.0


def test_campaign_output_independent_of_workers(tmp_path):
    cfg = parse_config(_doc(tmp_path, rho_list=[80.0, 160.0], trials=12))
    texts = []
    for workers in (1, 1, 3):
        summary, rows, _ = run_campaign(cfg, workers=workers)
        texts.append(format_trials_csv(rows) + format_summary_csv(summary))
    assert texts[0] == texts[1] == texts[2]


def test_campaign_rows_follow_cells_at_any_worker_count(tmp_path):
    # the middle cell is skipped; the rows of the live cells come back in
    # config order with trials ascending, and the files do not depend on
    # the worker count
    files = []
    for workers in (1, 2):
        cfg = parse_config(_doc(tmp_path, rho_list=[150.0, 0.5, 200.0], trials=6,
                                output_path=str(tmp_path / f"w{workers}.csv")))
        summary, rows, _ = run_campaign(cfg, workers=workers)
        assert [(r.rho, r.b, r.trial) for r in rows] == [
            (rho, 0.0, t) for rho in (150.0, 200.0) for t in range(6)]
        assert [c.trials for c in summary.cells] == [6, 0, 6]
        assert summary.cells[1].skipped and summary.cells[1].reason == SKIP_REASON
        files.append([Path(f).read_bytes() for f in write_outputs(cfg, summary, rows)])
    assert files[0] == files[1]


@pytest.mark.parametrize("metric", ["torus", "square", "coupled"])
@pytest.mark.parametrize("kernel", [
    {"kind": "unit_disk"}, {"kind": "gaussian"},
    {"kind": "table", "knots": [[0.0, 1.0], [0.5, 1.0], [1.0, 0.4], [2.0, 0.0]]}],
    ids=["unit_disk", "gaussian", "plateau"])
def test_batched_trials_match_one_at_a_time(metric, kernel, monkeypatch):
    # one batch per cell and one trial per batch write the same table; at
    # seed 54 the rho 2 cells have trials without points at the start, in
    # the middle and at the end of their batch
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    monkeypatch.setattr(cli, "_summarize_cell", lambda *args: None)
    cfg = parse_config(_doc(None, model=kernel, rho_list=[2.0, 300.0], b_list=[-0.66, 0.5],
                            metric=metric, trials=12, master_seed=54))
    tables = []
    for budget in (0, 1e12):
        monkeypatch.setattr(cli, "_BATCH_POINTS", budget)
        _, rows, _ = run_campaign(cfg)
        tables.append(format_trials_csv(rows))
    assert tables[0] == tables[1]
    counts = [r.n_points for r in rows[:12]]
    assert rows[11].rho == 2.0 and counts[0] == counts[-1] == 0 and 0 in counts[1:-1]
    assert sum(r.n_edges for r in rows) > 0


@pytest.mark.parametrize("kernel", [
    {"kind": "unit_disk"}, {"kind": "gaussian"}, {"kind": "gaussian", "cutoff_eps": 0.1},
    {"kind": "table", "knots": [[0.0, 1.0], [1.0, 0.6], [2.0, 0.0]]}],
    ids=["unit_disk", "gaussian", "gaussian_eps01", "table3"])
def test_coupled_rows_realize_the_seam_at_lone_nodes(kernel, monkeypatch):
    # a coupled batch realizes a seam run only when its source or one of
    # its targets is lone, touched by no square edge; every row must still
    # be the full split's.  rho 2 and 5, and the Gaussian at rho 40, take
    # the one-cell grid, whose every pair may fold.  At rho <= 400 the
    # all-pairs oracle, which has no seam runs, counts the isolated nodes
    # of both metrics.  b sets r * cutoff to at most 0.45
    monkeypatch.setattr(cli, "_summarize_cell", lambda *args: None)
    model = build_model(kernel)
    boundary = torus = 0
    for rho, trials in ((2.0, 12), (5.0, 12), (40.0, 8), (400.0, 2), (2000.0, 8)):
        b = min(0.0, (0.45 / model.cutoff) ** 2 * model.C * rho - math.log(rho))
        config = CampaignConfig(model, (rho,), (b,), "coupled", trials, 31, 0.25, "unused.csv",
                                "csv")
        for t, row in enumerate(run_campaign(config)[1]):
            coupled = couple_torus_to_square(SampleParams(rho, b, model, Metric.TORUS, 31, t))
            assert row == coupled_statistics(coupled), (rho, t)
            if rho <= 400.0:
                for metric, got in ((Metric.TORUS, row.isolated_torus),
                                    (Metric.SQUARE, row.isolated_square)):
                    p = SampleParams(rho, b, model, metric, 31, t)
                    edges = brute_force_edges(p, coupled.points)
                    degree = np.bincount(edges.ravel(), minlength=coupled.n_points)
                    assert got == np.count_nonzero(degree == 0), (rho, t, metric)
            boundary += row.isolated_boundary
            torus += row.isolated_torus
    # lone nodes with a seam edge, and lone nodes whose seam runs draw none
    assert boundary > 0 and torus > 0


def test_campaign_rejects_bad_worker_count(tmp_path):
    cfg = parse_config(_doc(tmp_path))
    with pytest.raises(ConfigError):
        run_campaign(cfg, workers=0)


def test_summary_matches_recomputation_from_rows(tmp_path):
    cfg = parse_config(_doc(tmp_path, rho_list=[200.0], trials=50))
    summary, rows, _ = run_campaign(cfg)
    cell = summary.cells[0]
    parsed = read_trials_csv(format_trials_csv(rows))
    iso = np.array([r.isolated for r in parsed], dtype=np.float64)
    assert cell.mean_isolated == pytest.approx(iso.mean(), rel=1e-15)
    assert cell.var_isolated == pytest.approx(iso.var(ddof=1), rel=1e-15)
    assert cell.ci99_isolated == pytest.approx(
        Z99 * math.sqrt(iso.var(ddof=1) / iso.size), rel=1e-15)
    assert cell.p_no_isolated == pytest.approx((iso == 0).mean(), rel=1e-15)
    conn = np.array([r.connected for r in parsed])
    assert cell.frac_connected == pytest.approx(conn.mean(), rel=1e-15)
    deg = np.array([r.mean_degree for r in parsed])
    assert cell.mean_degree == pytest.approx(deg.mean(), rel=1e-15)
    # quadrature companions land in the same row
    assert cell.theory_isolated == pytest.approx(1.0, abs=1e-9)
    assert cell.theory_boundary_excess > 0.0
    assert cell.chen_stein_b1 > 0.0 and cell.chen_stein_b2 > 0.0
    assert cell.tv_to_poisson is not None and 0.0 <= cell.tv_to_poisson <= 1.0


def test_coupled_campaign_records_split(tmp_path):
    cfg = parse_config(_doc(tmp_path, metric="coupled", rho_list=[150.0],
                            trials=10))
    summary, rows, _ = run_campaign(cfg)
    for r in rows:
        assert r.metric == "coupled"
        assert r.isolated_boundary == r.isolated_square - r.isolated_torus
        assert r.isolated_boundary >= 0
        assert r.isolated == r.isolated_square
    cell = summary.cells[0]
    assert cell.mean_boundary is not None and cell.ci99_boundary is not None
    assert cell.theory_isolated > 1.0  # square metric drives the theory column
    assert cell.theory_mean_degree < math.log(150.0)  # and the mean degree


# --- serialization ---


def test_trials_csv_round_trip(tmp_path):
    cfg = parse_config(_doc(tmp_path, metric="coupled", rho_list=[90.0],
                            trials=6))
    _, coupled_rows, _ = run_campaign(cfg)
    cfg2 = parse_config(_doc(tmp_path, rho_list=[90.0], trials=6))
    _, plain_rows, _ = run_campaign(cfg2)
    for rows in (coupled_rows, plain_rows, []):
        text = format_trials_csv(rows)
        assert read_trials_csv(text) == rows


def test_summary_path_naming():
    assert summary_path("out.csv") == "out_summary.csv"
    assert summary_path("a/b/run.json") == "a/b/run_summary.json"


def test_write_outputs_csv_and_json(tmp_path):
    cfg = parse_config(_doc(tmp_path, rho_list=[70.0], trials=3))
    summary, rows, _ = run_campaign(cfg)
    trial_file, summary_file = write_outputs(cfg, summary, rows)
    assert read_trials_csv((tmp_path / "out.csv").read_text()) == rows
    assert (tmp_path / "out_summary.csv").read_text().startswith(
        ",".join(cli.SUMMARY_COLUMNS))

    jcfg = CampaignConfig(**{**cli._record_dict(cfg),
                             "output_path": str(tmp_path / "runs" / "out.json"),
                             "format": "json"})
    write_outputs(jcfg, summary, rows)
    doc = json.loads((tmp_path / "runs" / "out.json").read_text())
    assert len(doc) == len(rows)
    assert doc[0]["metric"] == "torus"
    sdoc = json.loads((tmp_path / "runs" / "out_summary.json").read_text())
    assert len(sdoc) == len(summary.cells)

    # the finite-density P(no isolated node) beside its limiting value
    header, first = (tmp_path / "out_summary.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert float(row["theory_p_no_isolated"]) == math.exp(-float(row["theory_isolated"]))
    assert sdoc[0]["theory_p_no_isolated"] == math.exp(-sdoc[0]["theory_isolated"])


# --- subcommands and exit codes ---


def test_simulate_happy_path(tmp_path, capsys):
    path = _write_config(tmp_path, rho_list=[80.0], trials=5)
    assert main(["simulate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "5 trial rows" in out
    rows = read_trials_csv((tmp_path / "out.csv").read_text())
    assert len(rows) == 5


def test_simulate_skip_still_succeeds(tmp_path, capsys):
    path = _write_config(tmp_path, rho_list=[2.0, 80.0], b_list=[-1.0],
                         trials=3)
    assert main(["simulate", path]) == EXIT_OK
    err = capsys.readouterr().err
    assert "skipped" in err and SKIP_REASON in err


def test_simulate_output_and_format_overrides(tmp_path):
    path = _write_config(tmp_path, rho_list=[80.0], trials=4)
    target = tmp_path / "elsewhere" / "run.json"
    assert main(["simulate", path, "--output", str(target),
                 "--format", "json"]) == EXIT_OK
    assert len(json.loads(target.read_text())) == 4
    assert (tmp_path / "elsewhere" / "run_summary.json").exists()


def test_simulate_workers_flag_matches_serial(tmp_path):
    path = _write_config(tmp_path, rho_list=[80.0], trials=8)
    assert main(["simulate", path]) == EXIT_OK
    serial = (tmp_path / "out.csv").read_text()
    assert main(["simulate", path, "--workers", "2"]) == EXIT_OK
    assert (tmp_path / "out.csv").read_text() == serial


def test_simulate_runs_coupled_config(tmp_path):
    path = _write_config(tmp_path, metric="coupled", rho_list=[80.0], trials=4)
    assert main(["simulate", path]) == EXIT_OK
    rows = read_trials_csv((tmp_path / "out.csv").read_text())
    assert len(rows) == 4
    assert all(r.metric == "coupled" for r in rows)
    assert all(r.isolated_boundary == r.isolated_square - r.isolated_torus
               for r in rows)


def test_couple_is_not_a_subcommand(capsys):
    # a coupled campaign is `simulate` on a config with metric "coupled"
    with pytest.raises(SystemExit) as exc:
        main(["couple", "config.json"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'couple'" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", missing]) == EXIT_IO

    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    assert main(["simulate", str(broken)]) == EXIT_CONFIG

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(_doc(tmp_path, typo_key=1)))
    assert main(["simulate", str(unknown)]) == EXIT_CONFIG

    # non-monotone table: config is well-formed, the kernel is not
    bad_model = _doc(tmp_path, model={"kind": "table",
                                      "knots": [[0.0, 1.0], [0.5, 0.2],
                                                [1.0, 0.6], [2.0, 0.0]]})
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(bad_model))
    assert main(["simulate", str(bad)]) == EXIT_MODEL

    # unreachable output directory: parent is a file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    io_bad = tmp_path / "io.json"
    io_bad.write_text(json.dumps(_doc(tmp_path, rho_list=[50.0], trials=1,
                                      output_path=str(blocker / "out.csv"))))
    assert main(["simulate", str(io_bad)]) == EXIT_IO

    # theory: the same mapping for a model spec, and the campaign config's
    # epsilon rule, checked before any quadrature
    args = ["--rho", "2000", "--b", "0"]
    assert main(["theory", "--model", missing, *args]) == EXIT_IO
    assert main(["theory", "--model", str(broken), *args]) == EXIT_CONFIG
    unknown_kind = tmp_path / "unknown_kind.json"
    unknown_kind.write_text(json.dumps({"kind": "disk"}))
    assert main(["theory", "--model", str(unknown_kind), *args]) == EXIT_CONFIG
    for eps in ("0.7", "-1", "0.5"):
        assert main(["theory", "--model", "unit_disk", *args,
                     f"--epsilon={eps}"]) == EXIT_CONFIG
    # a NaN offset is refused, and at rho 1e308, where C * rho overflows,
    # the range is still finite
    assert main(["theory", "--model", "unit_disk", "--rho", "2000",
                 "--b", "nan"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["theory", "--model", "unit_disk", "--rho", "1e308",
                 "--b", "0"]) == EXIT_OK
    json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)

    # a config that is not text is a config error
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe\x00\x80 1.0 0.5\n")
    assert main(["simulate", str(binary)]) == EXIT_CONFIG
    assert main(["theory", "--model", str(binary), *args]) == EXIT_CONFIG

    # a table `path` that cannot be read (missing, a directory) is an I/O
    # failure and one that is not UTF-8 text a model failure, in every
    # command that builds the kernel
    for table, code in ((missing, EXIT_IO), (str(tmp_path), EXIT_IO),
                        (str(binary), EXIT_MODEL)):
        spec = {"kind": "table", "path": table}
        model_file = tmp_path / "table_model.json"
        model_file.write_text(json.dumps(spec))
        assert main(["simulate", _write_config(tmp_path, model=spec)]) == code, table
        assert main(["theory", "--model", str(model_file), *args]) == code, table
        assert main(["validate-model", str(model_file)]) == code, table


def test_rcm_seed_changes_output_through_main(tmp_path, monkeypatch):
    path = _write_config(tmp_path, rho_list=[80.0], trials=5)
    assert main(["simulate", path]) == EXIT_OK
    base = (tmp_path / "out.csv").read_text()
    monkeypatch.setenv(cli.SEED_ENV, "12345")
    assert main(["simulate", path]) == EXIT_OK
    assert (tmp_path / "out.csv").read_text() != base
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    assert main(["simulate", path]) == EXIT_CONFIG


def test_theory_subcommand(tmp_path, capsys):
    assert main(["theory", "--model", "unit_disk", "--rho", "1000",
                 "--b", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_isolated_torus"] == pytest.approx(1.0, abs=1e-9)
    assert doc["prob_no_isolated"] == pytest.approx(math.exp(-1.0))
    assert doc["boundary_excess"] > 0.0
    assert doc["expected_isolated_square"] == pytest.approx(
        doc["expected_isolated_torus"] + doc["boundary_excess"])
    assert doc["chen_stein_b1"] > doc["chen_stein_b2"] * 0.0
    assert 0.0 <= doc["quad_error_b2"] <= 1e-7 * doc["chen_stein_b2"]
    assert doc["truncation_bias"] == 0.0
    assert doc["mean_degree"] == pytest.approx(math.log(1000.0))
    assert 0.9 * doc["mean_degree"] < doc["mean_degree_square"] < doc["mean_degree"]

    out = tmp_path / "theory.json"
    assert main(["theory", "--model", "gaussian", "--rho", "2000",
                 "--b", "0.5", "--output", str(out)]) == EXIT_OK
    gdoc = json.loads(out.read_text())
    assert gdoc["model"] == "gaussian"
    assert gdoc["truncation_bias"] > 0.0

    # infeasible scale is a config-style error
    assert main(["theory", "--model", "unit_disk", "--rho", "1",
                 "--b", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize("rho, b", [("2000", "40"), ("1e30", "-40")])
def test_theory_subcommand_at_extreme_offsets(capsys, rho, b):
    # P(no isolated) -> exp(-exp(-b)) rounds to exactly 1 or 0
    assert main(["theory", "--model", "unit_disk", "--rho", rho, "--b", b]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["prob_no_isolated"] == (1.0 if float(b) > 0.0 else 0.0)
    for key in ("expected_isolated_square", "expected_isolated_torus",
                "boundary_excess", "chen_stein_b1", "chen_stein_b2"):
        assert math.isfinite(doc[key]) and doc[key] > 0.0


def _refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.parametrize("rho", ["1e200", "1e300", "1e308"])
@pytest.mark.parametrize("model", ["unit_disk", "gaussian"])
def test_theory_subcommand_is_finite_at_huge_density(capsys, model, rho):
    # rho^2 r^2 overflows past rho ~ 1e154, where exp(-rho r^2 (2C - X))
    # underflows, and C rho near 1e308; none may leave an Infinity, a NaN
    # or a b1 rounded to 0 in the output
    assert main(["theory", "--model", model, "--rho", rho, "--b", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["chen_stein_b1"] > 0.0
    assert math.isfinite(doc["chen_stein_b2"]) and doc["chen_stein_b2"] >= 0.0
    assert 0.0 <= doc["quad_error_b2"] <= 1e-7 * doc["chen_stein_b2"]


def test_theory_subcommand_reports_bound_failure(tmp_path, capsys):
    # dependence disc too wide at this density; terms are null, run succeeds
    assert main(["theory", "--model", "unit_disk", "--rho", "20",
                 "--b", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["chen_stein_b1"] is None and doc["chen_stein_b2"] is None
    assert doc["quad_error_b2"] is None
    assert "chen_stein_error" in doc


@pytest.mark.parametrize("spec, rho", [
    ("gaussian", 40.0),
    ({"kind": "log_normal", "sigma_db": 4.0, "eta": 3.0}, 400.0),
    ({"kind": "table", "knots": [list(k) for k in zip(DENSE.radii, DENSE.values)]}, 10.0),
], ids=["gaussian", "log-normal", "dense-table"])
def test_theory_subcommand_refuses_wide_support(tmp_path, capsys, spec, rho):
    # r * cutoff = 0.90, 0.55 and 0.73: a parameter error, raised before
    # any quadrature (the square mean of the last two once failed to
    # converge or took 27 s)
    if isinstance(spec, dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    t0 = time.perf_counter()
    assert main(["theory", "--model", spec, "--rho", str(rho), "--b", "0"]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    assert "exceeds 1/2" in out.err and not out.out


def test_package_imports_no_adaptive_quadrature(tmp_path, child_env):
    # in a fresh interpreter: pytest's own warning filter imports
    # scipy.integrate into this one
    script = """
import sys
import rcmsim
assert not any(m in sys.modules for m in ("scipy.integrate", "scipy.special", "scipy.sparse"))
rcmsim.log_normal(4.0, 3.0).g([0.5, 2.0])
from rcmsim.cli import main
assert main(["theory", "--model", "gaussian", "--rho", "2000", "--b", "0",
             "--output", sys.argv[1]]) == 0
assert "scipy.integrate" not in sys.modules
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "theory.json")],
                         capture_output=True, text=True, timeout=120, env=child_env)
    assert res.returncode == 0, res.stderr


def test_unit_disk_theory_loads_no_scipy(tmp_path, child_env):
    # the README's Install promise: the unit disk's theory is numpy alone
    script = """
import sys
from rcmsim.cli import main
assert main(["theory", "--model", "unit_disk", "--rho", "2000", "--b", "0",
             "--output", sys.argv[1]]) == 0
loaded = [m for m in ("scipy.special", "scipy.sparse", "scipy.integrate") if m in sys.modules]
assert not loaded, loaded
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "theory.json")],
                         capture_output=True, text=True, timeout=120, env=child_env)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("sigma_db,eta", [(60.0, 1.0), (1000.0, 0.5)])
def test_extreme_log_normal_exits_model_failure(tmp_path, capsys, sigma_db, eta):
    # a spread with no finite cutoff (and at (1000, 0.5) an overflowing
    # mass) is a model validation failure in every command, not a crash
    spec = {"kind": "log_normal", "sigma_db": sigma_db, "eta": eta}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert main(["validate-model", str(path)]) == EXIT_MODEL
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert not doc["ok"] and not doc["integral_finite"] and not doc["tail_ok"]
    assert doc["cutoff"] is None and doc["C"] is None and doc["C_error"] is None
    assert main(["theory", "--model", str(path), "--rho", "2000", "--b", "0"]) == EXIT_MODEL
    assert main(["simulate", _write_config(tmp_path, model=spec)]) == EXIT_MODEL
    assert "validation" in capsys.readouterr().err


def test_validate_model_subcommand(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "log_normal", "sigma_db": 4.0,
                                "eta": 2.0}))
    assert main(["validate-model", str(good)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["kind"] == "log_normal"
    assert set(doc) == {"kind", "cutoff", "C", "C_error", "monotone_ok", "range_ok",
                        "integral_finite", "tail_ok", "ok"}
    assert doc["C"] == pytest.approx(4.801276, abs=2e-4)

    # also accepts a whole campaign config and digs out the model
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(_doc(tmp_path)))
    assert main(["validate-model", str(wrapped)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "unit_disk"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "table",
                               "knots": [[0.0, 1.0], [0.5, 0.2],
                                         [1.0, 0.6], [2.0, 0.0]]}))
    assert main(["validate-model", str(bad)]) == EXIT_MODEL
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"] and not doc["monotone_ok"]

    # a table that never drops to cutoff_eps has no finite cutoff or C,
    # which strict JSON writes as null
    never = tmp_path / "never.json"
    never.write_text(json.dumps({"kind": "table", "knots": [[0.0, 1.0], [1.0, 0.5]]}))
    assert main(["validate-model", str(never)]) == EXIT_MODEL
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert not doc["ok"] and not doc["tail_ok"] and doc["monotone_ok"]
    assert doc["cutoff"] is None and doc["C"] is None and doc["C_error"] is None
