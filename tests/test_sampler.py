"""Point sampling, edge realization, determinism, and the metric coupling."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from rcmsim import sampler, streams
from rcmsim.errors import ModelError, ParameterError
from rcmsim.geometry import Metric
from rcmsim.models import (connection_radius, eval_g, gaussian, log_normal,
                           table_model, unit_disk)
from rcmsim.sampler import (SampleParams, build_graph, couple_torus_to_square,
                            sample_points, thin_edges, truncation_bias,
                            write_edge_list)
from oracles import brute_force_edges

UD = unit_disk()
GAUSS = gaussian()


def _params(rho, b, metric=Metric.TORUS, model=UD, seed=101, trial=0):
    return SampleParams(rho, b, model, metric, seed, trial)


# --- parameters and point sampling ---


def test_params_compute_radius():
    p = _params(1000.0, 0.0)
    assert p.r == pytest.approx(connection_radius(math.pi, 1000.0, 0.0))


def test_params_reject_bad_scale():
    with pytest.raises(ParameterError):
        _params(2.0, -1.0)
    with pytest.raises(ParameterError):
        _params(1.0, 0.0)


def test_params_reject_wide_torus_range():
    # r > 1/2 cannot be embedded on the unit torus
    with pytest.raises(ParameterError):
        _params(1.2, 1.0, metric=Metric.TORUS)


def test_params_reject_invalid_model():
    bad = table_model([(0.0, 1.0), (1.0, 0.2), (2.0, 0.6), (3.0, 0.0)])
    with pytest.raises(ModelError):
        _params(100.0, 0.0, model=bad)


def test_sample_points_in_cell_and_deterministic():
    p = _params(500.0, 0.0)
    pts = sample_points(p)
    assert pts.shape[1] == 2
    assert pts.min() >= -0.5 and pts.max() < 0.5
    assert np.array_equal(pts, sample_points(p))
    q = _params(500.0, 0.0, trial=1)
    assert sample_points(q).shape != pts.shape or not np.array_equal(
        sample_points(q), pts)


def test_point_count_moments():
    rho = 1000.0
    counts = np.array([sample_points(_params(rho, 0.0, trial=t)).shape[0]
                       for t in range(10_000)])
    assert 990.0 < counts.mean() < 1010.0
    assert abs(counts.var(ddof=1) / rho - 1.0) < 0.08


# --- edge realization ---


def test_grid_matches_brute_force_across_models_and_metrics():
    rng = np.random.default_rng(12)
    models = [UD, GAUSS, log_normal(6.0, 3.0),
              table_model([(0.0, 1.0), (0.5, 0.7), (1.5, 0.1), (2.5, 0.0)])]
    for case in range(60):
        rho = float(rng.uniform(5.0, 250.0))
        b = float(rng.uniform(-0.5, 1.5))
        if math.log(rho) + b <= 0.05:
            continue
        metric = Metric.TORUS if case % 2 == 0 else Metric.SQUARE
        model = models[case % len(models)]
        try:
            p = SampleParams(rho, b, model, metric, 7000 + case, case)
        except ParameterError:
            continue  # wide range at tiny rho: rejected, fine
        if p.r * model.cutoff > 0.5:
            continue
        pts = sample_points(p)
        if pts.shape[0] > 300:
            continue
        got = build_graph(p, pts).edges
        want = brute_force_edges(p, pts)
        assert np.array_equal(got, want), f"case {case} {model.kind} {metric}"


def test_exact_scan_matches_grid():
    p = _params(400.0, 0.5, metric=Metric.SQUARE, model=GAUSS, seed=4)
    pts = sample_points(p)
    a = build_graph(p, pts).edges
    b = build_graph(p, pts, exact=True).edges
    assert np.array_equal(a, b)


def test_exact_scan_matches_grid_across_slices():
    # n > 4096: the 1x1 grid's candidate triangle spans many slices
    p = _params(6000.0, 0.0, metric=Metric.SQUARE, seed=8)
    pts = sample_points(p)
    n = pts.shape[0]
    assert n > 4096 and n * (n - 1) // 2 > 8 * sampler._SLICE_PAIRS
    grid = build_graph(p, pts).edges
    exact = build_graph(p, pts, exact=True).edges
    assert np.array_equal(grid, exact)
    assert exact.dtype == np.int64 and exact.flags.c_contiguous


def test_tiny_slices_match_default_slices(monkeypatch):
    # slices far smaller than one source's run of candidates give every
    # run a slice of its own and leave some slices empty
    cases = []
    for k, (model, metric) in enumerate([(UD, Metric.TORUS), (UD, Metric.SQUARE),
                                         (GAUSS, Metric.TORUS), (GAUSS, Metric.SQUARE)]):
        p = _params(800.0, 0.5, metric=metric, model=model, seed=60 + k)
        pts = sample_points(p)
        cases.append((p, pts, build_graph(p, pts).edges))
    monkeypatch.setattr(sampler, "_SLICE_PAIRS", 7)
    for p, pts, want in cases:
        assert np.array_equal(build_graph(p, pts).edges, want)


def test_build_graph_memory_is_bounded():
    # the Gaussian's 3x3 candidate set at rho 2e4 is about 1e7 pairs; it
    # is realized slice by slice, never held at once
    p = _params(2e4, 0.0, model=GAUSS, seed=3)
    pts = sample_points(p)
    tracemalloc.start()
    try:
        build_graph(p, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e6


def test_wide_square_range_needs_exact():
    p = SampleParams(1.2, 1.0, UD, Metric.SQUARE, 1, 0)
    pts = np.array([[0.3, 0.3], [-0.3, -0.3], [0.1, -0.4]])
    with pytest.raises(ParameterError):
        build_graph(p, pts)
    s = build_graph(p, pts, exact=True)
    assert s.n_points == 3


def test_edge_probability_frequency():
    # one pair at fixed separation: empirical connection rate ~ g(d / r)
    p0 = _params(300.0, 0.0, model=GAUSS)
    d = 1.3 * p0.r
    pts = np.array([[-d / 2.0, 0.0], [d / 2.0, 0.0]])
    want = eval_g(GAUSS, 1.3)
    hits = 0
    trials = 30_000
    for t in range(trials):
        p = _params(300.0, 0.0, model=GAUSS, trial=t)
        hits += build_graph(p, pts).n_edges
    se = math.sqrt(want * (1.0 - want) / trials)
    assert abs(hits / trials - want) < 5.0 * se


def test_edges_sorted_and_unique():
    p = _params(400.0, 0.0)
    s = build_graph(p, sample_points(p))
    e = s.edges
    assert np.all(e[:, 0] < e[:, 1])
    order = np.lexsort((e[:, 1], e[:, 0]))
    assert np.array_equal(order, np.arange(len(e)))
    assert len(np.unique(e[:, 0] * s.n_points + e[:, 1])) == len(e)


def test_degrees_and_stats():
    p = _params(300.0, 0.0)
    s = build_graph(p, sample_points(p))
    deg = s.degrees()
    assert deg.sum() == 2 * s.n_edges
    assert len(deg) == s.n_points


def test_empty_and_single_point_graphs():
    p = _params(100.0, 0.0)
    s0 = build_graph(p, np.empty((0, 2)))
    assert s0.n_points == 0 and s0.n_edges == 0
    s1 = build_graph(p, np.array([[0.1, 0.2]]))
    assert s1.n_points == 1 and s1.n_edges == 0


def test_build_graph_rejects_outside_points():
    p = _params(100.0, 0.0)
    with pytest.raises(ParameterError):
        build_graph(p, np.array([[0.6, 0.0]]))
    with pytest.raises(ParameterError):
        build_graph(p, np.array([[0.5, 0.0]]))  # +1/2 excluded


# --- thinning and coupling ---


def test_thin_edges_keep_all_and_none():
    p = _params(300.0, 0.0)
    s = build_graph(p, sample_points(p))
    kept = thin_edges(s, lambda a, b: np.ones(len(a)), streams.TAG_USER_BASE)
    assert np.array_equal(kept.edges, s.edges)
    none = thin_edges(s, lambda a, b: np.zeros(len(a)), streams.TAG_USER_BASE)
    assert none.n_edges == 0


def test_thin_edges_rejects_reserved_tags_and_bad_ratios():
    p = _params(200.0, 0.0)
    s = build_graph(p, sample_points(p))
    with pytest.raises(ParameterError):
        thin_edges(s, lambda a, b: np.ones(len(a)), streams.TAG_EDGES)
    with pytest.raises(ModelError):
        thin_edges(s, lambda a, b: np.full(len(a), 1.5), streams.TAG_USER_BASE)
    with pytest.raises(ModelError):
        thin_edges(s, lambda a, b: np.full(len(a), -0.2), streams.TAG_USER_BASE)


def test_coupling_square_subset_of_torus():
    for trial in range(30):
        p = _params(250.0, 0.0, trial=trial, seed=55)
        c = couple_torus_to_square(p)
        keys_t = set(map(tuple, c.torus_edges))
        keys_s = set(map(tuple, c.square_edges))
        keys_r = set(map(tuple, c.removed_edges))
        assert keys_s <= keys_t
        assert keys_r == keys_t - keys_s


def test_coupling_unit_disk_square_edges_are_exact():
    # deterministic kernel: the square graph is exactly the pairs with
    # euclidean distance <= r
    p = _params(300.0, 0.0, seed=9)
    c = couple_torus_to_square(p)
    pts = c.points
    n = len(pts)
    want = []
    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]) <= p.r:
                want.append((i, j))
    assert np.array_equal(c.square_edges, np.array(sorted(want)).reshape(-1, 2))


def test_coupling_square_marginal_matches_direct_square_run():
    # the thinned square graph must be distributed like a square-metric
    # build; compare expected isolated counts over trials
    n_trials = 400
    iso_coupled = 0
    iso_direct = 0
    for t in range(n_trials):
        pc = _params(150.0, 0.0, trial=t, seed=77)
        c = couple_torus_to_square(pc)
        deg = np.zeros(c.n_points, dtype=int)
        for i, j in c.square_edges:
            deg[i] += 1
            deg[j] += 1
        iso_coupled += int((deg == 0).sum())
        pd = _params(150.0, 0.0, metric=Metric.SQUARE, trial=t, seed=78)
        s = build_graph(pd, sample_points(pd))
        iso_direct += int((s.degrees() == 0).sum())
    # both estimate the same mean; allow 5 sigma of the difference
    lam = iso_coupled / n_trials
    se = math.sqrt(2.0 * max(lam, 1.0) / n_trials)
    assert abs(iso_coupled - iso_direct) / n_trials < 5.0 * se


def test_coupling_requires_torus_params():
    p = _params(200.0, 0.0, metric=Metric.SQUARE)
    with pytest.raises(ParameterError):
        couple_torus_to_square(p)


def test_gaussian_coupling_ratio_always_valid():
    # g(euclid)/g(torus) <= 1 for monotone kernels; must never trip the
    # ratio check
    for t in range(50):
        p = _params(400.0, 0.5, model=GAUSS, trial=t, seed=31)
        c = couple_torus_to_square(p)
        assert len(c.square_edges) <= len(c.torus_edges)


# --- truncation bias and persistence ---


def test_truncation_bias_gaussian_closed_form():
    rho, b = 2000.0, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    want = 0.5 * rho * rho * r * r * math.pi * math.exp(-GAUSS.cutoff**2)
    assert truncation_bias(GAUSS, rho, b) == pytest.approx(want, rel=1e-6)
    assert truncation_bias(UD, rho, b) == 0.0


def test_write_edge_list_round_trip():
    p = _params(200.0, 0.0, seed=21)
    s = build_graph(p, sample_points(p))
    buf = io.StringIO()
    write_edge_list(s, buf)
    lines = buf.getvalue().splitlines()
    head = lines[0].split()
    assert head[0] == str(s.n_points)
    assert head[3] == "unit_disk" and head[4] == "torus"
    body = [ln.split() for ln in lines[1:]]
    assert len(body) == s.n_edges
    from rcmsim.geometry import Point2, distance
    for i_s, j_s, d_s in body[:50]:
        i, j = int(i_s), int(j_s)
        d = distance(p.metric, Point2(*s.points[i]), Point2(*s.points[j]))
        assert float(d_s) == pytest.approx(d, rel=1e-15)
