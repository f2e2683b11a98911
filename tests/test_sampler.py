"""Point sampling, edge realization, determinism, and the metric coupling."""

import math
import tracemalloc

import numpy as np
import pytest

from rcmsim import sampler, streams
from rcmsim.errors import ModelError, ParameterError
from rcmsim.geometry import Metric, distance_arrays
from rcmsim.models import (connection_radius, gaussian, log_normal, table_model,
                           unit_disk)
from rcmsim.sampler import (SampleParams, build_graph, couple_torus_to_square,
                            sample_points, truncation_bias)
from oracles import brute_force_edges

UD = unit_disk()
GAUSS = gaussian()
# g is 1 out to 0.5, inside a support of 2: its first coin bins need no coin
PLATEAU = table_model([(0.0, 1.0), (0.5, 1.0), (1.0, 0.4), (2.0, 0.0)])
BRUTE_FORCE_MODELS = [UD, GAUSS, log_normal(6.0, 3.0),
                      table_model([(0.0, 1.0), (0.5, 0.7), (1.5, 0.1), (2.5, 0.0)]), PLATEAU]


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
    # r * cutoff = 0.56: one support rule on both metrics
    for metric in Metric:
        with pytest.raises(ParameterError, match="exceeds 1/2"):
            _params(1.2, 1.0, metric=metric)


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
    models = BRUTE_FORCE_MODELS
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
        pts = sample_points(p)
        if pts.shape[0] > 300:
            continue
        got = build_graph(p, pts).edges
        want = brute_force_edges(p, pts)
        assert np.array_equal(got, want), f"case {case} {model.kind} {metric}"


@pytest.mark.parametrize("metric", [Metric.TORUS, Metric.SQUARE])
def test_pairs_at_the_range_boundary_match_all_pairs(metric):
    # unit disk: g = 1 in range, so the edges are exactly the pairs with
    # d <= r.  Pairs within a few ulps of r, a third of them next to the
    # seam (across it on the torus), catch a distance prefilter that drops
    # a pair in range; the all-pairs rule shares no code with the grid
    p = _params(2000.0, 0.0, metric=metric, seed=5)
    rng = np.random.default_rng(17)
    k = np.tile(np.arange(-4, 5), 50)
    sep = p.r * (1.0 + k * 2.0**-52)
    angle = rng.uniform(0.0, 2.0 * math.pi, k.size)
    a = rng.uniform(-0.5, 0.5, (k.size, 2))
    a[::3] = 0.5 - rng.uniform(0.0, p.r, (len(a[::3]), 2))
    b = a + sep[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))
    pts = np.concatenate([a, (b + 0.5) % 1.0 - 0.5])
    i, j = np.triu_indices(len(pts), 1)
    d = distance_arrays(metric, pts[i, 0], pts[i, 1], pts[j, 0], pts[j, 1])
    want = np.column_stack((i, j))[d <= p.r]
    assert np.array_equal(build_graph(p, pts).edges, want)


def test_exact_scan_matches_grid():
    p = _params(400.0, 0.5, metric=Metric.SQUARE, model=GAUSS, seed=4)
    pts = sample_points(p)
    a = build_graph(p, pts).edges
    b = sampler._grid_edges(p, pts, np.array([0, pts.shape[0]]), 1)
    assert np.array_equal(a, b)


def test_exact_scan_matches_grid_across_slices():
    # n > 4096: the 1x1 grid's candidate triangle spans many slices
    p = _params(6000.0, 0.0, metric=Metric.SQUARE, seed=8)
    pts = sample_points(p)
    n = pts.shape[0]
    assert n > 4096 and n * (n - 1) // 2 > 8 * sampler._SLICE_PAIRS
    grid = build_graph(p, pts).edges
    exact = sampler._grid_edges(p, pts, np.array([0, n]), 1)
    assert np.array_equal(grid, exact)
    assert exact.dtype == np.int32 and exact.flags.c_contiguous


@pytest.mark.parametrize("metric", [Metric.TORUS, Metric.SQUARE])
def test_wide_scan_matches_brute_force(metric):
    # cells of about 8 points and a reach of 0.3 put the scan 3 columns
    # out, and its rows past the torus seam
    p = _params(400.0, -1.9, metric=metric, model=GAUSS, seed=21)
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, (400, 2))
    reach = p.r * GAUSS.cutoff
    assert int(sampler._span(reach, sampler._grid_side(reach, 400, metric is Metric.TORUS))) + 1 >= 3
    assert np.array_equal(build_graph(p, pts).edges, brute_force_edges(p, pts))


@pytest.mark.parametrize("metric", [Metric.TORUS, Metric.SQUARE])
def test_cell_order_past_16_bit_cell_ids(metric):
    # a 300 x 300 grid numbers its cells past 2^16 while each cell
    # coordinate fits 16 bits; real trials reach m > 256 only above rho 3e5
    p = _params(2000.0, 0.0, metric=metric, seed=12)
    pts = sample_points(p)
    offsets = np.array([0, pts.shape[0]])
    assert np.array_equal(sampler._grid_edges(p, pts, offsets, 300),
                          sampler._grid_edges(p, pts, offsets, 1))


@pytest.mark.parametrize("model", [UD, GAUSS], ids=["unit_disk", "gaussian"])
def test_pair_coins_drawn(model, monkeypatch):
    # the unit disk's pairs in range are edges without a coin, but for the
    # last bins that reach past r; the Gaussian draws one per pair in range.
    # A coin is the second round of its hash; build_graph mixes one word
    # per point for the first round and one per coin for the second
    drawn = []
    mix = streams._mix64_inplace

    def counting(z, tmp=None):
        drawn.append(np.size(z))
        return mix(z, tmp)

    p = _params(2000.0, 0.0, model=model, seed=14)
    pts = sample_points(p)
    monkeypatch.setattr(streams, "_mix64_inplace", counting)
    n_edges = build_graph(p, pts).n_edges
    coins = sum(drawn) - pts.shape[0]
    if model is UD:
        assert coins <= 0.01 * n_edges
    else:
        assert coins >= n_edges


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


def test_single_coin_bin_matches_default(monkeypatch):
    # one coin bin reaches past the range, so every pair in the prefilter
    # takes the exact test; the bracketed coin must give the same edges
    cases = []
    for k, (model, metric) in enumerate([(m, metric) for m in (UD, GAUSS, log_normal(4.0, 3.0))
                                         for metric in (Metric.TORUS, Metric.SQUARE)]):
        p = _params(800.0, 0.5, metric=metric, model=model, seed=80 + k)
        pts = sample_points(p)
        cases.append((p, pts, build_graph(p, pts).edges))
    monkeypatch.setattr(sampler, "_COIN_BINS", 1)
    for p, pts, want in cases:
        assert np.array_equal(build_graph(p, pts).edges, want), (p.model.kind, p.metric)


def _creeping_table():
    # rises 0.9e-12 per knot, within what validate_model admits
    knots = [(0.002 * t, 0.5 + 0.9e-12 * t) for t in range(40)]
    return table_model(knots + [(1.0, 0.3), (2.0, 0.0)])


@pytest.mark.parametrize("model", [
    UD, GAUSS, gaussian(cutoff_eps=0.1), log_normal(4.0, 3.0),
    table_model([(0.0, 1.0), (1.0, 0.6), (2.0, 0.0)]), _creeping_table(), PLATEAU],
    ids=["unit_disk", "gaussian", "gaussian_eps01", "log_normal", "table3", "creeping",
         "plateau"])
def test_coin_brackets_hold_in_every_bin(model):
    assert model.validation.ok
    p = _params(2000.0, 0.0, model=model)
    reach = p.r * model.cutoff
    bound, scale, lo, hi = sampler._coin_brackets(model, p.r, sampler._COIN_BINS)
    assert bound == reach * reach * (1.0 + 1e-9)
    rng = np.random.default_rng(3)
    # random separations in every bin, and the bin edges with their neighbours
    k = np.repeat(np.arange(sampler._COIN_BINS), 64)
    q = np.concatenate(((k + rng.uniform(0.0, 1.0, k.size)) / scale,
                        np.arange(sampler._COIN_BINS + 1) / scale))
    q = np.concatenate((q, np.nextafter(q, 0.0), np.nextafter(q, 1.0), [bound]))
    angle = rng.uniform(0.0, 2.0 * math.pi, q.size)
    dx, dy = np.sqrt(q) * np.cos(angle), np.sqrt(q) * np.sin(angle)
    q = dx * dx + dy * dy
    keep = q <= bound
    dx, dy, q = dx[keep], dy[keep], q[keep]
    b = (q * scale).astype(np.intp)
    d = np.hypot(dx, dy)
    gd = model.g(d / p.r)
    assert np.all(gd <= hi[b])
    assert np.all((lo[b] <= gd) & ((lo[b] < 0.0) | (d <= reach)))
    # the bracket is tight: the exact test is left to about 0.1% of pairs
    assert np.mean(hi[b] - np.maximum(lo[b], 0.0)) < 2e-3
    # bins with lo = 1 settle their pairs as edges without a coin: only
    # where g is exactly 1 across the bin
    free = lo[b] >= 1.0
    assert free.any() == (model in (UD, PLATEAU))
    assert np.all(gd[free] == 1.0)


@pytest.mark.parametrize("model", BRUTE_FORCE_MODELS,
                         ids=["unit_disk", "gaussian", "log_normal", "table4", "plateau"])
def test_coin_words_decide_as_the_uniform(model):
    # the coin u = w 2^-53 of the hash word w = h >> 11 is decided on w
    # against ceil(x 2^53): at the words next to each bin's threshold the
    # integer test must agree with the uniform's
    r = connection_radius(model.C, 2000.0, 0.0)
    lo, hi = sampler._coin_brackets(model, r, sampler._COIN_BINS)[2:]
    lo_word, hi_word = sampler._coin_words(model, r, sampler._COIN_BINS)
    assert np.all(lo <= hi)
    # bins past the range (lo = -1), and where g is 1 across the bin
    # (lo = 1, hi > 1): thresholds outside the words 0 .. 2^53 - 1
    assert (lo == -1.0).any()
    if model in (UD, PLATEAU):
        assert (lo == 1.0).any() and (hi > 1.0).any()
    for x, t in ((lo, lo_word), (hi, hi_word)):
        w = np.clip(t[:, None] + np.arange(-1, 2), 0, 2**53 - 1)
        for low in (0, 0x7FF):
            h = (w.astype(np.uint64) << np.uint64(11)) | np.uint64(low)
            assert np.array_equal(w < t[:, None], streams.unit_array(h) < x[:, None])


def test_build_graph_memory_is_bounded():
    # the Gaussian at rho 2e4 has about 4e6 candidate pairs, and the wide
    # table at rho 5000 about 3e6 over 8 columns of cells; both are
    # realized a column and a slice at a time, never held at once
    wide = table_model([(0.0, 1.0), (0.5, 0.008), (80.0, 0.008), (80.01, 0.0)])
    for model, rho, limit in ((GAUSS, 2e4, 6.6e6), (wide, 5000.0, 3.3e6)):
        p = _params(rho, 0.0, model=model, seed=3)
        pts = sample_points(p)
        tracemalloc.start()
        try:
            build_graph(p, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (model.kind, peak)


def test_stack_memory_stays_near_the_edge_list():
    # one unit-disk torus trial at rho 2e5: each stage's traced peak over
    # what was allocated before it.  Edges are int32 pairs, 8 bytes; the
    # bounds are per edge, against the 16 bytes of an int64 pair.  The keys
    # take 8 bytes per edge, the points' cell order and coordinates about 40
    # per point; the components call holds scipy's CSR and its transpose
    import scipy.sparse.csgraph  # noqa: F401  its first import is no stage's

    from rcmsim.analysis import stack_records

    def traced(stage, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = stage(*args)
        return out, tracemalloc.get_traced_memory()[1] - before

    p = _params(2e5, 0.0, seed=3)
    tracemalloc.start()
    try:
        (pts, offsets), points_peak = traced(sampler.stack_points, p, 1)
        edges, edges_peak = traced(sampler.stack_edges, p, pts, offsets)
        records_peak = traced(stack_records, p, offsets, edges)[1]
    finally:
        tracemalloc.stop()
    pair = 16 * edges.shape[0]
    assert edges.shape[0] > 1_000_000
    assert points_peak <= 3.0 * pts.nbytes, points_peak / pts.nbytes
    assert edges_peak <= 1.25 * pair, edges_peak / pair
    assert records_peak <= 1.78 * pair, records_peak / pair


def test_stack_edges_rejects_rows_past_int32():
    # a zero-stride array stands for 2^31 + 1 points without their memory
    n = 2**31 + 1
    with pytest.raises(ParameterError, match="2\\^31"):
        sampler.stack_edges(_params(100.0, 0.0), np.broadcast_to([0.0, 0.0], (n, 2)),
                            np.array([0, n]))


def test_edge_probability_frequency():
    # one pair at fixed separation: empirical connection rate ~ g(d / r)
    p0 = _params(300.0, 0.0, model=GAUSS)
    d = 1.3 * p0.r
    pts = np.array([[-d / 2.0, 0.0], [d / 2.0, 0.0]])
    want = float(GAUSS.g(1.3))
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
    deg = np.bincount(s.edges.ravel(), minlength=s.n_points)
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
    # NaN fails every comparison: the check must ask that points are inside
    for pt in ([[math.nan, 0.0]], [[0.0, math.nan]], [[math.inf, 0.0]], [[0.0, -math.inf]]):
        with pytest.raises(ParameterError, match="outside the unit cell"):
            build_graph(p, np.array([[0.0, 0.0], [0.001, 0.0]] + pt))


# --- coupling ---


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
    # the torus graph less its seam edges must be distributed like a
    # square-metric build; compare expected isolated counts over trials
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
        iso_direct += int((np.bincount(s.edges.ravel(), minlength=s.n_points) == 0).sum())
    # both estimate the same mean; allow 5 sigma of the difference
    lam = iso_coupled / n_trials
    se = math.sqrt(2.0 * max(lam, 1.0) / n_trials)
    assert abs(iso_coupled - iso_direct) / n_trials < 5.0 * se


def test_coupling_requires_torus_params():
    p = _params(200.0, 0.0, metric=Metric.SQUARE)
    with pytest.raises(ParameterError):
        couple_torus_to_square(p)


def test_coupled_square_edges_equal_direct_square_build():
    # the torus graph less its wrapping edges is, edge for edge, the direct
    # square-metric graph on the same seed, trial and points: a wrapping
    # edge is at least 1 - r * cutoff >= 1/2 long on the square, and a
    # kept edge is equally long in both metrics.  A cell whose support does
    # not fit the torus at b = 0 takes the b that sets r * cutoff to 0.45
    table3 = table_model([(0.0, 1.0), (1.0, 0.6), (2.0, 0.0)])
    for model in (UD, GAUSS, gaussian(cutoff_eps=0.1), table3):
        for rho in (5.0, 40.0, 400.0, 2000.0):
            b = min(0.0, (0.45 / model.cutoff) ** 2 * model.C * rho - math.log(rho))
            r = connection_radius(model.C, rho, b)
            for trial in range(3):
                p = _params(rho, b, model=model, trial=trial, seed=31)
                c = couple_torus_to_square(p)
                sq = SampleParams(rho, b, model, Metric.SQUARE, 31, trial)
                assert np.array_equal(c.square_edges,
                                      build_graph(sq, c.points).edges), (model, rho)
                for edges, wraps in ((c.square_edges, False), (c.removed_edges, True)):
                    pa, pb = c.points[edges[:, 0]], c.points[edges[:, 1]]
                    args = (pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
                    d_sq = distance_arrays(Metric.SQUARE, *args)
                    if wraps:
                        assert np.all(d_sq >= 1.0 - r * model.cutoff)
                    else:
                        assert np.array_equal(d_sq, distance_arrays(Metric.TORUS, *args))


@pytest.mark.parametrize("model", [
    UD, gaussian(cutoff_eps=0.1), table_model([(0.0, 1.0), (1.0, 0.6), (2.0, 0.0)])],
    ids=["unit_disk", "gaussian_eps01", "table3"])
def test_coupled_split_edge_by_edge(model):
    # stack_coupled_edges' square edges are, edge for edge, stack_edges on
    # the square metric over the same stacked points, and its seam edges at
    # lone nodes are exactly the torus edges there, every one folding.
    # r * cutoff = 0.45 at rho 5 and 40 puts 12 trials on the one-cell
    # grid, whose square edges come from its seam runs unfolded; rho 400
    # at b = 0 takes an m > 1 grid
    seen = 0
    for rho, one_cell in ((5.0, True), (40.0, True), (400.0, False)):
        b = (0.45 / model.cutoff) ** 2 * model.C * rho - math.log(rho) if one_cell else 0.0
        p = _params(rho, b, model=model, seed=31)
        pts, offsets = sampler.stack_points(p, 12)
        assert (sampler._stack_side(p, pts, offsets) == 1) == one_cell
        square, seam, mask = sampler.stack_coupled_edges(p, pts, offsets)
        direct = sampler.stack_edges(_params(rho, b, Metric.SQUARE, model, 31), pts, offsets)
        assert np.array_equal(square, direct), (rho, model)
        lone = np.bincount(square.ravel(), minlength=pts.shape[0]) == 0
        assert np.array_equal(mask, lone), (rho, model)
        torus = sampler.stack_edges(p, pts, offsets)
        at_lone = [e[lone[e[:, 0]] | lone[e[:, 1]]] for e in (seam, torus)]
        assert np.array_equal(*at_lone), (rho, model)
        folds = np.rint(pts[at_lone[0][:, 0]] - pts[at_lone[0][:, 1]]) != 0.0
        assert folds.any(axis=1).all(), (rho, model)
        seen += at_lone[0].shape[0]
    assert seen > 0


# --- truncation bias ---


def test_truncation_bias_gaussian_closed_form():
    rho, b = 2000.0, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    want = 0.5 * rho * rho * r * r * math.pi * math.exp(-GAUSS.cutoff**2)
    assert truncation_bias(GAUSS, rho, b) == pytest.approx(want, rel=1e-6)
    assert truncation_bias(UD, rho, b) == 0.0

