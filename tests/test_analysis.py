"""Degree statistics, component counting, and trial records."""

import numpy as np
import pytest

from rcmsim.analysis import (TrialRecord, components, coupled_statistics,
                             isolated_count, trial_statistics)
from rcmsim.geometry import Metric
from rcmsim.models import unit_disk
from rcmsim.sampler import (NetworkSample, SampleParams, build_graph,
                            couple_torus_to_square, sample_points)
from oracles import bfs_components

UD = unit_disk()


def _sample(rho=200.0, seed=17, trial=0, metric=Metric.TORUS):
    p = SampleParams(rho, 0.0, UD, metric, seed, trial)
    return build_graph(p, sample_points(p))


def _fabricate(n, edges):
    # hand-built sample for exact component cases
    p = SampleParams(50.0, 0.0, UD, Metric.TORUS, 1, 0)
    rng = np.random.default_rng(5)
    pts = rng.random((n, 2)) - 0.5
    e = np.array(sorted(map(tuple, edges)), dtype=np.int64).reshape(-1, 2)
    return NetworkSample(p, pts, e)


def test_components_against_bfs_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 3 * n))
        if m and n >= 2:
            i = rng.integers(0, n - 1, size=m)
            j = rng.integers(1, n, size=m)
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            keep = lo < hi
            pairs = {(int(a), int(b)) for a, b in zip(lo[keep], hi[keep])}
        else:
            pairs = set()
        s = _fabricate(n, pairs)
        got = components(s)
        want = bfs_components(n, sorted(pairs))
        assert got == want


def test_components_edge_cases():
    empty = _fabricate(0, set())
    assert components(empty) == (0, True)
    single = _fabricate(1, set())
    assert components(single) == (1, True)
    pair = _fabricate(2, {(0, 1)})
    assert components(pair) == (1, True)
    split = _fabricate(2, set())
    assert components(split) == (2, False)


def test_isolated_count_examples():
    s = _fabricate(4, {(0, 1)})
    assert isolated_count(s) == 2
    assert isolated_count(_fabricate(3, set())) == 3


def test_components_vs_bfs_on_simulated_graphs():
    for trial in range(20):
        s = _sample(trial=trial)
        got = components(s)
        want = bfs_components(s.n_points, s.edges.tolist())
        assert got == want


def test_trial_statistics_fields():
    s = _sample(trial=3)
    rec = trial_statistics(s)
    assert rec.rho == 200.0 and rec.b == 0.0
    assert rec.metric == "torus"
    assert rec.trial == 3
    assert rec.n_points == s.n_points
    assert rec.n_edges == s.n_edges
    assert rec.isolated == isolated_count(s)
    assert (rec.n_components, rec.connected) == components(s)
    assert rec.mean_degree == pytest.approx(2.0 * s.n_edges / s.n_points)
    assert rec.isolated_torus is None
    assert rec.isolated_square is None
    assert rec.isolated_boundary is None


def test_trial_statistics_empty_graph():
    p = SampleParams(100.0, 0.0, UD, Metric.TORUS, 1, 0)
    s = build_graph(p, np.empty((0, 2)))
    rec = trial_statistics(s)
    assert rec.n_points == 0
    assert rec.mean_degree == 0.0
    assert rec.connected is True


def test_coupled_statistics_split():
    for trial in range(25):
        p = SampleParams(250.0, 0.0, UD, Metric.TORUS, 61, trial)
        c = couple_torus_to_square(p)
        rec = coupled_statistics(c)
        assert rec.metric == "coupled"
        # base fields describe the square graph
        sq = c.square_sample()
        assert rec.isolated == rec.isolated_square == isolated_count(sq)
        assert rec.n_edges == sq.n_edges
        assert rec.isolated_torus == isolated_count(c.torus_sample())
        assert rec.isolated_boundary == rec.isolated_square - rec.isolated_torus
        assert rec.isolated_boundary >= 0
        # isolation only ever appears when moving to the square metric
        deg_t = c.torus_sample().degrees()
        deg_s = sq.degrees()
        assert np.all(deg_s <= deg_t)


def test_trial_record_is_plain_data():
    rec = TrialRecord(rho=1.0, b=0.0, metric="torus", trial=0, n_points=2,
                      n_edges=1, isolated=0, n_components=1, connected=True,
                      mean_degree=1.0)
    assert rec.isolated_torus is None
