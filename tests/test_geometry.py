"""Metric axioms and the torus/square relationship."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmsim.geometry import HI, LO, Metric, distance_arrays
from oracles import scalar_distance as distance

coord = st.floats(min_value=LO, max_value=HI, exclude_max=True,
                  allow_nan=False, allow_infinity=False)


def test_known_values():
    # boundary pair: far apart on the square, adjacent across the seam
    a, b = (0.45, 0.0), (-0.45, 0.0)
    assert distance(Metric.SQUARE, a, b) == pytest.approx(0.9, abs=1e-15)
    assert distance(Metric.TORUS, a, b) == pytest.approx(0.1, abs=1e-15)
    # interior pair: the metrics agree
    c, d = (0.0, 0.0), (0.3, 0.4)
    assert distance(Metric.TORUS, c, d) == pytest.approx(0.5, abs=1e-15)
    assert distance(Metric.SQUARE, c, d) == pytest.approx(0.5, abs=1e-15)
    # opposite corners meet through the diagonal seam
    e, f = (-0.49, -0.49), (0.49, 0.49)
    assert distance(Metric.TORUS, e, f) == pytest.approx(0.02 * math.sqrt(2),
                                                         abs=1e-15)


@given(coord, coord, coord, coord)
@settings(max_examples=300, deadline=None)
def test_metric_axioms(ax, ay, bx, by):
    p, q = (ax, ay), (bx, by)
    for metric in Metric:
        d_pq = distance(metric, p, q)
        assert d_pq >= 0.0
        assert distance(metric, q, p) == d_pq
        assert distance(metric, p, p) == 0.0
    # torus never exceeds the square distance
    assert distance(Metric.TORUS, p, q) <= distance(Metric.SQUARE, p, q) + 1e-15


@given(coord, coord, coord, coord, coord, coord)
@settings(max_examples=300, deadline=None)
def test_triangle_inequality(ax, ay, bx, by, cx, cy):
    p, q, m = (ax, ay), (bx, by), (cx, cy)
    for metric in Metric:
        assert distance(metric, p, q) <= (distance(metric, p, m)
                                          + distance(metric, m, q) + 1e-12)


def test_distance_bounds_random():
    rng = np.random.default_rng(3)
    ax, ay, bx, by = rng.random((4, 100_000)) - 0.5
    d_t = distance_arrays(Metric.TORUS, ax, ay, bx, by)
    d_s = distance_arrays(Metric.SQUARE, ax, ay, bx, by)
    assert np.all(d_t <= d_s + 1e-15)
    assert np.all(d_s < math.sqrt(2.0))
    # half the diagonal of the fundamental cell
    assert np.all(d_t <= math.sqrt(0.5) + 1e-15)


def test_scalar_matches_vector():
    rng = np.random.default_rng(8)
    pts = rng.random((2000, 4)) - 0.5
    for metric in Metric:
        vec = distance_arrays(metric, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        for k in range(0, 2000, 97):
            sc = distance(metric, (pts[k, 0], pts[k, 1]), (pts[k, 2], pts[k, 3]))
            # the nine-translate scan and the per-axis fold may round apart
            assert sc == pytest.approx(vec[k], rel=4e-16, abs=1e-300)


def test_torus_fold_consistency_at_half_cell():
    # both representations of the worst-case separation give exactly 1/2
    a, b = (-0.5, 0.0), (0.0, 0.0)
    assert distance(Metric.TORUS, a, b) == 0.5
    vec = distance_arrays(Metric.TORUS, np.array([-0.5]), np.array([0.0]),
                          np.array([0.0]), np.array([0.0]))
    assert vec[0] == 0.5


def test_distance_arrays_broadcasts_and_preserves_shape():
    ax = np.zeros((3, 5))
    d = distance_arrays(Metric.TORUS, ax, ax, ax + 0.25, ax - 0.25)
    assert d.shape == (3, 5)
    assert np.allclose(d, math.sqrt(2.0) / 4.0)
