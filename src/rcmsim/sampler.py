"""Sampling Poisson networks on the unit cell.

A trial is: draw N ~ Poisson(rho), drop N uniform points on the unit
square, then connect each unordered pair (i, j) independently with
probability g(d_ij / r) where d_ij is the metric distance and
r = connection_radius(C, rho, b).  All randomness is counter-based
(see streams), so a trial is fully determined by
(master_seed, trial_index) and is independent of evaluation order.
`SampleParams` refuses a scaled support r * cutoff above 1/2 on either
metric, the rule the theory keeps too.

Pair enumeration uses a bucket grid with cell size >= r * cutoff and a
3x3 neighborhood scan (wrapping on the torus), which is exhaustive
because the truncated kernel vanishes beyond r * cutoff.  When fewer than
three cells fit on a side the grid is a single cell, whose same-cell
triangle lists every pair; there is no separate O(n^2) path.  Candidate
pairs are realized in cell order and in slices of fixed size, so memory
stays bounded for any density and kernel support.  A squared-distance
filter with slack passes a superset of the pairs in range to the exact
hypot test, the coin and g; edges are sorted by the int64 key i * n + j.
The coupled metric draws nothing of its own: its square graph is the
torus graph less the wrapping edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models as _models
from . import streams
from .errors import ModelError, ParameterError
from .geometry import LO, Metric, distance_arrays

# half of the 3x3 neighborhood: together with the same-cell triangle this
# visits every unordered cell pair exactly once
_HALF_OFFSETS = ((1, 0), (0, 1), (1, 1), (1, -1))

# candidate pairs realized at once (a slice overshoots by at most one
# source's run); the scratch memory grows with it, about 4.5 MB traced at
# 2^15 and 7.8 MB at 2^16 on a Gaussian trial at rho 2000; 2^16 is no faster
_SLICE_PAIRS = 1 << 15

@dataclass(frozen=True)
class SampleParams:
    """Everything that pins down one simulated trial."""

    rho: float
    b: float
    model: _models.ConnectionModel
    metric: Metric
    master_seed: int
    trial_index: int
    r: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.metric, Metric):
            raise ParameterError(f"metric must be a Metric, got {self.metric!r}")
        if self.trial_index < 0:
            raise ParameterError("trial_index must be >= 0")
        if not self.model.validation.ok:
            raise ModelError(
                f"model failed validation: {self.model.validation}"
            )
        object.__setattr__(self, "r", _models.support_radius(self.model, self.rho, self.b))


@dataclass(frozen=True)
class NetworkSample:
    """One realized graph.

    points is an (n, 2) float array of unit-cell coordinates (row i is
    point i); edges is an (m, 2) int array with i < j, sorted
    lexicographically, so equal graphs compare equal.
    """

    params: SampleParams
    points: np.ndarray
    edges: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_points)


@dataclass(frozen=True)
class CoupledSample:
    """Torus graph and its square companion on the same points.

    square_edges is the torus graph less its wrapping edges, which are
    removed_edges.  Isolation counts therefore satisfy
    isolated(square) = isolated(torus) + newly isolated near the boundary.
    """

    params: SampleParams
    points: np.ndarray
    torus_edges: np.ndarray
    square_edges: np.ndarray
    removed_edges: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def torus_sample(self) -> NetworkSample:
        return NetworkSample(self.params, self.points, self.torus_edges)

    def square_sample(self) -> NetworkSample:
        return NetworkSample(self.params, self.points, self.square_edges)


def sample_points(params: SampleParams) -> np.ndarray:
    """Poisson(rho) many uniform points on the unit cell, shape (n, 2)."""
    key_n = streams.stream_key(params.master_seed, params.trial_index,
                               streams.TAG_POINT_COUNT)
    n = streams.poisson_sample(params.rho, key_n)
    key_xy = streams.stream_key(params.master_seed, params.trial_index,
                                streams.TAG_POINT_COORDS)
    u = streams.uniform_array(key_xy, np.arange(2 * n, dtype=np.uint64))
    return u.reshape(n, 2) + LO


def build_graph(params: SampleParams, points: np.ndarray,
                exact: bool = False) -> NetworkSample:
    """Realize the connection graph on the given points.

    `exact` forces the 1x1 grid, so every pair is a candidate; a support
    r * cutoff above 1/3 gets that grid anyway.  Every grid produces the
    same edge set because each pair's uniform depends only on
    (master_seed, trial_index, tag, i, j).
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ParameterError(f"points must have shape (n, 2), got {points.shape}")
    if points.size and (points.min() < LO or points.max() >= -LO):
        raise ParameterError("points outside the unit cell")
    key = streams.stream_key(params.master_seed, params.trial_index,
                             streams.TAG_EDGES)
    m = 1 if exact else _grid_side(params.r * params.model.cutoff, points.shape[0])
    return NetworkSample(params, points, _grid_edges(params, points, key, m))


def couple_torus_to_square(params: SampleParams) -> CoupledSample:
    """One trial of the torus graph and its square companion on one point set.

    The square graph is the torus graph less its wrapping edges.  A torus
    edge that wraps is at least 1 - r * cutoff >= 1/2 long on the square,
    beyond the support, and an edge that does not wrap is equally long in
    both metrics and draws the same coin.  So the torus edges within
    r * cutoff in the square metric are exactly the edges of a direct
    square-metric trial on the same seed, trial and points, and newly
    isolated nodes are a nonnegative per-trial boundary effect.
    """
    if params.metric is not Metric.TORUS:
        raise ParameterError("coupling starts from a torus-metric SampleParams")
    points = sample_points(params)
    edges = build_graph(params, points).edges
    pa, pb = points[edges[:, 0]], points[edges[:, 1]]
    keep = (distance_arrays(Metric.SQUARE, pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
            <= params.r * params.model.cutoff)
    return CoupledSample(params, points, edges, edges[keep], edges[~keep])


def truncation_bias(model: _models.ConnectionModel, rho: float, b: float) -> float:
    """Expected number of edges per trial lost to the kernel cutoff.

    (rho^2 r^2 / 2) * C_error, where C_error = int_cutoff^inf 2 pi x
    g_raw(x) dx; zero for kernels whose truncation is definitional (unit
    disk, tables).
    """
    r = _models.connection_radius(model.C, rho, b)
    return 0.5 * rho * rho * r * r * model.C_error


# ---------------------------------------------------------------------------
# internals


def _grid_side(reach: float, n: int) -> int:
    # more cells than points buys nothing; below three cells a side the
    # wrapped half neighborhood would visit a cell twice, so use one cell
    m = min(int(1.0 / reach), 2 * math.isqrt(n) + 1, 4096)
    return m if m >= 3 else 1


def _grid_edges(params: SampleParams, points: np.ndarray, key: int,
                m: int) -> np.ndarray:
    """Edges over an m x m bucket grid, sorted lexicographically.

    Every candidate run is (source position, first position, count) in
    cell order: the source pairs with the next `count` points.  Same-cell
    runs are the tails of each cell; cross-cell runs cover the half
    neighborhood, which m >= 3 keeps free of repeated cells.
    """
    n = points.shape[0]
    cx = np.clip(((points[:, 0] - LO) * m).astype(np.int64), 0, m - 1)
    cy = np.clip(((points[:, 1] - LO) * m).astype(np.int64), 0, m - 1)
    cell = cx * m + cy
    order = np.argsort(cell, kind="stable")
    cx, cy, cell = cx[order], cy[order], cell[order]
    starts = np.searchsorted(cell, np.arange(m * m + 1))

    pos = np.arange(n)
    src = [pos]
    first = [pos + 1]
    count = [starts[cell + 1] - pos - 1]
    for ox, oy in (_HALF_OFFSETS if m > 1 else ()):
        tx = cx + ox
        ty = cy + oy
        if params.metric is Metric.TORUS:
            rows = pos
            tx %= m
            ty %= m
        else:
            rows = np.flatnonzero((tx >= 0) & (tx < m) & (ty >= 0) & (ty < m))
            tx, ty = tx[rows], ty[rows]
        target = tx * m + ty
        src.append(rows)
        first.append(starts[target])
        count.append(starts[target + 1] - starts[target])
    pair = np.sort(_expand_runs(params, points, order, key, np.concatenate(src),
                                np.concatenate(first), np.concatenate(count)))
    return np.column_stack((pair // n, pair % n))


def _expand_runs(params: SampleParams, points: np.ndarray, order: np.ndarray,
                 key: int, src: np.ndarray, first: np.ndarray,
                 count: np.ndarray) -> np.ndarray:
    """Realize the pairs of cell-order positions (src[k], first[k] + t),
    t < count[k], where position p holds point order[p], about
    _SLICE_PAIRS candidates at a time; returns edge keys lo * n + hi.
    The squared distance with slack keeps a superset of the pairs in range
    for the exact test; the torus fold is odd and hypot even in the
    difference, so a pair's distance does not depend on its point order."""
    xs, ys = points[order, 0], points[order, 1]
    torus = params.metric is Metric.TORUS
    r, g = params.r, params.model.g
    reach = r * params.model.cutoff
    bound = reach * reach * (1.0 + 1e-9)
    offs = np.concatenate(([0], np.cumsum(count)))
    cuts = np.searchsorted(offs, np.arange(_SLICE_PAIRS, offs[-1], _SLICE_PAIRS))
    bounds = np.concatenate(([0], cuts, [count.size]))
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        runs = count[a:b]
        pi = np.repeat(src[a:b], runs)
        pj = np.repeat(first[a:b] - offs[a:b], runs) + np.arange(offs[a], offs[b])
        dx = np.repeat(xs[src[a:b]], runs) - xs[pj]
        dy = np.repeat(ys[src[a:b]], runs) - ys[pj]
        if torus:
            dx -= np.round(dx)
            dy -= np.round(dy)
        near = np.flatnonzero(dx * dx + dy * dy <= bound)
        d = np.hypot(dx[near], dy[near])
        inside = d <= reach
        near, d = near[inside], d[inside]
        i, j = order[pi[near]], order[pj[near]]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        connected = streams.pair_uniform_array(key, lo, hi) < g(d / r)
        parts.append(lo[connected] * order.size + hi[connected])
    return np.concatenate(parts)
