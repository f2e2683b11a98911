"""Sampling Poisson networks on the unit cell.

A trial is: draw N ~ Poisson(rho), drop N uniform points on the unit
square, then connect each unordered pair (i, j) independently with
probability g(d_ij / r) where d_ij is the metric distance and
r = connection_radius(C, rho, b).  All randomness is counter-based
(see streams), so a trial is fully determined by
(master_seed, trial_index) and is independent of evaluation order.

Pair enumeration uses a bucket grid with cell size >= r * cutoff and a
3x3 neighborhood scan (wrapping on the torus), which is exhaustive
because the truncated kernel vanishes beyond r * cutoff.  When fewer than
three cells fit on a side the grid is a single cell, whose same-cell
triangle lists every pair; there is no separate O(n^2) path.  Candidate
pairs are realized in slices of fixed size, so memory stays bounded for
any density and kernel support.
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
# source's run); smaller slices cost no measurable time, and at 2^20 a
# Gaussian trial at rho 2000 still fit in one slice of about 66 MB
_SLICE_PAIRS = 1 << 16

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


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
        r = _models.connection_radius(self.model.C, self.rho, self.b)
        if self.metric is Metric.TORUS and r > 0.5:
            raise ParameterError(
                f"connection range {r:.4g} exceeds half the torus period"
            )
        object.__setattr__(self, "r", r)


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
    """Torus graph and its thinned square companion on the same points.

    square_edges is a subset of torus_edges; removed_edges is the exact
    difference.  Isolation counts therefore satisfy
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

    `exact` forces the 1x1 grid, so every pair is a candidate.  A finer
    grid requires r * cutoff <= 1/2; on the square metric `exact=True`
    lifts that restriction, on the torus larger ranges are rejected
    outright.  Every grid produces the same edge set because each pair's
    uniform depends only on (master_seed, trial_index, tag, i, j).
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ParameterError(f"points must have shape (n, 2), got {points.shape}")
    if points.size and (points.min() < LO or points.max() >= -LO):
        raise ParameterError("points outside the unit cell")
    reach = params.r * params.model.cutoff
    if reach > 0.5:
        if params.metric is Metric.TORUS:
            raise ParameterError(
                f"r * cutoff = {reach:.4g} exceeds half the torus period; "
                "reduce the range or use the square metric with exact=True"
            )
        if not exact:
            raise ParameterError(
                f"r * cutoff = {reach:.4g} too large for the bucket grid; "
                "pass exact=True for the O(n^2) scan"
            )
    key = streams.stream_key(params.master_seed, params.trial_index,
                             streams.TAG_EDGES)
    m = 1 if exact else _grid_side(reach, points.shape[0])
    return NetworkSample(params, points, _grid_edges(params, points, key, m))


def thin_edges(sample: NetworkSample, keep_ratio, stream_tag: int) -> NetworkSample:
    """Independently keep each edge with probability keep_ratio(a, b).

    keep_ratio receives the two (m, 2) endpoint coordinate blocks and
    returns per-edge probabilities in [0, 1]; values outside the range
    (beyond float slack) are a model error.  keep_ratio identically 1
    returns the identical edge set.  Thinning randomness is the stream
    (master_seed, trial_index, stream_tag, i, j), independent of the
    stream that realized the edges.
    """
    if stream_tag in (streams.TAG_POINT_COUNT, streams.TAG_POINT_COORDS,
                      streams.TAG_EDGES):
        raise ParameterError(f"stream tag {stream_tag} is reserved by the sampler")
    edges = sample.edges
    if edges.shape[0] == 0:
        return NetworkSample(sample.params, sample.points, edges.copy())
    pa = sample.points[edges[:, 0]]
    pb = sample.points[edges[:, 1]]
    ratio = np.asarray(keep_ratio(pa, pb), dtype=np.float64)
    if ratio.shape != (edges.shape[0],):
        raise ModelError(
            f"keep_ratio returned shape {ratio.shape}, expected ({edges.shape[0]},)"
        )
    if np.any(ratio < -1e-12) or np.any(ratio > 1.0 + 1e-12):
        raise ModelError("keep probability outside [0, 1]")
    ratio = np.clip(ratio, 0.0, 1.0)
    key = streams.stream_key(sample.params.master_seed,
                             sample.params.trial_index, stream_tag)
    u = streams.pair_uniform_array(key, edges[:, 0], edges[:, 1])
    return NetworkSample(sample.params, sample.points, edges[u < ratio])


def couple_torus_to_square(params: SampleParams) -> CoupledSample:
    """One trial under the shared-randomness boundary coupling.

    Build the torus graph, then keep each edge with probability
    g(d_euclid / r) / g(d_torus / r).  The surviving graph is distributed
    exactly as a direct square-metric trial on the same points, and it is
    a subgraph of the torus graph, so newly isolated nodes are a
    nonnegative per-trial boundary effect.  For the unit-disk kernel the
    square graph is exactly the pairs with Euclidean distance <= r.
    """
    if params.metric is not Metric.TORUS:
        raise ParameterError("coupling starts from a torus-metric SampleParams")
    points = sample_points(params)
    torus = build_graph(params, points)
    model, r = params.model, params.r

    def ratio(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        d_t = distance_arrays(Metric.TORUS, pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
        d_e = distance_arrays(Metric.SQUARE, pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
        g_t = model.g(d_t / r)
        g_e = model.g(d_e / r)
        # realized torus edges always have g_t > 0
        return np.divide(g_e, g_t, out=np.zeros_like(g_e), where=g_t > 0.0)

    square = thin_edges(torus, ratio, streams.TAG_COUPLING)
    removed = _edge_difference(torus.edges, square.edges, torus.n_points)
    return CoupledSample(params, points, torus.edges, square.edges, removed)


def truncation_bias(model: _models.ConnectionModel, rho: float, b: float) -> float:
    """Expected number of edges per trial lost to the kernel cutoff.

    (rho^2 r^2 / 2) * int_cutoff^inf 2 pi x g_raw(x) dx; zero for kernels
    whose truncation is definitional (unit disk, tables).
    """
    r = _models.connection_radius(model.C, rho, b)
    return 0.5 * rho * rho * r * r * _models.tail_integral(model)


def write_edge_list(sample: NetworkSample, fileobj) -> None:
    """Dump `i j d` lines after a `n_points rho b model metric seed trial`
    header; distances follow the sample's metric, floats at 17 digits."""
    if hasattr(fileobj, "write"):
        _write_edge_list(sample, fileobj)
    else:
        with open(fileobj, "w", encoding="utf-8", newline="\n") as fh:
            _write_edge_list(sample, fh)


def _write_edge_list(sample: NetworkSample, fh) -> None:
    p = sample.params
    fh.write(
        f"{sample.n_points} {p.rho:.17g} {p.b:.17g} {p.model.kind} "
        f"{p.metric.value} {p.master_seed} {p.trial_index}\n"
    )
    if sample.n_edges:
        pa = sample.points[sample.edges[:, 0]]
        pb = sample.points[sample.edges[:, 1]]
        d = distance_arrays(p.metric, pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
        for (i, j), dist in zip(sample.edges, d):
            fh.write(f"{i} {j} {dist:.17g}\n")


# ---------------------------------------------------------------------------
# internals


def _grid_side(reach: float, n: int) -> int:
    # more cells than points buys nothing; below three cells a side the
    # wrapped half neighborhood would visit a cell twice, so use one cell
    m = min(int(1.0 / reach), 2 * math.isqrt(n) + 1, 4096)
    return m if m >= 3 else 1


def _realize_edges(params: SampleParams, points: np.ndarray, key: int,
                   cand_i: np.ndarray, cand_j: np.ndarray):
    """Distance-filter candidate pairs and flip their connection coins;
    returns the connected pairs as (lo, hi) index arrays."""
    lo = np.minimum(cand_i, cand_j)
    hi = np.maximum(cand_i, cand_j)
    d = distance_arrays(params.metric,
                        points[lo, 0], points[lo, 1],
                        points[hi, 0], points[hi, 1])
    near = d <= params.r * params.model.cutoff
    lo, hi, d = lo[near], hi[near], d[near]
    connected = streams.pair_uniform_array(key, lo, hi) < params.model.g(d / params.r)
    return lo[connected], hi[connected]


def _grid_edges(params: SampleParams, points: np.ndarray, key: int,
                m: int) -> np.ndarray:
    """Edges over an m x m bucket grid, sorted lexicographically.

    Every candidate run is (source point, first sorted position, count):
    the source pairs with the next `count` points in cell order.  Same-cell
    runs are the tails of each cell; cross-cell runs cover the half
    neighborhood, which m >= 3 keeps free of repeated cells.
    """
    n = points.shape[0]
    cx = np.clip(((points[:, 0] - LO) * m).astype(np.int64), 0, m - 1)
    cy = np.clip(((points[:, 1] - LO) * m).astype(np.int64), 0, m - 1)
    cell = cx * m + cy
    order = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[order], np.arange(m * m + 1))

    pos = np.arange(n)
    src = [order]
    first = [pos + 1]
    count = [starts[cell[order] + 1] - pos - 1]
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
    lo, hi = _expand_runs(params, points, key, order, np.concatenate(src),
                          np.concatenate(first), np.concatenate(count))
    by_pair = np.lexsort((hi, lo))
    return np.column_stack((lo[by_pair], hi[by_pair]))


def _expand_runs(params: SampleParams, points: np.ndarray, key: int,
                 order: np.ndarray, src: np.ndarray, first: np.ndarray,
                 count: np.ndarray):
    """Realize the pairs (src[k], order[first[k] + t]) for t < count[k],
    about _SLICE_PAIRS candidates at a time; returns (lo, hi) arrays."""
    offs = np.concatenate(([0], np.cumsum(count)))
    cuts = np.searchsorted(offs, np.arange(_SLICE_PAIRS, offs[-1], _SLICE_PAIRS))
    bounds = np.concatenate(([0], cuts, [count.size]))
    lo_parts = []
    hi_parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        runs = count[a:b]
        cand_i = np.repeat(src[a:b], runs)
        cand_j = order[np.repeat(first[a:b] - offs[a:b], runs)
                       + np.arange(offs[a], offs[b])]
        lo, hi = _realize_edges(params, points, key, cand_i, cand_j)
        lo_parts.append(lo)
        hi_parts.append(hi)
    return np.concatenate(lo_parts), np.concatenate(hi_parts)


def _edge_difference(superset: np.ndarray, subset: np.ndarray, n: int) -> np.ndarray:
    if superset.shape[0] == 0:
        return _EMPTY_EDGES.copy()
    span = max(n, 1)
    keys_sup = superset[:, 0].astype(np.int64) * span + superset[:, 1]
    keys_sub = subset[:, 0].astype(np.int64) * span + subset[:, 1]
    keep = ~np.isin(keys_sup, keys_sub)
    return np.ascontiguousarray(superset[keep])
