"""Sampling Poisson networks on the unit cell.

A trial is: draw N ~ Poisson(rho), drop N uniform points on the unit
square, then connect each unordered pair (i, j) independently with
probability g(d_ij / r) where d_ij is the metric distance and
r = connection_radius(C, rho, b).  All randomness is counter-based
(see streams), so a trial is fully determined by
(master_seed, trial_index) and is independent of evaluation order.
`SampleParams` refuses a scaled support r * cutoff above 1/2 on either
metric, the rule the theory keeps too.

Pair enumeration uses a bucket grid whose cells hold about eight points,
or span about r * cutoff when that is narrower.  Each point scans its own
column of cells and the k columns to its right, and in each column only
the rows that come within r * cutoff of it (wrapping on the torus).  That
is exhaustive because the truncated kernel vanishes beyond r * cutoff.
When the torus cannot fit 2k + 1 columns the grid is a single cell, whose
triangle lists every pair; there is no separate O(n^2) path.  Points are
put in cell order by two stable radix passes on 16-bit cell coordinates,
and each cell's start is a running count of the points before it.
Candidate pairs are realized in cell order, for blocks of sources and in
slices of fixed size, so the scratch memory stays bounded for any density
and kernel support.  A squared-distance filter with slack keeps a
superset of the pairs in range.  A table over bins of the squared
distance, built once per kernel and r, brackets g between lo and hi.
Pairs in a bin where g is exactly 1 are edges and draw no coin; each
other pair's coin is decided exactly on its integer hash word against the
bin's bounds as words, hi first, and only the pairs in between (about
0.1%) take the exact hypot test and g.  The edge keys i * n + j (int64)
grow in one buffer, are sorted in place and split into int32 pairs.

The coupled metric draws nothing of its own: its square graph is the
torus graph less its seam edges, the pairs whose torus separation folds
across the cell's edge.  The scan gives the runs that cross the seam (a
column past the right edge, rows past the top or the bottom) apart from
the plain runs, whose pairs in range never fold; on the one-cell grid
every run is a seam run, and unfolded its pairs give the square edges.
A coupled campaign needs its torus graph only to count torus-isolated
nodes, so it realizes the square edges first and then only the seam
runs whose source or some target is lone, touched by no square edge.
That count stays exact: a node with a square edge is isolated on
neither metric, every seam pair at a lone node lies in a realized run,
and each pair draws its own coin.

A batch of trials of one (rho, b) runs as one stack: stack_points puts
their points in trial order, and stack_edges gives the grid a block of m
columns per trial, so each point scans only its own trial's cells with
its own wrap, and draws its coins from its own trial's key and indices.
One sort of the keys over the stacked rows puts each trial's edges in a
block.  sample_points and build_graph are the stack of one trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import models as _models
from . import streams
from .errors import ModelError, ParameterError
from .geometry import LO, Metric

# points per grid cell the grid aims at
_CELL_POINTS = 8

# bins of squared separation for the bracketed edge coin, and the slack on
# its bounds: far above the rounding error of any kernel's g, far below the
# spread of g over a bin
_COIN_BINS = 1024
_G_SLACK = 1e-14

# candidate pairs realized at once (a slice overshoots by at most one
# source's run), and sources scanned at once; the scratch memory grows
# with it, about 2.0 MiB traced at 2^14 and 3.7 MiB at 2^15 on a Gaussian
# trial at rho 2000, whose graph takes as long at either size; 2^16
# (7.0 MiB) is no faster
_SLICE_PAIRS = 1 << 14

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
    point i); edges is an (m, 2) int32 array with i < j, sorted
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


@dataclass(frozen=True)
class CoupledSample:
    """Torus graph and its square companion on the same points.

    square_edges is the torus graph less its seam edges, those that wrap
    around the cell, which are removed_edges.  Isolation counts therefore
    satisfy isolated(square) = isolated(torus) + newly isolated near the
    boundary.  This is the full split of one trial; a coupled campaign
    realizes the seam only at the nodes that square_edges leaves isolated
    (stack_coupled_edges), which gives the same counts.
    """

    params: SampleParams
    points: np.ndarray
    torus_edges: np.ndarray
    square_edges: np.ndarray
    removed_edges: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def square_sample(self) -> NetworkSample:
        return NetworkSample(self.params, self.points, self.square_edges)


def sample_points(params: SampleParams) -> np.ndarray:
    """Poisson(rho) many uniform points on the unit cell, shape (n, 2)."""
    return stack_points(params, 1)[0]


def stack_points(params: SampleParams, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the trials params.trial_index, ..., + trials - 1,
    stacked in trial order, and their offsets: trial k holds the rows
    offsets[k] .. offsets[k + 1] - 1, drawn as sample_points draws them."""
    counts = np.array([streams.poisson_sample(params.rho, key) for key in
                       _trial_keys(params, trials, streams.TAG_POINT_COUNT).tolist()],
                      dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # each trial counts its coordinates from 0; the words become uniforms
    # in their own 8 bytes, as streams.unit_array takes them
    h = streams.stacked_words(_trial_keys(params, trials, streams.TAG_POINT_COORDS), 2 * counts)
    points = h.view(np.float64).reshape(-1, 2)
    np.multiply(np.right_shift(h, np.uint64(11), out=h), 2.0**-53, out=points.reshape(-1))
    points += LO
    return points, offsets


def build_graph(params: SampleParams, points: np.ndarray) -> NetworkSample:
    """Realize the connection graph on the given points, which must lie in
    the unit cell [-1/2, 1/2)^2 (NaN and infinities do not).

    Every grid produces the same edge set because each pair's uniform
    depends only on (master_seed, trial_index, tag, i, j), and a pair's
    coin is settled by the exact test wherever its bracket leaves it open.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ParameterError(f"points must have shape (n, 2), got {points.shape}")
    if not ((points >= LO).all() and (points < -LO).all()):
        raise ParameterError("points outside the unit cell")
    return NetworkSample(params, points,
                         stack_edges(params, points, np.array([0, points.shape[0]])))


def stack_edges(params: SampleParams, points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The edges of the trials that stack_points stacks, as build_graph
    realizes each of them, over the stacked rows and sorted, so trial k's
    edges come k-th.  The trials share one grid side, from their mean
    number of points.  Edges hold int32 rows, so a stack holds at most
    2^31 points."""
    return _grid_edges(params, points, offsets, _stack_side(params, points, offsets))


def stack_coupled_edges(params: SampleParams, points: np.ndarray,
                        offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(square edges, seam edges, lone mask) of the torus trials that
    stack_points stacks, edges over the stacked rows and sorted as
    stack_edges sorts.  The square edges are couple_torus_to_square's.  The
    seam edges are every seam edge at a lone node, which no square edge
    touches, and maybe other torus edges (see _grid_edges): a node is
    torus-isolated exactly when neither list touches it."""
    return _grid_edges(params, points, offsets, _stack_side(params, points, offsets), True)


def couple_torus_to_square(params: SampleParams) -> CoupledSample:
    """One trial of the torus graph and its square companion on one point set.

    The square graph is the torus graph less its seam edges, which are
    removed_edges: the pairs whose torus separation folds across the
    cell's edge, rint(p_i - p_j) != 0 on either axis, as the scan folds
    them (rint is odd, so the order of the two points does not matter).
    Such a pair is at least 1 - r * cutoff >= 1/2 apart on the square,
    beyond the support, and a pair that does not fold is equally far apart
    in both metrics and draws the same coin.  So the square edges are
    exactly the edges of a direct square-metric trial on the same seed,
    trial and points, and newly isolated nodes are a nonnegative per-trial
    boundary effect.
    """
    if params.metric is not Metric.TORUS:
        raise ParameterError("coupling starts from a torus-metric SampleParams")
    points = sample_points(params)
    torus = stack_edges(params, points, np.array([0, points.shape[0]]))
    folds = (np.rint(points[torus[:, 0]] - points[torus[:, 1]]) != 0.0).any(axis=1)
    return CoupledSample(params, points, torus, torus[~folds], torus[folds])


def truncation_bias(model: _models.ConnectionModel, rho: float, b: float) -> float:
    """Expected number of edges per trial lost to the kernel cutoff.

    (rho^2 r^2 / 2) * C_error, where C_error = int_cutoff^inf 2 pi x
    g_raw(x) dx; zero for kernels whose truncation is definitional (unit
    disk, tables).
    """
    _models.connection_radius(model.C, rho, b)  # checks rho and b
    # rho r^2 = (log rho + b) / C, taken apart so that rho^2 r^2 cannot overflow
    return 0.5 * rho * ((math.log(rho) + b) / model.C * model.C_error)


# ---------------------------------------------------------------------------
# internals


def _grid_side(reach: float, n: int, torus: bool) -> int:
    # cells of about _CELL_POINTS points, or about a reach wide when that is
    # narrower; more cells than points buys nothing.  The wrapped torus
    # scan needs 2k + 1 <= m for k = int(span) + 1, else one cell
    m = min(max(int(1.0 / reach), math.isqrt(n // _CELL_POINTS)), 2 * math.isqrt(n) + 1, 4096)
    if torus and 2 * int(_span(reach, m)) + 3 > m:
        return 1
    return m


def _stack_side(params: SampleParams, points: np.ndarray, offsets: np.ndarray) -> int:
    # the grid side of a stack of trials, from their mean number of points
    if points.shape[0] > 1 << 31:
        raise ParameterError(f"{points.shape[0]} points exceed the 2^31 rows of int32 edges")
    return _grid_side(params.r * params.model.cutoff, points.shape[0] // (offsets.size - 1),
                      params.metric is Metric.TORUS)


def _span(reach: float, m: int) -> float:
    # the reach in cell widths, with slack far above the rounding of the
    # cell coordinates
    return reach * m * (1.0 + 1e-9) + 1e-9


@lru_cache(maxsize=64)
def _coin_brackets(model: _models.ConnectionModel, r: float,
                   bins: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(bound, scale, lo, hi): the prefilter's bound reach^2 (1 + 1e-9) on
    the squared separation q, and lo[b] <= g(d / r) <= hi[b] for every
    distance d = hypot(dx, dy) of a pair whose q <= bound falls in bin
    b = int(q * scale), with lo[b] = -1 where d may exceed reach.  Cached,
    as the trials of a campaign cell share r.

    g is non-increasing up to the rise of 1e-12 per knot that
    validate_model admits and linear between knots, so over a span of
    distances it is bounded by its values at the span's ends and at the
    knots inside: the bounds are a suffix max and a prefix min over bin
    edges and knots.  Edges are widened by 1e-9 relative, far above the
    rounding between q, its bin and hypot; values by _G_SLACK, but for a
    lower bound of exactly 1: validation keeps g <= 1, so g is 1 across
    that bin and lo = 1 makes each of its pairs an edge, whatever its coin.
    Such bins come first, as lo does not rise from one bin to the next.
    lo <= hi in every bin, as both bound g at the bin's inner edge."""
    reach = r * model.cutoff
    bound = reach * reach * (1.0 + 1e-9)
    scale = bins / bound
    # one more bin for q * scale rounding up to `bins`
    edge = np.sqrt(np.arange(bins + 2) / scale)
    d_lo, d_hi = edge[:-1] * (1.0 - 1e-9), edge[1:] * (1.0 + 1e-9)
    x_lo, x_hi = d_lo / r, d_hi / r
    x = np.unique(np.concatenate((x_lo, x_hi, model.radii or (), [model.cutoff])))
    gx = model.g(x)
    hi = np.maximum.accumulate(gx[::-1])[::-1][np.searchsorted(x, x_lo)] + _G_SLACK
    lo = np.minimum.accumulate(gx)[np.searchsorted(x, x_hi)]
    lo = np.where(lo >= 1.0, 1.0, lo - _G_SLACK)
    lo[d_hi > reach] = -1.0
    lo.flags.writeable = hi.flags.writeable = False
    return bound, scale, lo, hi


@lru_cache(maxsize=64)
def _coin_words(model: _models.ConnectionModel, r: float,
                bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(Lo, Hi): lo and hi of _coin_brackets as int64 bounds ceil(x 2^53)
    on the coin's hash word w = h >> 11.  Its coin is u = w 2^-53 and
    x 2^53 is exact, so u < x if and only if w < ceil(x 2^53)."""
    words = tuple(np.ceil(x * 2.0**53).astype(np.int64)
                  for x in _coin_brackets(model, r, bins)[2:])
    for x in words:
        x.flags.writeable = False
    return words


def _trial_keys(params: SampleParams, trials: int, tag: int) -> np.ndarray:
    # the keys of stream `tag` of the trials params.trial_index, ...
    first = params.trial_index
    return np.array([streams.stream_key(params.master_seed, t, tag)
                     for t in range(first, first + trials)], dtype=np.uint64)


def _grid_edges(params: SampleParams, points: np.ndarray, offsets: np.ndarray, m: int,
                split: bool = False):
    """Edges of stacked trials over an m x m bucket grid per trial, trial k
    holding the rows offsets[k] .. offsets[k + 1] - 1; int32, sorted
    lexicographically over the stacked rows.  Plain runs are realized as
    they come, seam runs (see _column_runs) with the fold whenever those
    waiting hold _SLICE_PAIRS candidates, and at the end.

    With split, of torus trials: (square edges, seam edges, lone mask over the
    stacked rows), the edges each sorted so.  Every seam run waits for the
    square edges, and only those are realized whose source is lone, touched by
    no square edge, or whose range of targets holds a lone position, as a
    prefix sum over the lone positions in cell order tells; every seam pair at
    a lone node lies in such a run, and coins go by pair.  On the one-cell
    grid every run is a seam run, and the square edges are those runs
    unfolded: a pair that folds is more than 1/2 >= reach apart unfolded,
    where only the exact test can connect it (lo = -1 in every bin past
    reach), and d <= reach rejects it.  Its lone pass may then realize square
    edges between nodes that are not lone, which change no count: such a node
    has a square edge anyway, and a node is torus-isolated exactly when
    neither list touches it."""
    n = points.shape[0]
    order, runs, expand = _expand_runs(params, points, offsets, m)
    # a list of seam runs that joins even when the scan gives none
    keys, held, size = bytearray(), [_NO_RUNS], 0
    for plain, seam in runs:
        expand(*plain, False, keys)
        held.append(seam)
        size += int(seam[2].sum())
        if size >= _SLICE_PAIRS and not split:
            expand(*map(np.concatenate, zip(*held)), True, keys)
            held, size = [_NO_RUNS], 0
    src, first, count = map(np.concatenate, zip(*held))
    if not split:
        expand(src, first, count, True, keys)
        del order, runs, expand  # and with them the points in cell order, before the sort
        return _sorted_edges(keys, n)
    if m == 1:
        expand(src, first, count, False, keys)
    square = _sorted_edges(keys, n)
    # a column at a time, as bincount reads int32 through an int64 copy
    degree = np.bincount(square[:, 0], minlength=n)
    degree += np.bincount(square[:, 1], minlength=n)
    lone = degree == 0
    alone = lone[order]
    before = np.concatenate(([0], np.cumsum(alone)))
    at = np.flatnonzero(alone[src] | (before[first + count] > before[first]))
    seam_keys = bytearray()
    expand(src[at], first[at], count[at], True, seam_keys)
    return square, _sorted_edges(seam_keys, n), lone


def _sorted_edges(keys: bytearray, n: int) -> np.ndarray:
    # the edge keys lo * n + hi, grown in one buffer (pieces joined at the
    # end would hold every key twice), sorted in place and split straight
    # into an int32 edge array
    pair = np.frombuffer(keys, dtype=np.int64)
    pair.sort()
    edges = np.empty((pair.size, 2), dtype=np.int32)
    np.divmod(pair, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _cells(c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    # coordinates in cell widths from the grid's low edge, and their cell
    # 0 .. m - 1 (c - LO rounds up to 1 just below 1/2)
    u = c - LO
    u *= m
    k = u.astype(np.int64)
    np.clip(k, 0, m - 1, out=k)
    return u, k


def _cell_order(points: np.ndarray, counts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked points in cell order (tc, row, index), where tc = trial
    * m + column is the column of the stacked grid, and the cells' starts:
    cell c = tc * m + row holds the positions starts[c] .. starts[c + 1] -
    1.  Two stable passes that numpy runs as radix sorts on 16-bit keys,
    rows first.  m <= 4096, and tc fits 16 bits in every batch a campaign
    makes; wider keys sort the same, only slower.  Each n-length array is
    dropped once used, so that few are alive at once."""
    trials = counts.size
    tc = _cells(points[:, 0], m)[1]
    tc += np.repeat(np.arange(0, trials * m, m), counts)
    row = _cells(points[:, 1], m)[1]
    cell = tc * m
    cell += row
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=trials * m * m))))
    del cell
    by_row = np.argsort(row.astype(np.uint16), kind="stable")
    del row
    tc = tc.astype(np.min_scalar_type(trials * m - 1))
    return by_row[np.argsort(tc[by_row], kind="stable")], starts


def _scan_runs(xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, starts: np.ndarray,
               m: int, reach: float, torus: bool):
    """The candidate runs (plain, seam) of each column of each block of
    sources, as _column_runs gives them, over the stacked points in cell
    order, trial k on the positions offsets[k] .. offsets[k + 1] - 1; cell
    c = (trial * m + column) * m + row holds the positions starts[c] ..
    starts[c + 1] - 1.  Sources go in blocks of _SLICE_PAIRS positions.

    A run is (source position, first position, count): the source pairs
    with the next `count` points.  A source scans the columns cx .. cx + k
    of its trial's grid; in each column it takes the one range of rows that can
    hold points within reach of it, plus the part that wraps on the torus.
    In its own column it starts after itself, so every unordered pair
    within reach is a candidate exactly once.
    """
    span = _span(reach, m)
    columns = int(span) + 2 if m > 1 else 1
    for a in range(0, xs.size, _SLICE_PAIRS):
        b = min(a + _SLICE_PAIRS, xs.size)
        src = np.arange(a, b)
        X, cx = _cells(xs[a:b], m)
        Y, cy = _cells(ys[a:b], m)
        t0 = (np.searchsorted(offsets, src, side="right") - 1) * m  # the trial's first column
        for ox in range(columns):
            yield _column_runs(src, X, Y, cx, cy, t0, starts, m, span, torus, ox)


_NO_RUNS = (np.empty(0, dtype=np.intp),) * 3


def _column_runs(src, X, Y, cx, cy, t0, starts, m: int, span: float, torus: bool, ox: int):
    # the runs (src, first, count) of the sources src, at X, Y in cell
    # units in the cells cx, cy, in the column cx + ox, as (plain, seam):
    # seam runs reach across the torus seam, into a column past the right
    # edge or rows past the top or the bottom, and on the one-cell torus
    # every run may.  The rows bottom .. top come within reach; h < k, so
    # they are at most 2k + 1
    tx = cx + ox
    base = (t0 + (tx % m if torus else np.minimum(tx, m - 1))) * m
    if ox:
        gap = np.maximum(tx - X, 0.0)
        h = np.sqrt(np.maximum(span * span - gap * gap, 0.0))
        bottom = np.floor(Y - h).astype(np.int64)
        first = starts[base + np.clip(bottom, 0, m)]
    else:
        h, bottom, first = span, cy + 1, src + 1
    top = np.floor(Y + h).astype(np.int64)
    count = starts[base + np.minimum(top, m - 1) + 1] - first
    past = np.flatnonzero(tx >= m)  # columns past the right edge
    if not torus:
        count[past] = 0
        return (src, first, count), _NO_RUNS
    if m == 1:
        return _NO_RUNS, (src, first, count)
    # the rows past either edge, wrapped: at most one side, as 2k + 1 <= m
    w = np.flatnonzero((bottom < 0) | (top >= m))
    below = bottom[w] < 0
    wfirst = starts[base[w] + np.where(below, bottom[w] + m, 0)]
    wend = starts[base[w] + np.where(below, m, top[w] - m + 1)]
    seam = (np.concatenate((src[past], src[w])), np.concatenate((first[past], wfirst)),
            np.concatenate((count[past], wend - wfirst)))
    count[past] = 0
    return (src, first, count), seam


def _expand_runs(params: SampleParams, points: np.ndarray, offsets: np.ndarray, m: int):
    """(order, runs, expand) of stacked trials over an m x m grid per
    trial.  The points go in cell order, position p holding point
    order[p], and runs are the pairs (plain, seam) of _scan_runs.
    expand(src, first, count, fold, keys) appends the edge keys lo * n +
    hi among the pairs of positions (src[k], first[k] + t), t < count[k],
    to keys, about _SLICE_PAIRS candidates at a time.  With fold the
    differences fold onto the torus.

    Plain runs need no fold.  With m > 1, _grid_side keeps 2K + 1 <= m for
    the K = int(span) + 1 columns a source scans past its own, so the two
    points of a plain run's pair are less than K + 1 cells apart on either
    axis, and those of a seam run's pair more than m - K - 1 >= K on one.
    A nonzero fold moves an axis by m, so a plain pair that folds, or a
    seam pair that does not, is more than K > span cells apart, which
    _span's slack puts beyond the prefilter's bound (whose own slack is
    smaller): a plain run's pairs in range do not fold, and a seam run's
    all do.  On the one-cell torus every run is a seam run, whose pairs
    may fold or not; a zero fold leaves a difference as it is.

    The squared distance with slack keeps a superset of the pairs in
    range.  A pair in a bin where g is 1 (lo = 1) is an edge and draws no
    coin.  The others take the word of streams.uniform(words[lo], hi -
    offsets[k]) for a pair of trial k, which hashes words[lo] - GOLDEN
    offsets[k] + GOLDEN hi: the trial's offset is folded into its points'
    words once.  The coin decides on w = h >> 11 against the words of
    _coin_words: w >= Hi is none, which settles about 96% of them in one
    pass, w < Lo is an edge, and the pairs in between take u = w 2^-53 and
    the exact test: hypot, d <= reach and u < g(d / r).  The torus fold is
    odd and hypot even in the difference, so a pair's distance does not
    depend on its point order."""
    n, counts = points.shape[0], np.diff(offsets)
    torus = params.metric is Metric.TORUS
    r, g = params.r, params.model.g
    reach = r * params.model.cutoff
    bound, scale, lo_bin, _ = _coin_brackets(params.model, r, _COIN_BINS)
    lo_word, hi_word = _coin_words(params.model, r, _COIN_BINS)
    free = int(np.count_nonzero(lo_bin >= 1.0))  # the coin-free bins 0 .. free - 1
    words = streams.stacked_words(_trial_keys(params, counts.size, streams.TAG_EDGES), counts)
    words -= np.repeat(offsets[:-1].astype(np.uint64) * np.uint64(streams.GOLDEN), counts)
    order, starts = _cell_order(points, counts, m)
    xs, ys = points[order, 0], points[order, 1]

    def settle(out, near, si, pj, dx, dy, q):
        # the keys of the edges among the pairs `near` of a slice, to out
        # (a call of its own, so its arrays go before the next slice's)
        i, j = si.take(near), order.take(pj.take(near))
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        k = (q.take(near) * scale).astype(np.intp)
        if free:
            sure = k < free
            out += (lo[sure] * n + hi[sure]).tobytes()
            rest = np.flatnonzero(~sure)
            near, lo, hi, k = near[rest], lo[rest], hi[rest], k[rest]
        h, tmp = hi.view(np.uint64) * np.uint64(streams.GOLDEN), words.take(lo)
        h += tmp
        streams._mix64_inplace(h, tmp)
        w = np.right_shift(h, np.uint64(11), out=tmp).view(np.int64)
        c = np.flatnonzero(w < hi_word[k])
        connected = w[c] < lo_word[k[c]]
        unsure = np.flatnonzero(~connected)
        if unsure.size:
            s, e = c[unsure], near[c[unsure]]
            d = np.hypot(dx[e], dy[e])
            connected[unsure] = (d <= reach) & (streams.unit_array(h[s]) < g(d / r))
        c = c[connected]
        out += (lo[c] * n + hi[c]).tobytes()

    def expand(src, first, count, fold, keys):
        if not count.size:
            return
        offs = np.concatenate(([0], np.cumsum(count)))
        cuts = np.searchsorted(offs, np.arange(_SLICE_PAIRS, offs[-1], _SLICE_PAIRS))
        bounds = np.concatenate(([0], cuts, [count.size]))
        for a, b in zip(bounds[:-1], bounds[1:]):
            lengths = count[a:b]
            pj = np.repeat(first[a:b] - offs[a:b], lengths) + np.arange(offs[a], offs[b])
            # take: these gathers run faster than fancy indexing
            dx = np.repeat(xs.take(src[a:b]), lengths)
            dx -= xs.take(pj)
            dy = np.repeat(ys.take(src[a:b]), lengths)
            dy -= ys.take(pj)
            if fold:
                dx -= np.rint(dx)
                dy -= np.rint(dy)
            q = dx * dx
            q += dy * dy
            settle(keys, np.flatnonzero(q <= bound), np.repeat(order.take(src[a:b]), lengths),
                   pj, dx, dy, q)

    return order, _scan_runs(xs, ys, offsets, starts, m, reach, torus), expand
