"""Numerical counterparts of the simulated quantities.

Everything here evaluates the same truncated kernel the sampler uses, so
theory and simulation describe one system.  Central quantities, with
r = sqrt((log rho + b) / (C rho)):

  expected isolated nodes, torus:
      rho * exp(-rho * int_A g(|x|_T / r) dx) = rho * exp(-rho r^2 C),
      which is e^{-b}: C is the truncated kernel's mass, so no error.
  expected isolated nodes, square:
      rho * int_A exp(-rho * I(y)) dy with I(y) the kernel mass visible
      from y.  The domain splits exactly into an interior (constant
      integrand), four edge strips (1-D profile), and four corners (2-D),
      all computed in scaled coordinates.  I comes from one function,
      `_visible_mass`, for two adjacent clipping lines: closed form
      (Owen's T for the Gaussian, arc primitives for tables and the unit
      disk) but for the log-normal's radial rule at the order of the
      enclosing rule.
  pair correlation of isolation at separation d, which b2 integrates:
      (1 - g(d/r)) * exp(rho * int g(|x|/r) g(|x - d|/r) dx), the cross
      mass int g g closed form for the unit disk, one angular panel over
      the lens of the cutoff discs for the Gaussian, a radial rule over a
      closed-form angular integral (incomplete elliptic integrals of the
      second kind) for tables, and a 2-D rule for the log-normal.
  dependence terms b1, b2 of the Chen-Stein bound on the total variation
      between the torus isolated-node count and Poisson(lambda), with
      neighborhood exponent epsilon in (0, 1/2).  The bound itself,
      (b1 + b2) * min(1, 1/lambda) + b3 * min(1, 1/sqrt(lambda)), is not
      assembled here, and b3 (the near-independence term) is not evaluated.
  mean degree, square:
      E[2M] / E[N] = rho int g(|z| / r) (1 - |z1|)(1 - |z2|) dz, where
      (1 - |z1|)(1 - |z2|) is the area of the square that holds pairs a
      displacement z apart, so (log rho + b) - 8 rho r^3 m2 + 2 rho r^4 m3
      with the radial moments m_k = int_0^cutoff g(u) u^k du, closed form
      for every kind.  On the torus the mean degree is log rho + b.

Every quantity here, like the sampler, takes the scaled support
r * cutoff to be at most 1/2 (`models.support_radius`) and raises
ParameterError beyond it: the support then fits half the torus period,
and no point of the square sees two opposite edges.

Limits as rho -> infinity, for reference against the finite-rho numbers:
mean isolated -> exp(-b), P(no isolated) -> exp(-exp(-b)), mean degree
-> log rho + b.

Square means, cross masses and b2 use fixed-panel Gauss-Legendre rules
(nodes from numpy's leggauss; nothing here is adaptive) on whole arrays,
with panels broken at every kink the geometry and the kernel put into the
integrand (built by `_breaks`, named at each use) and mapped by the
smoothstep t -> 3t^2 - 2t^3, which keeps a square-root kink at a panel
end smooth.  Each quantity is evaluated at orders n and 2n; the 2n value
is returned with |Q_2n - Q_n|, floored at 128 eps |Q_2n|, as its error
once that difference is within 1e-9 of the value (1e-7 for b2; n = 8, 16,
then 32), else QuadratureError is raised.  The visible mass converges
with the rule around it, so no convergence loop nests inside another; b2's
radial cross mass (tables, the log-normal) keeps the lowest order the next
confirms, and b2's error takes the move.  A table kernel is linear between
knots, so the mass it shows inside clipping lines has a closed form, its
arc terms taken once per knot and clipping distance: the square means of
tables need no radial rule, and a corner node inside the cutoff adds one
knot search and two arc primitives.  The unit disk takes this form as the
table of one piece, g = 1 on [0, 1].  Large grids are evaluated in blocks
of about 2^15 nodes, so the scratch memory stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ParameterError, QuadratureError
from .geometry import Metric
from .models import ConnectionModel, connection_radius, support_radius, table_pieces

# rule orders tried in turn, until one agrees with the next to _REL_TOL
_ORDERS = (8, 16, 32, 64)
_REL_TOL = 1e-9
# b2 only enters an upper bound: 1e-7 is ample, while 1e-9 would need a
# separation break at every sum of two table knots, O(knots^2) panels
_B2_REL_TOL = 1e-7
# roundoff floor on a reported error, relative to the value: computing the
# Legendre nodes another way (scipy's roots_legendre for numpy's leggauss,
# weights up to 4e-15 apart) moved the square means and b2 of five kernels
# at rho 400 to 1e4 by up to 62 eps |Q|, where |Q_2n - Q_n| read as low as
# 4 eps |Q|; the floor is twice the largest move
_ERR_FLOOR = 128 * np.finfo(np.float64).eps
# rows x nodes evaluated at once, which bounds the scratch memory
_BLOCK = 1 << 15
# soft radial breaks in cutoffs, so that no one panel spans the profile (the
# log-normal (4, 3) falls from 0.99 to 0.01 between radii 0.5 and 2 of 8.7)
_HALVES = 0.5 ** np.arange(1, 4)


@dataclass(frozen=True)
class TheoryReport:
    """One cell's theory: the isolated-node means of both metrics with their
    quadrature errors, next to the large-density limits.  expected_isolated
    is the mean of the report's metric.  mean_degree is the limit
    log rho + b, exact on the torus; mean_degree_square is the square's
    mean degree at this density, E[2M] / E[N]."""

    expected_isolated: float
    expected_isolated_square: float
    quad_error_square: float
    expected_isolated_torus: float
    quad_error_torus: float
    boundary_excess: float
    asymptotic_mean: float
    prob_no_isolated: float
    mean_degree: float
    mean_degree_square: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{f.name} must be finite and >= 0, got {v}")
        # exp(-exp(-b)) rounds to exactly 0 or 1 at large |b|
        if self.prob_no_isolated > 1.0:
            raise ParameterError("prob_no_isolated must lie in [0, 1]")


@dataclass(frozen=True)
class ChenSteinParams:
    """Knobs for the dependence bounds."""

    epsilon: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(
                f"epsilon must lie in (0, 1/2), got {self.epsilon}"
            )


# ---------------------------------------------------------------------------
# expected isolated nodes


def expected_isolated(model: ConnectionModel, rho: float, b: float,
                      metric: Metric, *, return_error: bool = False):
    """Mean number of degree-zero nodes at finite density, by quadrature."""
    if metric is Metric.TORUS:
        value, err = _expected_isolated_torus(model, rho, b)
    elif metric is Metric.SQUARE:
        value, err = _expected_isolated_square(model, rho, b)
    else:
        raise ParameterError(f"metric must be a Metric, got {metric!r}")
    if return_error:
        return value, err
    return value


def theory_report(model: ConnectionModel, rho: float, b: float,
                  metric: Metric = Metric.TORUS) -> TheoryReport:
    """Both metrics' means, their boundary excess and the limits for one
    cell; ParameterError where the support r * cutoff exceeds 1/2."""
    e_tor, err_tor = expected_isolated(model, rho, b, Metric.TORUS, return_error=True)
    e_sq, err_sq = expected_isolated(model, rho, b, Metric.SQUARE, return_error=True)
    mean = math.exp(-b)
    scale = math.log(rho) + b
    r = connection_radius(model.C, rho, b)
    m2, m3 = _radial_moments(model)
    return TheoryReport(
        expected_isolated=e_tor if metric is Metric.TORUS else e_sq,
        expected_isolated_square=e_sq, quad_error_square=err_sq,
        expected_isolated_torus=e_tor, quad_error_torus=err_tor,
        boundary_excess=max(0.0, e_sq - e_tor),
        asymptotic_mean=mean,
        prob_no_isolated=math.exp(-mean),
        mean_degree=scale,
        # rho r^2 = scale / C, taken apart so that rho r^3 cannot overflow
        mean_degree_square=scale * (1.0 - r * (8.0 * m2 - 2.0 * r * m3) / model.C),
    )


@lru_cache(maxsize=64)
def _radial_moments(model: ConnectionModel) -> tuple[float, float]:
    """(m2, m3), m_k = int_0^cutoff g(u) u^k du.  Gaussian: m2 =
    sqrt(pi) erf(c) / 4 - c e^{-c^2} / 2, m3 = (1 - (1 + c^2) e^{-c^2}) / 2;
    tables and the unit disk (`_table_pieces`) sum their linear pieces.
    The log-normal, g = erfc(a ln u) / 2, goes by parts in t = ln u as C
    does: with p = k + 1 and T = ln cutoff,
    m_k = c^p g(c) / p + e^{p^2 / 4a^2} erfc(p / 2a - a T) / (2 p), where
    the product e^{p^2 / 4a^2} erfc(p / 2a - a T) is formed as
    erfcx(p / 2a - a T) e^{p T - a^2 T^2}, as its first factor alone
    overflows for wide shadowing."""
    c = model.cutoff
    if model.kind == "gaussian":
        tail = math.exp(-c * c)
        return (0.25 * math.sqrt(math.pi) * math.erf(c) - 0.5 * c * tail,
                0.5 * (1.0 - (1.0 + c * c) * tail))
    if model.kind in ("unit_disk", "table"):
        x, alpha, beta = _table_pieces(model)
        return tuple(float(np.sum(alpha * np.diff(x**(k + 1)) / (k + 1)
                                  + beta * np.diff(x**(k + 2)) / (k + 2))) for k in (2, 3))
    from scipy.special import erfcx

    a = 10.0 * model.eta / (math.sqrt(2.0) * model.sigma_db * math.log(10.0))
    t = math.log(c)
    return tuple(c**p * 0.5 * math.erfc(a * t) / p
                 + float(erfcx(0.5 * p / a - a * t)) * math.exp(p * t - a * a * t * t) / (2.0 * p)
                 for p in (3, 4))


def _expected_isolated_torus(model: ConnectionModel, rho: float, b: float):
    r = support_radius(model, rho, b)
    return rho * math.exp(-rho * r * r * model.C), 0.0


@lru_cache(maxsize=1024)
def _expected_isolated_square(model: ConnectionModel, rho: float, b: float):
    r = support_radius(model, rho, b)
    cutoff = model.cutoff
    reach = r * cutoff
    scale = rho * r * r
    interior = (1.0 - 2.0 * reach) ** 2 * math.exp(-scale * model.C)
    # exp(-scale K) falls fastest next to the boundary: the panels of the
    # distance d to it halve toward it, down to the layer width 1 / scale
    base = _breaks(model, cutoff, [0.0], cutoff * 0.5 ** np.arange(1, math.log2(cutoff * scale)))

    # the mass visible at (d1, d2) is at least K(d1, 0), half the edge mass
    # at d1, which grows with d1: corner strips of d1 over a panel [a, b]
    # add at most 4 r^2 (b - a) cutoff exp(-scale K(a, inf) / 2).  Strips
    # below 1e-12 of the interior, a lower bound on the value, are left out
    # and their bound goes to the error
    edge = _visible_mass(model, (base[:-1], math.inf), _ORDERS[-1])
    strip = 4.0 * r * r * np.diff(base) * cutoff * np.exp(-0.5 * scale * edge)
    skip = strip < 1e-3 * _REL_TOL * interior

    def total(n: int) -> float:
        q_edge, q_corner = _boundary_integrals(model, base, n, scale, ~skip)
        return rho * (interior + 4.0 * (1.0 - 2.0 * reach) * r * q_edge
                      + 4.0 * r * r * q_corner)

    value, err = _converged(total, "square-metric isolated mean")
    return float(value), err + rho * strip[skip].sum()


def _boundary_integrals(model: ConnectionModel, base: np.ndarray, n: int,
                        scale: float, corner: np.ndarray) -> tuple[float, float]:
    """Integrals of exp(-scale K) over the edge profile, d in [0, cutoff],
    and over the corner square [0, cutoff]^2 of scaled distances to the
    boundary, with K the visible kernel mass, on the panels between the
    breaks `base` at rule order n; the corner takes only the panels of d1
    where `corner` is true."""
    d, w = _panels(base, n)
    edge = _visible_mass(model, (d, math.inf), n)
    live = np.flatnonzero(np.repeat(corner, n))
    # the corner overlap sets in on the arc hypot(d1, d2) = cutoff with a kink
    # of scale `_arc_kink` in the exponent; where that shows at _REL_TOL, each
    # row of d1 has the d2 panel the arc crosses replaced by its two parts
    if scale * _arc_kink(model) > _REL_TOL:
        arc = np.sqrt(np.maximum(model.cutoff**2 - d * d, 0.0))
        crossed = np.clip(np.searchsorted(base, arc, side="right") - 1, 0, base.size - 2)
        split_d, split_w = _panels(np.stack([base[crossed], arc, base[crossed + 1]], axis=1), n)
    else:
        crossed, (split_d, split_w) = np.full(d.size, -1), _panels(np.zeros((d.size, 1)), n)
    panel = np.repeat(np.arange(base.size - 1), n)
    q_corner = 0.0
    step = max(1, _BLOCK // d.size)
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        kept = np.where(panel == crossed[rows, None], 0.0, w)
        mass = _visible_mass(model, (d[rows, None], d), n)
        split = _visible_mass(model, (d[rows, None], split_d[rows]), n)
        q_corner += w[rows] @ (np.sum(kept * np.exp(-scale * mass), axis=1)
                               + np.sum(split_w[rows] * np.exp(-scale * split), axis=1))
    return w @ np.exp(-scale * edge), q_corner


def _arc_kink(model: ConnectionModel) -> float:
    """g(cutoff) + cutoff |g'(cutoff)|, the slope one-sided over the outer 2^-10 of g's support."""
    c = model.cutoff
    return float(model.g(c) + 2.0**10 * abs(model.g(c * (1.0 - 2.0**-10)) - model.g(c)))


def _visible_mass(model: ConnectionModel, deltas, n: int):
    """Kernel mass visible inside two adjacent clipping half-planes at
    scaled distances `deltas` = (d1, d2) (inf for no clip; arrays that
    broadcast together): the full mass, less what lies beyond each line,
    plus what lies beyond both, which each of them took.  With r * cutoff
    <= 1/2 a point of the square meets no other clips.  Closed form but
    for the log-normal, which takes the radial rule at order n; the unit
    disk goes as the one-piece table (`_table_pieces`)."""
    d1, d2 = deltas
    if model.kind == "gaussian":
        return _visible_mass_gaussian(model, d1, d2)
    if model.kind in ("unit_disk", "table"):
        return _visible_mass_table(model, d1, d2)
    return _visible_mass_rule(model, deltas, n)


def _visible_mass_gaussian(model: ConnectionModel, d1, d2) -> np.ndarray:
    """`_visible_mass` of the Gaussian e^{-u^2} cut at c, eps = e^{-c^2}.
    By parts through Owen's T, the mass beyond a clip at delta < c is
    2 A(delta), A = pi T(sqrt(2) delta, sqrt(c^2 - delta^2) / delta) -
    eps arccos(delta / c) / 2; the pair with hypot(d1, d2) < c overlaps by
    A(d1) + A(d2) + pi eps / 4 - pi [T(sqrt(2) d1, d2 / d1) + (1 <-> 2)],
    where the bracket is (Q1 + Q2) / 2 - Q1 Q2 with Q = erfc(d) / 2."""
    from scipy import special

    c = model.cutoff
    eps = math.exp(-c * c)
    d1, d2 = np.minimum(d1, c), np.minimum(d2, c)
    with np.errstate(divide="ignore"):
        a1, a2 = (math.pi * special.owens_t(math.sqrt(2.0) * x, np.sqrt(c * c - x * x) / x)
                  - 0.5 * eps * np.arccos(x / c) for x in (d1, d2))
    q1, q2 = 0.5 * special.erfc(d1), 0.5 * special.erfc(d2)
    pair = a1 + a2 + 0.25 * math.pi * eps - math.pi * (0.5 * (q1 + q2) - q1 * q2)
    return model.C - 2.0 * (a1 + a2) + np.where(np.hypot(d1, d2) < c, pair, 0.0)


def _visible_mass_rule(model: ConnectionModel, deltas, n: int) -> np.ndarray:
    """`_visible_mass` as int_0^cutoff u g(u) theta(u) du, where theta(u) is
    the angular measure of the circle of scaled radius u that stays inside
    the clipping half-planes at `deltas`.  Panels break at `_breaks` with
    `_HALVES`, and each row's at its clips and overlap onset hypot(d1, d2)."""
    cutoff = model.cutoff
    deltas = [np.asarray(x, dtype=np.float64) for x in deltas]
    shape = np.broadcast_shapes(*(x.shape for x in deltas))
    # clips and an overlap that never reach into the support change nothing
    clips = [np.broadcast_to(x, shape).ravel()[:, None] for x in deltas
             if np.any(x < cutoff)]
    overlap = bool(np.any(np.hypot(*deltas) < cutoff))
    fixed = _breaks(model, cutoff, [0.0], cutoff * _HALVES)
    out = np.empty(math.prod(shape))
    step = max(1, _BLOCK // ((len(clips) + overlap + len(fixed) - 1) * n))
    for lo in range(0, out.size, step):
        blk = [x[lo:lo + step] for x in clips]
        rows = min(step, out.size - lo)
        onset = [np.hypot(*blk)] if overlap else []
        breaks = np.hstack([*blk, *onset, np.tile(fixed, (rows, 1))])
        u, w = _panels(np.sort(np.minimum(breaks, cutoff), axis=1), n)
        # half-angle of the arc beyond each clipping line
        a = [np.arccos(np.divide(x, u, out=np.ones_like(u), where=u > x)) for x in blk]
        theta = 2.0 * math.pi - 2.0 * sum(a)
        if overlap:
            theta = theta + np.maximum(0.0, a[0] + a[1] - 0.5 * math.pi)
        out[lo:lo + step] = np.sum(w * u * model.g(u) * theta, axis=1)
    return out.reshape(shape)


def _visible_mass_table(model: ConnectionModel, d1, d2) -> np.ndarray:
    """`_visible_mass` of a table (or the unit disk, its one piece g = 1 on
    [0, 1]) in closed form: the full mass 4 A_0[0],
    less the arcs 2 A[0] beyond each clipping line (`_arc_suffix` at 0, d1,
    d2), plus their overlap T(d1, h) + T(d2, h) - T(0, h) from h = hypot(d1,
    d2), with T(delta, h) = int_h^cutoff u g(u) arccos(delta / u) du.  With p
    the piece that holds h, T(delta, h) = E[p] - alpha_p P0(h, delta) - beta_p
    P1(h, delta) exactly: x_{p+1} >= h >= delta, so E[p] already holds the
    head of piece p.  At delta = 0 the parts are pi h^2 / 4 and pi h^3 / 6.
    From h = cutoff on every tail is A[P] = 0, so only the nodes inside the
    cutoff take the overlap; they gather E by their flat index into d1 and
    d2, and E is never broadcast to nodes x knots."""
    x, alpha, beta = _table_pieces(model)
    d1, d2 = np.asarray(d1, dtype=np.float64), np.asarray(d2, dtype=np.float64)
    zero, zero_end = _zero_arcs(model)
    (arcs1, end1), (arcs2, end2) = _arc_suffix(model, d1), _arc_suffix(model, d2)
    out = np.asarray(4.0 * zero[0] - 2.0 * (arcs1[..., 0] + arcs2[..., 0]))
    h = np.hypot(d1, d2)
    near = h < x[-1]
    if not near.any():
        return out
    h = h[near]
    p = np.searchsorted(x, h, side="right") - 1
    overlap = math.pi * h * h * (0.25 * alpha[p] + beta[p] * h / 6.0) - zero_end[p]
    for delta, end in ((d1, end1), (d2, end2)):
        node = np.broadcast_to(np.arange(delta.size).reshape(delta.shape), near.shape)[near]
        p0, p1 = _arc_parts(h, delta.ravel()[node])
        overlap += end.reshape(delta.size, -1)[node, p] - alpha[p] * p0 - beta[p] * p1
    out[near] += overlap
    return out


@lru_cache(maxsize=64)
def _table_pieces(model: ConnectionModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`table_pieces` of a table kernel, cached per model.  The unit disk is
    the table of one piece, x = (0, 1), alpha = 1, beta = 0."""
    if model.kind == "unit_disk":
        return table_pieces((0.0, 1.0), (1.0, 1.0), 1.0)
    return table_pieces(model.radii, model.values, model.cutoff)


@lru_cache(maxsize=64)
def _zero_arcs(model: ConnectionModel) -> tuple[np.ndarray, np.ndarray]:
    """`_arc_suffix` at delta = 0, which every visible mass takes, cached
    per model."""
    return _arc_suffix(model, 0.0)


def _arc_parts(v, delta) -> tuple[np.ndarray, np.ndarray]:
    """(P0, P1), the antiderivatives in v of v arccos(delta / v) and
    v^2 arccos(delta / v) for v >= delta >= 0, zero at v = delta: a piece
    g = alpha + beta u takes alpha P0 + beta P1.  Written with
    sqrt((v - delta)(v + delta)) so that they stay accurate near v = delta."""
    root = np.sqrt((v - delta) * (v + delta))
    angle = np.arctan2(root, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.where(delta > 0.0, delta * delta * np.log1p((v - delta + root) / delta), 0.0)
    return (0.5 * (v * v * angle - delta * root),
            (2.0 * v**3 * angle - delta * (v * root + log)) / 6.0)


def _arc_suffix(model: ConnectionModel, delta) -> tuple[np.ndarray, np.ndarray]:
    """Table kernel or unit disk: (A, E) with A[..., p] = int u g(u) arccos(delta / u) du
    from max(x_p, delta) to the cutoff, p = 0..P (A[..., P] = 0), and
    E[..., p] = A[..., p + 1] + alpha_p P0 + beta_p P1 at max(x_{p+1}, delta),
    the upper end of piece p; the parts are taken once at each of the P + 1
    points max(x_k, delta).  The arc beyond a clip at delta takes 2 A[..., 0]
    of the mass; at delta = 0 the arccos is pi / 2, so 4 A[0] is the full mass."""
    x, alpha, beta = _table_pieces(model)
    delta = np.minimum(delta, x[-1])[..., None]
    p0, p1 = _arc_parts(np.maximum(x, delta), delta)
    upper = alpha * p0[..., 1:] + beta * p1[..., 1:]
    seg = upper - (alpha * p0[..., :-1] + beta * p1[..., :-1])
    arcs = np.concatenate([np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1],
                           np.zeros_like(delta)], axis=-1)
    return arcs, arcs[..., 1:] + upper


def _breaks(model: ConnectionModel, hi: float, kinks=(), soft=()) -> np.ndarray:
    """The fixed panel breaks of every rule here, sorted, up to hi: hi and
    each kink of g (table knots, cutoff) or of `kinks` in [0, hi), exact,
    and each soft break q in (0, hi) more than 1e-9 q from all of those.
    Kinks mark where the integrand is not smooth, soft breaks keep panels
    short.  A table's cutoff sits 1.7e-12 below its last knot, so cutoff / 2
    lands by a knot: both kept, a sliver panel would take n nodes.  A range-
    relative tolerance would drop b2's layer breaks at rho 1e300 (hi 3e37)."""
    g_kinks = (*(k for k in model.radii or () if 0.0 < k < model.cutoff), model.cutoff)
    hard = {hi, *(k for k in (*g_kinks, *kinks) if 0.0 <= k < hi)}
    return np.array(sorted(hard | {q for q in soft if 0.0 < q < hi
                                   and all(abs(q - k) > 1e-9 * q for k in hard)}))


@lru_cache(maxsize=None)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre on [0, 1] through the smoothstep, whose
    derivative vanishes at both ends: a square-root kink there turns smooth."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    return t * t * (3.0 - 2.0 * t), 3.0 * w * t * (1.0 - t)


def _panels(breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on every panel between
    consecutive breaks, which are sorted along the last axis: shape
    (..., k) in, (..., (k - 1) n) out.  Zero-width panels weigh nothing."""
    t, w = _rule(n)
    a = breaks[..., :-1, None]
    length = breaks[..., 1:, None] - a
    shape = breaks.shape[:-1] + ((breaks.shape[-1] - 1) * t.size,)
    return (a + length * t).reshape(shape), (length * w).reshape(shape)


def _converged(rule, what: str, rel_tol: float = _REL_TOL):
    """(rule(2n), error) for the first n in _ORDERS whose |rule(2n) -
    rule(n)| is within rel_tol of the value, the error being that
    difference or the roundoff floor _ERR_FLOOR |rule(2n)|, whichever is
    larger; QuadratureError once the largest order still misses it."""
    coarse = rule(_ORDERS[0])
    for n in _ORDERS[1:]:
        fine = rule(n)
        err = float(np.max(np.abs(fine - coarse), initial=0.0))
        scale = float(np.max(np.abs(fine), initial=0.0))
        if err <= rel_tol * scale:
            return fine, max(err, _ERR_FLOOR * scale)
        coarse = fine
    raise QuadratureError(f"{what} did not converge at order {n}", estimate=err)


# ---------------------------------------------------------------------------
# cross mass and dependence bounds


def _cross_mass_rule(model: ConnectionModel, s, n: int) -> np.ndarray:
    """int g(|y|) g(|y - s e_x|) dy over the plane, scaled units, for an
    array of separations s at rule order n: 2 int_0^cutoff u g(u) A(u, s) du
    in polar coordinates, with A(u, s) = int_0^pi g(|y - s e_x|) dphi on the
    circle |y| = u.  The unit disk's lens is closed form; the Gaussian's
    e^{-|y|^2 - |y - s|^2} = e^{-s^2/2} e^{-2 |y - s/2|^2} leaves
    e^{-s^2/2} int_0^{pi/2} (1 - e^{-2 R^2}) dphi, one smooth panel, with
    R(phi) = sqrt(c^2 - (s/2)^2 sin^2 phi) - (s/2) cos phi where a ray from
    the midpoint leaves the lens of the two cutoff discs (0 for s >= 2c).
    For tables and the log-normal the radial rule runs on blocks of
    separations, its panels broken at max(s - cutoff, 0), at s, at
    `_breaks` over [0, cutoff] (the kinks k of g, with the soft `_HALVES`
    for the log-normal) and where the circle of radius k about the second
    center is tangent (|k - s|, k + s); the nodes of zero-width panels,
    where breaks coincide, are dropped.  A is closed form for tables
    (`_table_arc`) and an angular rule for the log-normal (`_log_normal_arc`)."""
    s = np.asarray(s, dtype=np.float64)
    cutoff = model.cutoff
    if model.kind == "unit_disk":
        # overlap of two unit disks with centers s apart
        half = np.minimum(0.5 * s, 1.0)
        return 2.0 * np.arccos(half) - half * np.sqrt(np.maximum(4.0 - s * s, 0.0))
    if model.kind == "gaussian":
        phi, w = _panels(np.array([0.0, 0.5 * math.pi]), n)
        half = np.minimum(0.5 * s, cutoff)[..., None]
        # R(phi), rationalized so that it keeps its digits as the lens closes
        lens = (cutoff * cutoff - half * half) / (
            np.sqrt(cutoff * cutoff - (half * np.sin(phi))**2) + half * np.cos(phi))
        return np.exp(-0.5 * s * s) * (-np.expm1(-2.0 * lens * lens) @ w)
    k = _breaks(model, cutoff)
    table = model.kind == "table"
    fixed = k if table else _breaks(model, cutoff, soft=cutoff * _HALVES)
    flat = s.reshape(-1)
    out = np.zeros(flat.size)
    live = np.flatnonzero(flat < 2.0 * cutoff)  # supports that overlap
    # scratch per radial node: a table's crossed knots, the log-normal's
    # 2n angular nodes
    step = max(1, _BLOCK // ((2 * k.size + fixed.size + 1) * n * (k.size if table else 2 * n)))
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        s1 = flat[rows, None]
        start = np.maximum(s1 - cutoff, 0.0)
        brk = np.hstack([start, s1, np.abs(k - s1), k + s1,
                         np.broadcast_to(fixed, (s1.size, fixed.size))])
        u, w = _panels(np.sort(np.minimum(np.maximum(brk, start), cutoff), axis=1), n)
        row, col = np.nonzero(w)
        u, w, sep = u[row, col], w[row, col], s1[row, 0]
        arc = _table_arc(model, u, sep) if table else _log_normal_arc(model, u, sep, n)
        out[rows] = 2.0 * np.bincount(row, w * u * model.g(u) * arc, minlength=rows.size)
    return out.reshape(s.shape)


def _table_arc(model: ConnectionModel, u, s) -> np.ndarray:
    """A(u, s) = int_0^pi g(d) dphi, d = |y - s e_x| on the circle |y| = u,
    for a table in closed form.  With g = alpha_p + beta_p d on piece p and
    alpha_P = beta_P = 0 beyond the cutoff x_P, A is the sum over p >= 1 of
    (alpha_{p-1} - alpha_p) Phi_p + (beta_{p-1} - beta_p) F(Phi_p), where d
    reaches x_p at the angle Phi_p and F(Phi) = int_0^Phi d dphi =
    2 (u + s) [E(m) - E((pi - Phi) / 2 | m)], m = 4 u s / (u + s)^2.  A knot
    at or below |u - s| has Phi_p = 0 and adds nothing; those at or beyond
    u + s have Phi_p = pi and sum to the coefficients of the piece that
    holds u + s.  So the incomplete integral, the costly part, is taken only
    for the knots the circle crosses."""
    from scipy.special import ellipe, ellipeinc

    x, alpha, beta = _table_pieces(model)
    alpha, beta = np.append(alpha, 0.0), np.append(beta, 0.0)
    far = u + s
    m = np.minimum(1.0, 4.0 * u * s / (far * far))
    whole = ellipe(m)
    held = np.searchsorted(x, far) - 1
    out = math.pi * alpha[held] + 2.0 * far * beta[held] * whole
    i, p = np.nonzero((np.abs(u - s)[:, None] < x[1:]) & (x[1:] < far[:, None]))
    ui, si = u[i], s[i]
    phi = np.arccos(np.clip((ui * ui + si * si - x[p + 1]**2) / (2.0 * ui * si), -1.0, 1.0))
    part = 2.0 * far[i] * (whole[i] - ellipeinc(0.5 * (math.pi - phi), m[i]))
    jumps = (alpha[p] - alpha[p + 1]) * phi + (beta[p] - beta[p + 1]) * part
    return out + np.bincount(i, jumps, minlength=u.size)


def _log_normal_arc(model: ConnectionModel, u, s, n: int) -> np.ndarray:
    """A(u, s) of `_table_arc` for the log-normal, by the n-point rule on
    [0, pi], broken where d crosses the cutoff on the circles that cross it."""

    def rule(ends, u, s):
        phi, w = _panels(ends, n)
        dist = np.sqrt(np.maximum((u * u + s * s)[:, None]
                                  - 2.0 * (u * s)[:, None] * np.cos(phi), 0.0))
        return np.sum(w * model.g(dist), axis=1)

    c = model.cutoff
    hit = (np.abs(u - s) < c) & (c < u + s)
    out = np.empty_like(u)
    out[~hit] = rule(np.array([0.0, math.pi]), u[~hit], s[~hit])
    u, s = u[hit], s[hit]
    cut = np.arccos(np.clip((u * u + s * s - c * c) / (2.0 * u * s), -1.0, 1.0))
    out[hit] = rule(np.stack([np.zeros_like(cut), cut, np.full_like(cut, math.pi)], axis=1), u, s)
    return out


def chen_stein_terms(model: ConnectionModel, rho: float, b: float,
                     params: ChenSteinParams = ChenSteinParams(), *,
                     return_error: bool = False):
    """Dependence terms (b1, b2) for the torus isolated-node count, and with
    return_error the quadrature error of b2 as a third entry.

    b1 = 4 pi E^2 ((log rho + b) / (C rho))^(1 - eps) with E the finite-rho
    torus expectation; b2 integrates the joint-isolation weight over the
    dependence disc of scaled radius 2 r^(-eps).  Both terms shrink as the
    density grows; their sum drives the total-variation bound.
    """
    terms = _chen_stein(model, rho, b, params)
    return terms if return_error else terms[:2]


@lru_cache(maxsize=1024)
def _chen_stein(model: ConnectionModel, rho: float, b: float,
                params: ChenSteinParams) -> tuple[float, float, float]:
    """(b1, b2, b2's quadrature error), one cache entry for both forms of
    `chen_stein_terms`."""
    eps = params.epsilon
    e_tor, _ = _expected_isolated_torus(model, rho, b)
    r = connection_radius(model.C, rho, b)
    r2 = (math.log(rho) + b) / model.C / rho  # C * rho overflows near rho 1e308
    b1 = 4.0 * math.pi * e_tor * e_tor * r2 ** (1.0 - eps)

    s_max = 2.0 * r ** (-eps)
    period = 1.0 / r
    if s_max > 0.5 * period:
        raise ParameterError(
            "dependence disc exceeds half the torus period; increase rho or epsilon"
        )
    mass_scale = rho * r * r
    # the prefactor rho^2 r^2 overflows past rho ~ 1e154, where the
    # exponential underflows: its log goes into the exponent
    log_scale = math.log(rho) + math.log(mass_scale)
    # 1 - g(s) breaks where g does.  The cross mass kinks where kink circles
    # about the two centers touch, at every sum and difference of two kinks
    # k; the sums with the cutoff, k + cutoff (2 cutoff ends the support),
    # are the strong ones, and the order doubling covers the rest.  The
    # wrapped pair at period - s kinks at the mirror images.
    # Past the cutoff 1 - g(s) jumps by g(cutoff), 1 for the unit disk, and
    # the integrand falls off over a layer of width about 1 / (rho r^2):
    # soft breaks halve toward the cutoff, down to that width (`_breaks`)
    k = _breaks(model, model.cutoff)
    layer = model.cutoff * (1.0 + 0.5 ** np.arange(2, math.log2(model.cutoff * mass_scale)))
    kinks, soft = k + model.cutoff, np.append(model.cutoff * _HALVES, layer)
    mirrors = period - np.append(k, kinks)
    breaks = _breaks(model, s_max, [0.0, *kinks, *mirrors], [*soft, *(period - soft)])

    def cross(s, n: int) -> np.ndarray:
        return _cross_mass_rule(model, s, n) + _cross_mass_rule(model, period - s, n)

    # a radial cross mass keeps the lowest order that the next moves by
    # mass_scale * spread <= tol / 2 at the panels' midpoints; b2's error takes that
    radial, spread = None, 0.0
    if model.kind in ("table", "log_normal"):
        mid = 0.5 * (breaks[:-1] + breaks[1:])
        fine = cross(mid, _ORDERS[0])
        for radial, finer in zip(_ORDERS, _ORDERS[1:]):
            coarse, fine = fine, cross(mid, finer)
            spread = float(np.max(np.abs(fine - coarse)))
            if mass_scale * spread <= 0.5 * _B2_REL_TOL:
                break
        else:
            raise QuadratureError(f"cross mass did not converge at order {finer}", estimate=spread)

    def integral(n: int) -> float:
        s, w = _panels(breaks, n)
        return w @ (2.0 * math.pi * s * (1.0 - model.g(s))
                    * np.exp(log_scale - mass_scale * (2.0 * model.C - cross(s, radial or n))))

    value, err = _converged(integral, "dependence integral", _B2_REL_TOL)
    return b1, float(value), err + math.expm1(mass_scale * spread) * abs(float(value))


# ---------------------------------------------------------------------------
# Poisson approximation, observed


def tv_to_poisson(counts, lam: float) -> float:
    """Total variation between the empirical law of the nonnegative integer
    `counts` and Poisson(lam), over k = 0..max(max count, 10) plus the
    Poisson mass beyond that table.  The Poisson table is
    exp(k log lam - lam - log k!), in log space because exp(-lam)
    underflows once lam passes about 745."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or np.any(counts < 0):
        raise ParameterError("counts must be a nonempty array of integers >= 0")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    k_max = max(int(counts.max()), 10)
    observed = np.bincount(counts, minlength=k_max + 1) / counts.size
    pmf = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1.0)) if lam
                    else float(k == 0) for k in range(k_max + 1)])
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return 0.5 * float(np.abs(observed - pmf).sum()) + 0.5 * tail
