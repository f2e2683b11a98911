"""Numerical counterparts of the simulated quantities.

Everything here evaluates the same truncated kernel the sampler uses, so
theory and simulation describe one system.  Central quantities, with
r = sqrt((log rho + b) / (C rho)):

  expected isolated nodes, torus:
      rho * exp(-rho * int_A g(|x|_T / r) dx)
      which reduces to rho * exp(-rho r^2 C_t) whenever the scaled support
      r * cutoff fits half the period (C_t is the truncated radial mass).
  expected isolated nodes, square:
      rho * int_A exp(-rho * I(y)) dy with I(y) the kernel mass visible
      from y.  The domain splits exactly into an interior (constant
      integrand), four edge strips (1-D profile), and four corners (2-D),
      all computed in scaled coordinates.
  pair correlation of isolation at separation d:
      (1 - g(d/r)) * exp(rho * int g(|x|/r) g(|x - d|/r) dx).
  dependence bounds b1, b2 for the Poisson approximation of the torus
      isolated-node count, with neighborhood exponent epsilon in (0, 1/2);
      the total-variation bound assembles as
      (b1 + b2) * min(1, 1/lambda) + b3 * min(1, 1/sqrt(lambda)).
      b3 (the near-independence correction) is not evaluated here; callers
      pass 0, which makes the assembled bound optimistic by that term.

Limits as rho -> infinity, for reference against the finite-rho numbers:
mean isolated -> exp(-b), P(no isolated) -> exp(-exp(-b)), mean degree
-> log rho + b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .errors import ParameterError, QuadratureError
from .geometry import Metric
from .models import ConnectionModel, connection_radius

# inner integrals (kernel mass) are absolute-tolerance quantities in
# scaled units; outer integrals are relative
INNER_ABS_TOL = 1e-9
OUTER_REL_TOL = 1e-7


@dataclass(frozen=True)
class TheoryReport:
    """Finite-density predictions next to their large-density limits."""

    expected_isolated: float
    asymptotic_mean: float
    prob_no_isolated: float
    mean_degree: float
    boundary_excess: float

    def __post_init__(self):
        for name in ("expected_isolated", "asymptotic_mean", "prob_no_isolated",
                     "mean_degree", "boundary_excess"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 < self.prob_no_isolated < 1.0):
            raise ParameterError("prob_no_isolated must lie in (0, 1)")


@dataclass(frozen=True)
class ChenSteinParams:
    """Knobs for the dependence bounds."""

    epsilon: float = 0.25
    quad_abs: float = 1e-12
    quad_rel: float = OUTER_REL_TOL

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(
                f"epsilon must lie in (0, 1/2), got {self.epsilon}"
            )


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probabilities over k = 0, 1, ... plus the mass beyond the table."""

    pmf: np.ndarray
    tail_mass: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ParameterError("pmf must be a nonempty 1-D array")
        if np.any(pmf < 0.0) or self.tail_mass < -0.0:
            raise ParameterError("probabilities must be >= 0")
        total = float(pmf.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"pmf + tail must sum to 1, got {total}")
        pmf = pmf.copy()
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)


def _require_scale(rho: float, b: float) -> float:
    if not (math.isfinite(rho) and rho > 0.0):
        raise ParameterError(f"density must be positive, got {rho}")
    s = math.log(rho) + b
    if s <= 0.0:
        raise ParameterError(f"log rho + b must be positive, got {s:.6g}")
    return s


# ---------------------------------------------------------------------------
# expected isolated nodes


def expected_isolated(model: ConnectionModel, rho: float, b: float,
                      metric: Metric, *, return_error: bool = False):
    """Mean number of degree-zero nodes at finite density, by quadrature."""
    _require_scale(rho, b)
    if metric is Metric.TORUS:
        value, err = _expected_isolated_torus(model, rho, b)
    elif metric is Metric.SQUARE:
        value, err = _expected_isolated_square(model, rho, b)
    else:
        raise ParameterError(f"metric must be a Metric, got {metric!r}")
    if return_error:
        return value, err
    return value


def asymptotic_report(rho: float, b: float) -> TheoryReport:
    """Large-density limits only; boundary excess vanishes in the limit."""
    _require_scale(rho, b)
    mean = math.exp(-b)
    return TheoryReport(
        expected_isolated=mean,
        asymptotic_mean=mean,
        prob_no_isolated=math.exp(-mean),
        mean_degree=math.log(rho) + b,
        boundary_excess=0.0,
    )


def theory_report(model: ConnectionModel, rho: float, b: float,
                  metric: Metric = Metric.TORUS) -> TheoryReport:
    """Finite-density report; expected_isolated follows the given metric."""
    e_tor = expected_isolated(model, rho, b, Metric.TORUS)
    e_sq = expected_isolated(model, rho, b, Metric.SQUARE)
    chosen = e_tor if metric is Metric.TORUS else e_sq
    return TheoryReport(
        expected_isolated=chosen,
        asymptotic_mean=math.exp(-b),
        prob_no_isolated=math.exp(-math.exp(-b)),
        mean_degree=math.log(rho) + b,
        boundary_excess=max(0.0, e_sq - e_tor),
    )


@lru_cache(maxsize=256)
def _radial_mass(model: ConnectionModel) -> tuple[float, float]:
    """(C_t, error): radial mass of the truncated kernel."""
    if model.kind == "unit_disk":
        return math.pi, 0.0
    if model.kind == "gaussian":
        return math.pi - math.pi * math.exp(-model.cutoff**2), 0.0
    return model.C, model.C_error


@lru_cache(maxsize=4096)
def _expected_isolated_torus(model: ConnectionModel, rho: float, b: float):
    r = connection_radius(model.C, rho, b)
    if r * model.cutoff <= 0.5:
        c_t, c_err = _radial_mass(model)
        mass = rho * r * r * c_t
        value = rho * math.exp(-mass)
        return value, value * rho * r * r * c_err
    # support wraps: integrate the folded kernel over the cell directly
    def f(y: float, x: float) -> float:
        return float(model.g(math.hypot(x, y) / r))

    inner, ierr = integrate.dblquad(f, 0.0, 0.5, 0.0, 0.5,
                                    epsabs=INNER_ABS_TOL, epsrel=1e-8)
    mass = 4.0 * inner
    value = rho * math.exp(-rho * mass)
    return value, value * rho * 4.0 * ierr


@lru_cache(maxsize=1024)
def _expected_isolated_square(model: ConnectionModel, rho: float, b: float):
    r = connection_radius(model.C, rho, b)
    cutoff = model.cutoff
    reach = r * cutoff
    if reach > 0.5:
        return _expected_isolated_square_direct(model, rho, r)
    c_t, c_err = _radial_mass(model)
    scale = rho * r * r
    interior = (1.0 - 2.0 * reach) ** 2 * math.exp(-scale * c_t)

    k_edge, k_corner = _visible_mass_functions(model)

    def edge_f(delta: float) -> float:
        return math.exp(-scale * k_edge(delta))

    # relative tolerances only: at large density these integrals are far
    # below any fixed absolute floor, which would end quad on its first pass
    q_edge, e_err = integrate.quad(edge_f, 0.0, cutoff, epsabs=0.0,
                                   epsrel=OUTER_REL_TOL, limit=200)

    def corner_inner(d2: float):
        def f(d1: float) -> float:
            return math.exp(-scale * k_corner(d1, d2))

        v, err = integrate.quad(f, 0.0, cutoff, epsabs=0.0,
                                epsrel=OUTER_REL_TOL, limit=200)
        return v, err

    def corner_f(d2: float) -> float:
        return corner_inner(d2)[0]

    q_corner, c2_err = integrate.quad(corner_f, 0.0, cutoff, epsabs=0.0,
                                      epsrel=OUTER_REL_TOL, limit=200)

    value = rho * (interior
                   + 4.0 * (1.0 - 2.0 * reach) * r * q_edge
                   + 4.0 * r * r * q_corner)
    err = rho * (4.0 * r * e_err + 4.0 * r * r * c2_err
                 + interior * scale * c_err
                 + (q_edge * 4.0 * r + q_corner * 4.0 * r * r) * scale * INNER_ABS_TOL)
    return value, err


def _expected_isolated_square_direct(model: ConnectionModel, rho: float, r: float):
    """Fallback for supports wider than half the cell: integrate
    exp(-rho * I(y)) over one quadrant with the general visibility angle."""
    cutoff = model.cutoff

    def mass(a: float, bb: float) -> float:
        deltas = ((0.5 - a) / r, (0.5 + a) / r, (0.5 - bb) / r, (0.5 + bb) / r)
        return _visible_mass_general(model, deltas, cutoff)

    def f(y: float, x: float) -> float:
        return math.exp(-rho * r * r * mass(x, y))

    quadrant, err = integrate.dblquad(f, 0.0, 0.5, 0.0, 0.5,
                                      epsabs=1e-10, epsrel=1e-6)
    return rho * 4.0 * quadrant, rho * 4.0 * err


def _visible_mass_functions(model: ConnectionModel):
    """(K_edge, K_corner) in scaled units.

    K_edge(delta): kernel mass visible from a node at scaled distance delta
    from one straight boundary; K_corner(d1, d2): same with two
    perpendicular boundaries.  Closed forms for the unit disk, angular
    quadrature otherwise.
    """
    if model.kind == "unit_disk":
        pi = math.pi

        def k_edge(delta: float) -> float:
            return pi - _disk_cap(delta)

        def k_corner(d1: float, d2: float) -> float:
            return pi - _disk_cap(d1) - _disk_cap(d2) + _disk_corner(d1, d2)

        return k_edge, k_corner

    cutoff = model.cutoff

    def k_edge(delta: float) -> float:
        return _visible_mass_general(model, (delta, math.inf, math.inf, math.inf),
                                     cutoff)

    def k_corner(d1: float, d2: float) -> float:
        return _visible_mass_general(model, (d1, math.inf, d2, math.inf), cutoff)

    return k_edge, k_corner


def _visible_mass_general(model: ConnectionModel, deltas, cutoff: float) -> float:
    """int_0^cutoff u g(u) theta(u) du where theta(u) is the angular measure
    of the circle of scaled radius u that stays inside the boundary: up to
    four clipping half-planes at distances `deltas`, adjacent overlaps
    corrected (triple overlaps cannot occur for a center inside the cell)."""
    d_r, d_l, d_t, d_b = deltas
    finite = sorted(d for d in deltas if d < cutoff)

    def theta(u: float) -> float:
        a_r = math.acos(d_r / u) if u > d_r else 0.0
        a_l = math.acos(d_l / u) if u > d_l else 0.0
        a_t = math.acos(d_t / u) if u > d_t else 0.0
        a_b = math.acos(d_b / u) if u > d_b else 0.0
        total = 2.0 * math.pi - 2.0 * (a_r + a_l + a_t + a_b)
        half_pi = 0.5 * math.pi
        for x, y in ((a_r, a_t), (a_t, a_l), (a_l, a_b), (a_b, a_r)):
            if x > 0.0 and y > 0.0:
                total += max(0.0, x + y - half_pi)
        return total

    def f(u: float) -> float:
        return u * float(model.g(u)) * theta(u)

    points = _quad_points(finite, 0.0, cutoff, model)
    # epsrel looser than elsewhere: theta has square-root kinks at the
    # clipping radii and tighter targets only buy roundoff noise
    value, err = integrate.quad(f, 0.0, cutoff, epsabs=INNER_ABS_TOL,
                                epsrel=1e-8, limit=200, points=points)
    if err > 1e-6:
        raise QuadratureError("visible-mass integral did not converge", estimate=err)
    return value


def _disk_cap(delta: float) -> float:
    """Area of the unit disk beyond a chord at distance delta from center."""
    if delta >= 1.0:
        return 0.0
    return math.acos(delta) - delta * math.sqrt(1.0 - delta * delta)


def _disk_corner(d1: float, d2: float) -> float:
    """Area of the unit disk with x >= d1 and y >= d2 (both in [0, 1))."""
    if d1 * d1 + d2 * d2 >= 1.0:
        return 0.0
    x_hi = math.sqrt(1.0 - d2 * d2)
    return _disk_f(x_hi) - _disk_f(d1) - d2 * (x_hi - d1)


def _disk_f(x: float) -> float:
    # antiderivative of sqrt(1 - x^2)
    return 0.5 * (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(min(1.0, x)))


def _knots(model: ConnectionModel | None) -> tuple[float, ...]:
    """Table knots to mark as quadrature break points; dense tables are
    thinned, adaptive refinement handles the rest."""
    if model is None or model.radii is None:
        return ()
    return model.radii[::max(1, len(model.radii) // 32)]


def _quad_points(candidates, a: float, b: float, model: ConnectionModel | None = None):
    pts = {float(p) for p in (*candidates, *_knots(model)) if a < p < b}
    return sorted(pts) or None


# ---------------------------------------------------------------------------
# pair correlation and dependence bounds


def pair_correlation_factor(model: ConnectionModel, rho: float, b: float,
                            d: float) -> float:
    """Joint-isolation correction for two nodes at separation d:
    (1 - g(d/r)) * exp(rho * cross mass of the two kernels).

    Above 1 the pair is more likely jointly isolated than independence
    suggests; exactly 0 within the hard support of a unit disk; within
    float noise of 1 once the supports no longer overlap.
    """
    if d < 0.0:
        raise ParameterError(f"separation must be >= 0, got {d}")
    _require_scale(rho, b)
    r = connection_radius(model.C, rho, b)
    s = d / r
    g_d = float(model.g(s))
    cross = _cross_mass(model, s)
    return (1.0 - g_d) * math.exp(rho * r * r * cross)


def _cross_mass(model: ConnectionModel, s: float) -> float:
    """int g(|y|) g(|y - s e_x|) dy over the plane, scaled units."""
    cutoff = model.cutoff
    if s >= 2.0 * cutoff:
        return 0.0
    if model.kind == "unit_disk":
        # overlap of two unit disks with centers s apart
        half = 0.5 * s
        return 2.0 * math.acos(half) - half * math.sqrt(4.0 - s * s)
    kinks = (cutoff, *_knots(model))

    def inner(u: float) -> float:
        if u == 0.0:
            return 2.0 * math.pi * float(model.g(s))

        def h(phi: float) -> float:
            dist = math.sqrt(max(0.0, u * u + s * s - 2.0 * u * s * math.cos(phi)))
            return float(model.g(dist))

        # the second factor has kinks where the distance crosses the cutoff
        # and every table knot
        brk = None
        if s > 0.0:
            cs = [(u * u + s * s - k * k) / (2.0 * u * s) for k in kinks]
            brk = sorted({math.acos(c) for c in cs if -1.0 < c < 1.0}) or None
        v, _ = integrate.quad(h, 0.0, math.pi, epsabs=INNER_ABS_TOL,
                              epsrel=1e-8, limit=100, points=brk)
        return 2.0 * v

    def f(u: float) -> float:
        return u * float(model.g(u)) * inner(u)

    lo = max(0.0, s - cutoff)
    pts = _quad_points([s, abs(cutoff - s)], lo, cutoff, model)
    value, err = integrate.quad(f, lo, cutoff, epsabs=INNER_ABS_TOL,
                                epsrel=1e-8, limit=200, points=pts)
    if err > 1e-6:
        raise QuadratureError("cross-mass integral did not converge", estimate=err)
    return value


@lru_cache(maxsize=1024)
def chen_stein_terms(model: ConnectionModel, rho: float, b: float,
                     params: ChenSteinParams = ChenSteinParams()) -> tuple[float, float]:
    """Dependence terms (b1, b2) for the torus isolated-node count.

    b1 = 4 pi E^2 ((log rho + b) / (C rho))^(1 - eps) with E the finite-rho
    torus expectation; b2 integrates the joint-isolation weight over the
    dependence disc of scaled radius 2 r^(-eps).  Both terms shrink as the
    density grows; their sum drives the total-variation bound.
    """
    scale_log = _require_scale(rho, b)
    eps = params.epsilon
    r = connection_radius(model.C, rho, b)
    cutoff = model.cutoff
    if r * cutoff > 0.5:
        raise ParameterError("scaled support exceeds half the torus period")
    e_tor, _ = _expected_isolated_torus(model, rho, b)
    r2 = scale_log / (model.C * rho)
    b1 = 4.0 * math.pi * e_tor * e_tor * r2 ** (1.0 - eps)

    s_max = 2.0 * r ** (-eps)
    period = 1.0 / r
    if s_max > 0.5 * period:
        raise ParameterError(
            "dependence disc exceeds half the torus period; increase rho or epsilon"
        )
    c_t, _ = _radial_mass(model)
    mass_scale = rho * r * r

    def f(s: float) -> float:
        cross = _cross_mass(model, s)
        back = period - s
        if back < 2.0 * cutoff:
            cross += _cross_mass(model, back)
        w = 1.0 - float(model.g(s))
        return 2.0 * math.pi * s * w * math.exp(-mass_scale * (2.0 * c_t - cross))

    pts = _quad_points([cutoff, 2.0 * cutoff, period - 2.0 * cutoff], 0.0, s_max, None)
    value, err = integrate.quad(f, 0.0, s_max, epsabs=params.quad_abs,
                                epsrel=params.quad_rel, limit=300, points=pts)
    if err > max(1e-6, params.quad_rel * abs(value) * 100.0):
        raise QuadratureError("dependence integral did not converge", estimate=err)
    b2 = rho * rho * r * r * value
    return b1, b2


def chen_stein_tv_bound(b1: float, b2: float, b3: float, lam: float) -> float:
    """Assemble the total-variation bound from its three terms.

    This module does not evaluate b3; passing b3 = 0 (the usual call)
    yields a bound missing that correction.
    """
    for name, v in (("b1", b1), ("b2", b2), ("b3", b3)):
        if not math.isfinite(v) or v < 0.0:
            raise ParameterError(f"{name} must be finite and >= 0, got {v}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"lambda must be positive, got {lam}")
    return (b1 + b2) * min(1.0, 1.0 / lam) + b3 * min(1.0, 1.0 / math.sqrt(lam))


# ---------------------------------------------------------------------------
# discrete distributions


def poisson_pmf(lam: float, k_max: int) -> DiscreteDistribution:
    """Poisson(lam) over k = 0..k_max with the remainder as tail mass.

    Stable multiplicative recurrence p_k = p_{k-1} * lam / k.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    if k_max < 0:
        raise ParameterError(f"k_max must be >= 0, got {k_max}")
    pmf = np.zeros(k_max + 1, dtype=np.float64)
    p = math.exp(-lam)
    pmf[0] = p
    for k in range(1, k_max + 1):
        p *= lam / k
        pmf[k] = p
    tail = max(0.0, 1.0 - float(pmf.sum()))
    return DiscreteDistribution(pmf=pmf, tail_mass=tail)


def empirical_distribution(counts, k_max: int | None = None) -> DiscreteDistribution:
    """Histogram of observed nonnegative integers as a distribution."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ParameterError("need at least one observation")
    if np.any(counts < 0):
        raise ParameterError("counts must be >= 0")
    hi = int(counts.max())
    if k_max is None:
        k_max = hi
    pmf = np.bincount(np.minimum(counts, k_max + 1),
                      minlength=k_max + 2).astype(np.float64)
    pmf /= counts.size
    return DiscreteDistribution(pmf=pmf[: k_max + 1], tail_mass=float(pmf[k_max + 1]))


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation with tables zero-padded to a common length and the
    two tail masses compared against each other."""
    n = max(p.pmf.size, q.pmf.size)
    pp = np.zeros(n)
    qq = np.zeros(n)
    pp[: p.pmf.size] = p.pmf
    qq[: q.pmf.size] = q.pmf
    return 0.5 * float(np.abs(pp - qq).sum()) + 0.5 * abs(p.tail_mass - q.tail_mass)
