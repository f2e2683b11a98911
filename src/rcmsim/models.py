"""Connection kernels: radial profiles g with their integral constant.

A kernel g maps a nonnegative scaled distance to a connection probability,
is non-increasing, and must integrate to a finite constant
C = integral over the plane of g(|x|) = int_0^inf 2 pi x g(x) dx.
The constant sets the scaling of the connection range,
r(rho, b) = sqrt((log rho + b) / (C rho)), natural logarithm throughout.

Kernels are truncated: beyond `cutoff` the evaluated g is exactly 0, with
cutoff chosen as the smallest x where the raw profile drops to the
truncation epsilon (1e-12 by default).  For table kernels the truncation
is part of the definition; for analytic kinds the mass beyond the cutoff
is tracked as an error estimate and as the omitted-edge bias reported by
the sampler.

Supported kinds:

  unit_disk    g(x) = 1 for x <= 1, else 0.  C = pi, cutoff exactly 1.
  gaussian     g(x) = exp(-x^2).  C = pi.
  log_normal   g(x) = (1/2) erfc(10 eta log10(x) / (sqrt(2) sigma_db)),
               g(0) = 1.  The standard dB-shadowing form with spread
               sigma_db and path-loss exponent eta; results quoted for
               this kind are specific to this functional shape.
  table        linear interpolation of (radius, value) knots, clamped to
               the first/last value outside the knot span, 0 beyond cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, special

from .errors import ModelError, ParameterError, QuadratureError

TRUNCATION_EPS = 1e-12
QUAD_ABS_TOL = 1e-9
# panel budget for the adaptive radial quadrature
QUAD_LIMIT = 200
# proxy tolerance for the x^2 log^2 x g(x) tail check
TAIL_TOL = 1e-9


@dataclass(frozen=True)
class ModelValidationReport:
    """Outcome of the structural checks on a kernel.

    The model is usable only if every flag holds.  `tail_witness` is the
    largest sampled x > 1 where x^2 log^2(x) g(x) still exceeded the
    tolerance, kept as a diagnostic even when `tail_ok` holds.
    """

    monotone_ok: bool
    range_ok: bool
    integral_finite: bool
    tail_ok: bool
    tail_witness: float | None = None

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.range_ok and self.integral_finite and self.tail_ok


@dataclass(frozen=True)
class ConnectionModel:
    """An immutable kernel with its precomputed constants.

    C is the radial integral of the truncated profile (analytic where the
    kind allows it); C_error bounds the quadrature error plus any mass
    beyond the cutoff.
    """

    kind: str
    cutoff: float
    C: float
    C_error: float
    cutoff_eps: float
    sigma_db: float | None = None
    eta: float | None = None
    radii: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def g_raw(self, x):
        """Profile before cutoff truncation (tables are defined truncated)."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "unit_disk":
            return (x <= 1.0).astype(np.float64)
        if self.kind == "gaussian":
            return np.exp(-np.square(x))
        if self.kind == "log_normal":
            scale = 10.0 * self.eta / (math.sqrt(2.0) * self.sigma_db)
            with np.errstate(divide="ignore"):
                z = scale * np.log10(x)
            return np.where(x > 0.0, 0.5 * special.erfc(z), 1.0)
        # table
        return np.interp(x, self.radii, self.values)

    def g(self, x):
        """Truncated profile: exactly 0 beyond the cutoff."""
        x = np.asarray(x, dtype=np.float64)
        out = self.g_raw(x)
        if math.isfinite(self.cutoff):
            out = np.where(x > self.cutoff, 0.0, out)
        return out

    @cached_property
    def validation(self) -> ModelValidationReport:
        return validate_model(self)

    def __repr__(self):  # keep table reprs short
        extra = ""
        if self.kind == "log_normal":
            extra = f", sigma_db={self.sigma_db}, eta={self.eta}"
        elif self.kind == "table":
            extra = f", knots={len(self.radii)}"
        return (
            f"ConnectionModel(kind={self.kind!r}, cutoff={self.cutoff:.6g}, "
            f"C={self.C:.9g}{extra})"
        )


def eval_g(model: ConnectionModel, x):
    """Evaluate the truncated kernel at x (scalar or array), x >= 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ParameterError("kernel argument must be >= 0")
    out = model.g(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def connection_radius(C: float, rho: float, b: float) -> float:
    """Connection range sqrt((log rho + b) / (C rho)), natural log.

    Rejects rho <= 0, non-finite or non-positive C, and any (rho, b)
    with log rho + b <= 0: below that scale the range model is meaningless.
    """
    if not (math.isfinite(C) and C > 0.0):
        raise ParameterError(f"integral constant must be finite and positive, got {C}")
    if not (math.isfinite(rho) and rho > 0.0):
        raise ParameterError(f"density must be positive, got {rho}")
    s = math.log(rho) + b
    if s <= 0.0:
        raise ParameterError(f"log rho + b must be positive, got {s:.6g}")
    return math.sqrt(s / (C * rho))


# ---------------------------------------------------------------------------
# factories


def unit_disk() -> ConnectionModel:
    return ConnectionModel(
        kind="unit_disk", cutoff=1.0, C=math.pi, C_error=0.0, cutoff_eps=TRUNCATION_EPS
    )


def gaussian(cutoff_eps: float = TRUNCATION_EPS) -> ConnectionModel:
    _check_eps(cutoff_eps)
    cutoff = _bisect_cutoff(lambda x: math.exp(-x * x), cutoff_eps)
    # mass beyond the cutoff, pi * exp(-cutoff^2), goes to the error bound
    return ConnectionModel(
        kind="gaussian",
        cutoff=cutoff,
        C=math.pi,
        C_error=math.pi * math.exp(-cutoff * cutoff),
        cutoff_eps=cutoff_eps,
    )


def log_normal(sigma_db: float, eta: float, cutoff_eps: float = TRUNCATION_EPS) -> ConnectionModel:
    if not (math.isfinite(sigma_db) and sigma_db > 0.0):
        raise ParameterError(f"sigma_db must be positive, got {sigma_db}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise ParameterError(f"eta must be positive, got {eta}")
    _check_eps(cutoff_eps)
    scale = 10.0 * eta / (math.sqrt(2.0) * sigma_db)

    def raw(x: float) -> float:
        if x <= 0.0:
            return 1.0
        return 0.5 * math.erfc(scale * math.log10(x))

    cutoff = _bisect_cutoff(raw, cutoff_eps)
    value, err = _quad_radial(raw, 0.0, cutoff)
    tail, tail_err = _quad_radial(raw, cutoff, math.inf, strict=False)
    model = ConnectionModel(
        kind="log_normal",
        cutoff=cutoff,
        C=value,
        C_error=err + tail + tail_err,
        cutoff_eps=cutoff_eps,
        sigma_db=float(sigma_db),
        eta=float(eta),
    )
    return model


def table_model(knots, cutoff_eps: float = TRUNCATION_EPS) -> ConnectionModel:
    """Kernel from (radius, value) pairs, linearly interpolated.

    Radii must be strictly increasing and nonnegative; values must be
    finite and nonnegative.  Value monotonicity and the [0, 1] range are
    checked by validate_model and reported, not raised, so that defective
    tables can be inspected.
    """
    _check_eps(cutoff_eps)
    knots = [(float(r), float(v)) for r, v in knots]
    if len(knots) < 2:
        raise ModelError("table kernel needs at least two knots")
    radii = tuple(r for r, _ in knots)
    values = tuple(v for _, v in knots)
    if any(not math.isfinite(r) or r < 0.0 for r in radii):
        raise ModelError("table radii must be finite and >= 0")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ModelError("table radii must be strictly increasing")
    if any(not math.isfinite(v) or v < 0.0 for v in values):
        raise ModelError("table values must be finite and >= 0")
    if values[0] <= cutoff_eps:
        raise ModelError("table kernel starts at or below the truncation epsilon")

    cutoff = _table_cutoff(radii, values, cutoff_eps)
    if math.isfinite(cutoff):
        def raw(x: float) -> float:
            return float(np.interp(x, radii, values))

        C, C_error = _quad_radial(raw, 0.0, cutoff, points=radii)
    else:
        # no radius reaches the epsilon: the clamped profile keeps a
        # constant plateau forever, so probe the partial integrals
        C, C_error = _diverging_radial_integral(radii, values)
    return ConnectionModel(
        kind="table",
        cutoff=cutoff,
        C=C,
        C_error=C_error,
        cutoff_eps=cutoff_eps,
        radii=radii,
        values=values,
    )


def load_table(path, cutoff_eps: float = TRUNCATION_EPS) -> ConnectionModel:
    """Read a two-column text file (radius value per line, # comments)."""
    knots = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ModelError(f"{path}:{lineno}: expected 'radius value', got {line!r}")
            try:
                knots.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ModelError(f"{path}:{lineno}: {exc}") from exc
    if not knots:
        raise ModelError(f"{path}: no knots found")
    return table_model(knots, cutoff_eps=cutoff_eps)


# ---------------------------------------------------------------------------
# integral constant


def integral_C(model: ConnectionModel, force_quadrature: bool = False) -> float:
    """Radial integral int_0^inf 2 pi x g(x) dx of the truncated kernel.

    Analytic for unit_disk and gaussian unless `force_quadrature` is set,
    in which case the adaptive path is exercised (used by tests).
    """
    if not force_quadrature:
        return model.C
    if not math.isfinite(model.cutoff):
        value, _ = _diverging_radial_integral(model.radii, model.values)
        return value

    def raw(x: float) -> float:
        return float(model.g(x))

    value, _ = _quad_radial(raw, 0.0, model.cutoff, points=model.radii or ())
    return value


def tail_integral(model: ConnectionModel) -> float:
    """Mass of the raw profile beyond the cutoff, int 2 pi x g_raw dx.

    Zero for unit_disk and for tables (their truncation is definitional).
    """
    if self_truncated(model):
        return 0.0
    if model.kind == "gaussian":
        return math.pi * math.exp(-model.cutoff * model.cutoff)
    # log_normal
    def raw(x: float) -> float:
        return float(model.g_raw(x))

    tail, _ = _quad_radial(raw, model.cutoff, math.inf, strict=False)
    return tail


def self_truncated(model: ConnectionModel) -> bool:
    return model.kind in ("unit_disk", "table")


# ---------------------------------------------------------------------------
# validation


def default_validation_grid(model: ConnectionModel) -> np.ndarray:
    """Sample grid spanning [0, 10 * cutoff] (capped at ten times the last
    knot when the cutoff is infinite), dense inside the support and
    geometric beyond it, with table knots included exactly."""
    anchor = model.cutoff
    if not math.isfinite(anchor):
        anchor = max(model.radii[-1], 1.0)
    head = np.linspace(0.0, anchor, 513)
    tail = np.geomspace(anchor, 10.0 * anchor, 129)[1:]
    pieces = [head, tail]
    if model.radii is not None:
        pieces.append(np.asarray(model.radii, dtype=np.float64))
    return np.unique(np.concatenate(pieces))


def validate_model(model: ConnectionModel, grid: np.ndarray | None = None) -> ModelValidationReport:
    """Structural checks on a kernel over a sample grid.

    Monotone non-increase and the [0, 1] range are checked pointwise; the
    integral flag reflects the constant computed at construction; the tail
    flag requires the proxy x^2 log^2(x) g(x) to decrease to below
    tolerance over the largest decade of the grid.  Kernels with a finite
    cutoff satisfy the tail condition by construction (the proxy is zero
    past the cutoff); the flag exists to catch profiles that never reach
    the truncation epsilon.
    """
    if grid is None:
        grid = default_validation_grid(model)
    grid = np.unique(np.asarray(grid, dtype=np.float64))
    if grid.size < 8 or grid[0] > 0.0:
        raise ParameterError("validation grid must start at 0 and have enough points")
    g = model.g(grid)

    range_ok = bool(np.all(g >= 0.0) and np.all(g <= 1.0))
    monotone_ok = bool(np.all(np.diff(g) <= 1e-12))
    integral_finite = math.isfinite(model.C) and model.C > 0.0

    beyond_one = grid > 1.0
    witness = None
    tail_ok = True
    if np.any(beyond_one):
        x = grid[beyond_one]
        t = x * x * np.square(np.log(x)) * g[beyond_one]
        x_max = grid[-1]
        decade = x >= x_max / 10.0
        td = t[decade]
        tail_ok = bool(np.all(np.diff(td) <= 1e-12) and td.size > 0 and td[-1] <= TAIL_TOL)
        if not tail_ok:
            # largest abscissa where the decay proxy is still above tolerance
            over = t > TAIL_TOL
            if np.any(over):
                witness = float(x[over][-1])
            else:
                witness = float(x[decade][0])
    return ModelValidationReport(
        monotone_ok=monotone_ok,
        range_ok=range_ok,
        integral_finite=integral_finite,
        tail_ok=tail_ok,
        tail_witness=witness,
    )


# ---------------------------------------------------------------------------
# helpers


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"truncation epsilon must be in (0, 1), got {eps}")


def _bisect_cutoff(raw, eps: float) -> float:
    """Smallest x with raw(x) <= eps, by bisection on the monotone profile."""
    lo = 0.0
    hi = 1.0
    for _ in range(80):
        if raw(hi) <= eps:
            break
        lo = hi
        hi *= 2.0
    else:
        return math.inf
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if raw(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _table_cutoff(radii, values, eps: float) -> float:
    """First radius where the interpolated table drops to eps, inf if never."""
    for (r0, v0), (r1, v1) in zip(zip(radii, values), zip(radii[1:], values[1:])):
        if v1 <= eps < v0:
            if v0 == v1:
                return r0
            # linear crossing inside the segment
            return r0 + (r1 - r0) * (v0 - eps) / (v0 - v1)
        if v1 <= eps:
            return r0
    return math.inf


def _quad_radial(raw, a: float, b: float, points=(), strict: bool = True
                 ) -> tuple[float, float]:
    """Adaptive quadrature of 2 pi x raw(x) over [a, b]; b may be inf.

    Break points inside (a, b) split the range (finite b only).  With
    `strict`, an error estimate above 1e-6 raises QuadratureError; the
    tail mass and the divergence probe take the estimate as it comes.
    """
    def f(x: float) -> float:
        return 2.0 * math.pi * x * raw(x)

    pts = [p for p in points if a < p < b] or None
    # QUADPACK wants strictly more subintervals than break points
    limit = QUAD_LIMIT if pts is None else max(QUAD_LIMIT, 2 * len(pts) + 10)
    value, err = integrate.quad(f, a, b, epsabs=QUAD_ABS_TOL, epsrel=1e-12,
                                limit=limit, points=pts)
    if strict and err > 1e-6:
        raise QuadratureError("radial integral did not converge", estimate=err)
    return max(value, 0.0), err


def _diverging_radial_integral(radii, values) -> tuple[float, float]:
    """Partial integrals under doubling of the upper limit.

    Divergence is declared once the partial integral moves by more than the
    tolerance across three successive doublings; the profile is the table
    interpolation with its clamp plateau.
    """
    def raw(x: float) -> float:
        return float(np.interp(x, radii, values))

    upper = max(1.0, 2.0 * radii[-1])
    total, err = _quad_radial(raw, 0.0, upper, radii, strict=False)
    violations = 0
    for _ in range(64):
        delta, derr = _quad_radial(raw, upper, 2.0 * upper, radii, strict=False)
        upper *= 2.0
        total += delta
        err += derr
        if delta > QUAD_ABS_TOL:
            violations += 1
            if violations >= 3:
                return math.inf, math.inf
        else:
            return total, err
    return math.inf, math.inf
