"""Connection kernels: radial profiles g with their integral constant.

A kernel g maps a nonnegative scaled distance to a connection probability,
is non-increasing, and must integrate to a finite constant
C = integral over the plane of g(|x|) = int_0^inf 2 pi x g(x) dx.
The constant sets the scaling of the connection range,
r(rho, b) = sqrt((log rho + b) / (C rho)), natural logarithm throughout.

Kernels are truncated: beyond `cutoff` the evaluated g is exactly 0, with
cutoff chosen as the smallest x where the raw profile drops to the
truncation epsilon (1e-12 by default).  C is always the mass of this
truncated kernel, the one the sampler and the theory use, so the torus
mean is e^{-b} wherever the support fits.  For table kernels the
truncation is part of the definition; for analytic kinds the raw
profile's mass beyond the cutoff is C_error, the omitted-edge bias
reported by the sampler.

Supported kinds, each with its C in closed form:

  unit_disk    g(x) = 1 for x <= 1, else 0.  C = pi, cutoff exactly 1.
  gaussian     g(x) = exp(-x^2).  C = pi (1 - exp(-cutoff^2));
               C_error = pi exp(-cutoff^2), the tail.
  log_normal   g(x) = (1/2) erfc(10 eta log10(x) / (sqrt(2) sigma_db)),
               g(0) = 1.  The standard dB-shadowing form with spread
               sigma_db and path-loss exponent eta; results quoted for
               this kind are specific to this functional shape.  In
               t = ln x, g = (1/2) erfc(a t) with
               a = 10 eta / (sqrt(2) sigma_db ln 10), and one integration
               by parts gives the truncated mass, with T = ln cutoff,
                   C = (pi/2) e^{2T} erfc(a T) + (pi/2) e^{1/a^2} erfc(1/a - a T).
               The untruncated mass is pi e^{1/a^2} = pi exp(2 sigma_db^2 / xi^2),
               xi = 10 eta / ln 10 (Bettstetter and Hartmann, Wireless
               Networks 11, 2005); C_error is the tail pi e^{1/a^2} - C.
               No cutoff below 2^80 or an overflowing e^{1/a^2} gives
               C = C_error = inf, as for a table that never drops.
  table        linear interpolation of (radius, value) knots, clamped to
               the first/last value outside the knot span, 0 beyond cutoff.
               Linear between knots, so C sums int 2 pi x (alpha + beta x) dx
               over the pieces; C_error = 0.  A table that never drops to
               the epsilon keeps its clamped plateau, above eps, forever:
               C = C_error = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ParameterError

TRUNCATION_EPS = 1e-12


@dataclass(frozen=True)
class ModelValidationReport:
    """Outcome of the structural checks on a kernel.

    The model is usable only if every flag holds; `validate_model` says
    what each one checks.
    """

    monotone_ok: bool
    range_ok: bool
    integral_finite: bool
    tail_ok: bool

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.range_ok and self.integral_finite and self.tail_ok


@dataclass(frozen=True)
class ConnectionModel:
    """An immutable kernel with its precomputed constants.

    C is the radial integral of the truncated profile, in closed form;
    C_error is the mass of the raw profile beyond the cutoff, zero for the
    self-truncated kinds.
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
            from scipy import special

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


def connection_radius(C: float, rho: float, b: float) -> float:
    """Connection range sqrt((log rho + b) / (C rho)), natural log.

    Rejects rho <= 0, non-finite or non-positive C, and any (rho, b)
    with log rho + b <= 0 or not finite: below that scale the range model
    is meaningless.  C * rho is never formed, as it overflows at large rho.
    """
    if not (math.isfinite(C) and C > 0.0):
        raise ParameterError(f"integral constant must be finite and positive, got {C}")
    if not (math.isfinite(rho) and rho > 0.0):
        raise ParameterError(f"density must be positive, got {rho}")
    s = math.log(rho) + b
    if not (math.isfinite(s) and s > 0.0):
        raise ParameterError(f"log rho + b must be finite and positive, got {s:.6g}")
    return math.sqrt(s / C / rho)


def support_radius(model: ConnectionModel, rho: float, b: float) -> float:
    """`connection_radius` of the model, refusing a scaled support
    r * cutoff above 1/2: the package's one rule for every metric.  Within
    it the support fits half the torus period, and on the square no point
    sees two opposite edges."""
    r = connection_radius(model.C, rho, b)
    if r * model.cutoff > 0.5:
        raise ParameterError(f"r * cutoff = {r * model.cutoff:.4g} exceeds 1/2")
    return r


# ---------------------------------------------------------------------------
# factories


def unit_disk() -> ConnectionModel:
    return ConnectionModel(
        kind="unit_disk", cutoff=1.0, C=math.pi, C_error=0.0, cutoff_eps=TRUNCATION_EPS
    )


def gaussian(cutoff_eps: float = TRUNCATION_EPS) -> ConnectionModel:
    _check_eps(cutoff_eps)
    cutoff = _bisect_cutoff(lambda x: math.exp(-x * x), cutoff_eps)
    tail = math.exp(-cutoff * cutoff)
    return ConnectionModel(
        kind="gaussian",
        cutoff=cutoff,
        C=math.pi * (1.0 - tail),
        C_error=math.pi * tail,
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
    a = scale / math.log(10.0)
    try:
        full = math.pi * math.exp(1.0 / (a * a))
    except OverflowError:
        full = math.inf
    C = C_error = math.inf  # as for a table that never drops to the epsilon
    if math.isfinite(cutoff) and math.isfinite(full):
        t = math.log(cutoff)
        C = 0.5 * (math.pi * cutoff * cutoff * math.erfc(a * t)
                   + full * math.erfc(1.0 / a - a * t))
        C_error = full - C
    return ConnectionModel(
        kind="log_normal",
        cutoff=cutoff,
        C=C,
        C_error=C_error,
        cutoff_eps=cutoff_eps,
        sigma_db=float(sigma_db),
        eta=float(eta),
    )


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
        x, alpha, beta = table_pieces(radii, values, cutoff)
        C = 2.0 * math.pi * float(np.sum(alpha * np.diff(x**2) / 2.0
                                         + beta * np.diff(x**3) / 3.0))
        C_error = 0.0
    else:
        C = C_error = math.inf
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


def table_pieces(radii, values, cutoff: float):
    """Breaks x_0 = 0 < ... < x_P = cutoff of a table kernel with a finite
    cutoff, and the coefficients of g(u) = alpha_p + beta_p u on each
    piece."""
    x = np.array((0.0, *(k for k in radii if 0.0 < k < cutoff), cutoff))
    gx = np.interp(x, radii, values)
    beta = np.diff(gx) / np.diff(x)
    return x, gx[:-1] - beta * x[:-1], beta


# ---------------------------------------------------------------------------
# validation


def validate_model(model: ConnectionModel) -> ModelValidationReport:
    """Structural checks on a kernel, exact for every kind.

    Monotone non-increase and the [0, 1] range are checked at 0, the
    table knots and the cutoff: a table is linear between them and 0
    beyond the cutoff, and the other kinds hold both by construction.  The
    integral flag reflects the constant computed at construction; the tail
    flag holds when the cutoff is finite, beyond which g is 0.
    """
    g = model.g(np.unique([0.0, *(model.radii or ()), model.cutoff]))
    return ModelValidationReport(
        monotone_ok=bool(np.all(np.diff(g) <= 1e-12)),
        range_ok=bool(np.all(g >= 0.0) and np.all(g <= 1.0)),
        integral_finite=math.isfinite(model.C) and model.C > 0.0,
        tail_ok=math.isfinite(model.cutoff),
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
    """First radius where the interpolated table drops to eps, inf if never.
    table_model keeps values[0] > eps, and the loop passes a segment only
    when v1 > eps, so every segment it reaches starts above eps."""
    for (r0, v0), (r1, v1) in zip(zip(radii, values), zip(radii[1:], values[1:])):
        if v1 <= eps:
            # linear crossing inside the segment
            return r0 + (r1 - r0) * (v0 - eps) / (v0 - v1)
    return math.inf
