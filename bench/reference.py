"""Reference values computed without rcmsim, from numpy and scipy alone.

Each function takes plain numbers (density, offset, kernel parameters) and
returns the quantity the benchmark compares rcmsim's output with.  The
methods differ on purpose from the program's:

- the square-metric isolated-node mean integrates radially first, along
  rays cut by the boundary (closed-form radial primitive G), then over
  the angle, with fixed Gauss-Legendre panels; the program integrates the
  angle first and the radius second, adaptively;
- for the Gaussian it also uses the separable form
  rho * int exp(-rho * M(y1) M(y2)) dy with M an erf profile;
- the Chen-Stein term b2 uses closed-form cross masses (lens area for the
  unit disk, (pi/2) exp(-s^2/2) for the Gaussian);
- graph checks count edges and components from an all-pairs distance
  matrix with scipy.sparse.csgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# the programs' default truncation epsilon for analytic kernels
TRUNCATION_EPS = 1e-12
# the CLI's default Chen-Stein neighbourhood exponent
EPSILON = 0.25
# equal sub-panels per smooth stretch of a Gauss-Legendre rule
PANELS = 4


@dataclass(frozen=True)
class Kernel:
    """A truncated radial kernel g on [0, cutoff] described by plain data.

    kind is "unit_disk", "gaussian" or "table"; knots is the list of
    (radius, value) pairs of a table kernel.
    """

    kind: str
    knots: tuple[tuple[float, float], ...] = ()

    @property
    def cutoff(self) -> float:
        if self.kind == "unit_disk":
            return 1.0
        if self.kind == "gaussian":
            return math.sqrt(-math.log(TRUNCATION_EPS))
        return self.knots[-1][0] if self.knots[-1][1] == 0.0 else math.inf

    @property
    def kinks(self) -> tuple[float, ...]:
        """Radii inside (0, cutoff) where g has a corner."""
        return tuple(t for t, _ in self.knots if 0.0 < t < self.cutoff)

    def g(self, u):
        u = np.asarray(u, dtype=np.float64)
        c = self.cutoff
        if self.kind == "unit_disk":
            return (u <= 1.0).astype(np.float64)
        if self.kind == "gaussian":
            return np.where(u <= c, np.exp(-u * u), 0.0)
        t, v = zip(*self.knots)
        return np.where(u <= c, np.interp(u, t, v), 0.0)

    def G(self, u):
        """Radial primitive int_0^min(u, cutoff) t g(t) dt, exact."""
        u = np.minimum(np.asarray(u, dtype=np.float64), self.cutoff)
        if self.kind == "unit_disk":
            return 0.5 * u * u
        if self.kind == "gaussian":
            return 0.5 * (1.0 - np.exp(-u * u))
        out = np.zeros_like(u)
        for (t0, v0), (t1, v1) in zip(self.knots, self.knots[1:]):
            m = (v1 - v0) / (t1 - t0)
            lo = np.clip(u, t0, t1)
            # t * (v0 + m (t - t0)) integrated from t0 to lo
            a, b = v0 - m * t0, m

            def prim(x):
                return a * x * x / 2.0 + b * x ** 3 / 3.0

            out += prim(lo) - prim(t0)
        return out

    @property
    def C(self) -> float:
        """Radial mass 2 pi G(cutoff) of the truncated kernel."""
        return 2.0 * math.pi * float(self.G(self.cutoff))

    def cross_mass(self, s):
        """int g(|y|) g(|y - s e_x|) dy in closed form (unit disk, Gaussian)."""
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "unit_disk":
            h = np.minimum(0.5 * s, 1.0)
            return 2.0 * np.arccos(h) - h * np.sqrt(np.maximum(0.0, 4.0 - s * s))
        if self.kind == "gaussian":
            return 0.5 * math.pi * np.exp(-0.5 * s * s)
        raise ValueError(f"no closed-form cross mass for {self.kind}")


UNIT_DISK = Kernel("unit_disk")
GAUSSIAN = Kernel("gaussian")


def radius(kernel: Kernel, rho: float, b: float) -> float:
    """Connection range sqrt((log rho + b) / (C rho)) with the analytic C
    (pi for the unit disk and the Gaussian, the exact table integral)."""
    c = math.pi if kernel.kind in ("unit_disk", "gaussian") else kernel.C
    return math.sqrt((math.log(rho) + b) / (c * rho))


def _gl_panels(breaks: np.ndarray, n: int):
    """n-point Gauss-Legendre nodes and weights on consecutive panels.

    breaks has shape (..., k) and is sorted along its last axis; the result
    has shape (..., (k - 1) * n).  Zero-width panels contribute nothing.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    a = breaks[..., :-1, None]
    half = 0.5 * (breaks[..., 1:, None] - a)
    nodes = a + half * (1.0 + x)
    weights = half * w
    shape = breaks.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def _edge_deficit(kernel: Kernel, d: np.ndarray, x, n: int = 16):
    """int_0^x [G(c) - G(d / cos phi)] dphi for scaled distances d to a line.

    Substituting d / cos phi = d cosh t (dphi = dt / cosh t) removes the
    steep layer near phi = pi/2 for small d.  Rays with d cosh t beyond
    the cutoff leave the support before the line and contribute nothing;
    panels also break where the ray length crosses a kink radius.
    """
    c = kernel.cutoff
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(divide="ignore"):
        top = np.minimum(np.arccosh(1.0 / np.cos(np.minimum(x, 0.5 * math.pi))),
                         np.arccosh(np.maximum(c / d, 1.0)))
        inner = [np.arccosh(np.maximum(t / d, 1.0)) for t in kernel.kinks]
    cuts = [np.minimum(p, top) for p in inner]
    cuts += [top * k / PANELS for k in range(1, PANELS)]
    breaks = np.sort(np.stack([np.zeros_like(d)] + cuts + [top], -1), axis=-1)
    t, w = _gl_panels(breaks, n)
    return np.sum(w * (kernel.G(c) - kernel.G(d[..., None] * np.cosh(t))) / np.cosh(t),
                  axis=-1)


def square_isolated_mean(kernel: Kernel, rho: float, b: float, n: int = 32) -> float:
    """Expected isolated nodes on the unit square, by the ray method.

    The cell splits into an interior (full mass visible), four edge strips
    and four corners of scaled width c = cutoff; in a strip the visible
    mass is C - 2 H(d, acos(d/c)), in a corner the two lines clip the rays
    on either side of the corner direction.
    """
    r = radius(kernel, rho, b)
    c = kernel.cutoff
    reach = r * c
    if reach > 0.5:
        raise ValueError("support wider than half the cell")
    kappa = rho * r * r
    C = kernel.C
    full = math.pi / 2.0
    breaks = np.array(sorted({0.0, c, *kernel.kinks}))
    d, w = _gl_panels(breaks, n)

    strip = C - 2.0 * _edge_deficit(kernel, d, np.full_like(d, full))
    q_edge = float(np.sum(w * np.exp(-kappa * strip)))

    d1, d2 = np.meshgrid(d, d, indexing="ij")
    corner_dir = np.arctan2(d2, d1)
    half1 = _edge_deficit(kernel, d1, np.full_like(d1, full))
    half2 = _edge_deficit(kernel, d2, np.full_like(d2, full))
    corner = (C - half1 - _edge_deficit(kernel, d1, corner_dir)
              - half2 - _edge_deficit(kernel, d2, full - corner_dir))
    q_corner = float(np.sum(np.outer(w, w) * np.exp(-kappa * corner)))

    interior = (1.0 - 2.0 * reach) ** 2 * math.exp(-kappa * C)
    return rho * (interior + 4.0 * (1.0 - 2.0 * reach) * r * q_edge
                  + 4.0 * r * r * q_corner)


def gaussian_square_isolated_mean(rho: float, b: float, n: int = 24) -> float:
    """Separable form for the (untruncated) Gaussian kernel:
    rho * int exp(-rho M(y1) M(y2)) dy over the square, with
    M(t) = (r sqrt(pi) / 2) [erf((1/2 - t) / r) + erf((1/2 + t) / r)]."""
    r = radius(GAUSSIAN, rho, b)
    layer = 0.5 - GAUSSIAN.cutoff * r
    breaks = np.concatenate(([0.0], np.linspace(layer, 0.5, 13)))
    y, w = _gl_panels(breaks, n)
    m = 0.5 * r * math.sqrt(math.pi) * (special.erf((0.5 - y) / r)
                                        + special.erf((0.5 + y) / r))
    # four quadrants by symmetry
    return 4.0 * rho * float(w @ np.exp(-rho * np.outer(m, m)) @ w)


def torus_isolated_mean(kernel: Kernel, rho: float, b: float) -> float:
    """rho * exp(-rho r^2 C_t), C_t the mass of the truncated kernel."""
    r = radius(kernel, rho, b)
    return rho * math.exp(-rho * r * r * kernel.C)


def chen_stein(kernel: Kernel, rho: float, b: float, epsilon: float = EPSILON):
    """(b1, b2) for the torus isolated-node count.

    b1 = 4 pi E^2 r^(2 (1 - eps)) with E the torus mean;
    b2 = rho^2 r^2 int_0^{s_max} 2 pi s (1 - g(s)) exp(-rho r^2 (2 C - X(s))) ds
    over the dependence disc s_max = 2 r^-eps, with X the closed-form cross
    mass (and its wrapped image when the far side of the torus comes within
    reach).  b2 is None for table kernels, which have no closed-form X.
    """
    r = radius(kernel, rho, b)
    e = torus_isolated_mean(kernel, rho, b)
    b1 = 4.0 * math.pi * e * e * (r * r) ** (1.0 - epsilon)
    if kernel.kind == "table":
        return b1, None
    c = kernel.cutoff
    s_max = 2.0 * r ** (-epsilon)
    period = 1.0 / r
    kappa = rho * r * r
    C = kernel.C

    def f(s):
        x = kernel.cross_mass(s) if s < 2.0 * c else 0.0
        if period - s < 2.0 * c:
            x += kernel.cross_mass(period - s)
        return 2.0 * math.pi * s * (1.0 - float(kernel.g(s))) * math.exp(-kappa * (2.0 * C - x))

    pts = [p for p in (c, 2.0 * c, period - 2.0 * c) if 0.0 < p < s_max]
    value, _ = integrate.quad(f, 0.0, s_max, epsabs=0.0, epsrel=1e-12,
                              limit=400, points=pts or None)
    return b1, rho * rho * r * r * value


def torus_graph(points: np.ndarray, reach: float):
    """(edge count, isolated count, component count) of the unit-disk graph
    of range `reach` on the torus, from all pairwise distances."""
    n = points.shape[0]
    rows, cols = [], []
    for lo in range(0, n, 512):
        d = points[lo:lo + 512, None, :] - points[None, :, :]
        d -= np.round(d)
        near = np.einsum("ijk,ijk->ij", d, d) <= reach * reach
        i, j = np.nonzero(near)
        keep = lo + i < j
        rows.append(lo + i[keep])
        cols.append(j[keep])
    i = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    j = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    degree = np.bincount(np.concatenate((i, j)), minlength=n)
    adj = coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    n_comp, _ = connected_components(adj, directed=False)
    return int(i.size), int(np.count_nonzero(degree == 0)), int(n_comp if n else 0)
