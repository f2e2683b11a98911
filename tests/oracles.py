"""Independent reference implementations the tests compare against.

Everything here is deliberately dumb: pure-python double loops, plain
Monte Carlo with numpy's own generator, factorial-based series, scipy's
adaptive quadrature. None of it imports sampler/theory internals beyond
the public scalar primitives it is checking, so a bug in the fast paths
cannot hide in its own oracle; the one exception, `square_mean_dblquad`,
says which part it checks.
"""

from __future__ import annotations

import csv
import math
from collections import deque

import numpy as np

from rcmsim import streams
from rcmsim.analysis import TrialRecord
from rcmsim.cli import TRIAL_COLUMNS
from rcmsim.geometry import Metric, distance_arrays


def scalar_distance(metric, p, q):
    """Distance between the (x, y) tuples p and q: Euclidean on the square,
    and on the torus the minimum over the nine integer translates of q - p,
    which is exhaustive for points inside one unit cell."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    if metric is Metric.SQUARE:
        return math.hypot(dx, dy)
    return min(math.hypot(dx + ox, dy + oy) for ox in (-1.0, 0.0, 1.0)
               for oy in (-1.0, 0.0, 1.0))


def pair_uniform(key, i, j):
    """The coin of the pair (i, j), i < j, on Python ints: the hash of the
    stream key at i keys a second hash at j, whose top 53 bits scale to [0, 1)."""
    h = streams.mix64((key + streams.GOLDEN * i) & streams.MASK64)
    return (streams.mix64((h + streams.GOLDEN * j) & streams.MASK64) >> 11) * 2.0**-53


def word_array(key, counters):
    """The words of streams.uniform over a counter array, through the
    vectorized mix that test_streams checks against the scalar one; `key`
    is one key or an array of them.  The coin of the pair (i, j), i < j,
    is the uniform at counter j of the stream word_array(key, i)."""
    with np.errstate(over="ignore"):
        z = np.asarray(counters, dtype=np.uint64) * np.uint64(streams.GOLDEN)
        z += np.asarray(key, dtype=np.uint64)
    return streams._mix64_inplace(z)


def uniform_array(key, counters):
    """streams.uniform over a counter array."""
    return streams.unit_array(word_array(key, counters))


def unwrapped(params, points, edges):
    """Mask of the torus edges that do not wrap: those within r * cutoff
    in the square metric."""
    x, y = np.ascontiguousarray(points.T)
    i, j = edges[:, 0], edges[:, 1]
    return distance_arrays(Metric.SQUARE, x[i], y[i], x[j], y[j]) <= params.r * params.model.cutoff


def brute_force_edges(params, points):
    """O(n^2) edge realization straight from the connection contract.

    Scalar uniforms keyed by (i, j), scalar distances, scalar kernel
    evaluations; no grids, no vectorization, no shared code with the
    sampler's edge paths beyond the stream primitive itself.
    """
    n = len(points)
    key = streams.stream_key(params.master_seed, params.trial_index,
                             streams.TAG_EDGES)
    edges = []
    for i in range(n):
        p = (float(points[i][0]), float(points[i][1]))
        for j in range(i + 1, n):
            q = (float(points[j][0]), float(points[j][1]))
            d = scalar_distance(params.metric, p, q)
            prob = float(params.model.g(d / params.r))
            if prob > 0.0 and pair_uniform(key, i, j) < prob:
                edges.append((i, j))
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def read_trials_csv(text):
    """The TrialRecords of a trial table as cli.format_trials_csv writes
    it, read back through the csv module; the header must be the schema."""
    reader = csv.reader(text.splitlines())
    assert tuple(next(reader)) == TRIAL_COLUMNS
    flag = {"true": True, "false": False}
    return [TrialRecord(float(rho), float(b), metric, int(trial), int(n), int(m), int(iso),
                        int(comp), flag[conn], float(deg), *(int(v) if v else None for v in split))
            for rho, b, metric, trial, n, m, iso, comp, conn, deg, *split in reader]


def bfs_components(n, edges):
    """(component count, connected) by breadth-first search."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return comps, comps <= 1


def mc_disk_mass(model, r, n_samples, seed, chunk=10_000_000):
    """Plain MC of int g(|x| / r) dx over the support disk of radius
    r * cutoff.  Returns (estimate, standard error)."""
    radius = r * model.cutoff
    area = math.pi * radius * radius
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        rad = radius * np.sqrt(rng.random(m))
        vals = model.g(rad / r)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n_samples
    var = max(0.0, total_sq / n_samples - mean * mean)
    return area * mean, area * math.sqrt(var / n_samples)


def square_mean_dblquad(model, rho, r):
    """Square-metric isolated-node mean by adaptive dblquad of
    exp(-rho r^2 I(y)) over the quadrant [0, 1/2]^2, I the kernel mass
    visible inside the right and top edges: with r * cutoff <= 1/2 the left
    and bottom edges lie at least cutoff away in scaled units, so they clip
    nothing.  I comes from the program's `_visible_mass` at the first
    order that agrees with the next (checked on its own by
    `mc_visible_mass`), so this checks the 2-D integration alone.  Returns
    (estimate, 4 rho x dblquad's error)."""
    from scipy import integrate

    from rcmsim.theory import _converged, _visible_mass

    def f(y, x):
        deltas = ((0.5 - x) / r, (0.5 - y) / r)
        mass, _ = _converged(lambda n: _visible_mass(model, deltas, n), "visible mass")
        return math.exp(-rho * r * r * float(mass))

    quadrant, err = integrate.dblquad(f, 0.0, 0.5, 0.0, 0.5, epsabs=1e-10, epsrel=1e-6)
    return rho * 4.0 * quadrant, rho * 4.0 * err


def quad_radial_C(model):
    """(C, error, tail, tail error): adaptive quad of 2 pi x g_raw(x) over
    [0, cutoff], with the table knots as break points, and over
    [cutoff, inf)."""
    from scipy import integrate

    def f(x):
        return 2.0 * math.pi * x * float(model.g_raw(x))

    pts = [p for p in (model.radii or ()) if 0.0 < p < model.cutoff] or None
    # QUADPACK wants strictly more subintervals than break points
    limit = 200 if pts is None else max(200, 2 * len(pts) + 10)
    value, err = integrate.quad(f, 0.0, model.cutoff, epsabs=0.0, epsrel=1e-13,
                                limit=limit, points=pts)
    tail, tail_err = integrate.quad(f, model.cutoff, math.inf, epsabs=0.0,
                                    epsrel=1e-10, limit=200)
    return value, err, tail, tail_err


def mc_visible_mass(model, deltas, n_samples, seed):
    """MC of the kernel mass visible inside two adjacent clipping
    half-planes, x <= d_r and y <= d_t for deltas = (d_r, d_t).

    Samples the support disk uniformly and applies the box constraints as
    indicators, so the angular-overlap bookkeeping in the quadrature path
    is checked against plain rejection counting.
    Returns (estimate, standard error).
    """
    d_r, d_t = deltas
    cutoff = model.cutoff
    rng = np.random.default_rng(seed)
    rad = cutoff * np.sqrt(rng.random(n_samples))
    phi = 2.0 * math.pi * rng.random(n_samples)
    x = rad * np.cos(phi)
    y = rad * np.sin(phi)
    keep = (x <= d_r) & (y <= d_t)
    vals = model.g(rad) * keep
    area = math.pi * cutoff * cutoff
    mean = float(vals.mean())
    var = float(vals.var())
    return area * mean, area * math.sqrt(var / n_samples)


def mc_lens_area(s, n_samples, seed):
    """Point-count MC of the overlap area of unit disks centered at 0 and
    (s, 0).  Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    # bounding box of the lens
    lo_x, hi_x = s - 1.0, 1.0
    if hi_x <= lo_x:
        return 0.0, 0.0
    hi_y = 1.0
    x = rng.random(n_samples) * (hi_x - lo_x) + lo_x
    y = (rng.random(n_samples) * 2.0 - 1.0) * hi_y
    inside = (x * x + y * y <= 1.0) & ((x - s) ** 2 + y * y <= 1.0)
    box = (hi_x - lo_x) * 2.0 * hi_y
    p = inside.mean()
    return box * float(p), box * math.sqrt(p * (1.0 - p) / n_samples)


def lens_area(s):
    """Closed-form overlap of two unit disks with centers s apart."""
    if s >= 2.0:
        return 0.0
    half = 0.5 * s
    return 2.0 * math.acos(half) - half * math.sqrt(4.0 - s * s)


def mc_b2_unit_disk(rho, b, epsilon, n_samples, seed):
    """MC of the dependence integral for the unit-disk kernel.

    Outer radial variable sampled uniformly; the cross term uses the
    closed-form lens (itself MC-validated by mc_lens_area), so this checks
    the outer quadrature and assembly independently.
    Returns (estimate, standard error).
    """
    scale = math.log(rho) + b
    r2 = scale / (math.pi * rho)
    r = math.sqrt(r2)
    s_max = 2.0 * r ** (-epsilon)
    period = 1.0 / r
    rng = np.random.default_rng(seed)
    s = rng.random(n_samples) * s_max
    w = (s > 1.0).astype(np.float64)  # 1 - g(s) for the unit disk
    j = np.array([lens_area(v) + lens_area(period - v) for v in s])
    f = 2.0 * math.pi * s * w * np.exp(-rho * r2 * (2.0 * math.pi - j))
    mean = float(f.mean())
    se = float(f.std(ddof=1)) / math.sqrt(n_samples)
    factor = rho * rho * r2 * s_max
    return factor * mean, factor * se


def poisson_pmf_factorial(lam, k_max):
    """Poisson probabilities by the direct series (no recurrence)."""
    return np.array([math.exp(-lam) * lam**k / math.factorial(k)
                     for k in range(k_max + 1)])


def mc_log_normal_C(sigma_db, eta, n_samples, seed):
    """Importance-sampled MC of C = int_0^inf 2 pi x g(x) dx for the
    log-shadowing kernel, worked in t = ln x:

        C = pi * int e^{2t} erfc(k t) dt,   k = 10 eta / (sqrt(2) sigma ln 10)

    The proposal is two-sided exponential around t = a: density
    proportional to e^{2(t-a)} left of a (matching the integrand's left
    tail exactly, so weights are bounded there) and e^{-(t-a)} right of a
    (heavier than the erfc-driven super-exponential decay).
    Returns (estimate, standard error).
    """
    from scipy.special import log_ndtr

    k = 10.0 * eta / (math.sqrt(2.0) * sigma_db * math.log(10.0))
    rng = np.random.default_rng(seed)
    a = 0.5
    # unnormalized masses: 1/2 left, 1 right
    u = rng.random(n_samples)
    v = 1.0 - rng.random(n_samples)  # (0, 1]
    left = u < (0.5 / 1.5)
    t = np.where(left, a + np.log(v) / 2.0, a - np.log(v))
    pdf = np.where(t <= a, np.exp(2.0 * (t - a)), np.exp(-(t - a))) / 1.5
    # erfc(z) = 2 ndtr(-z sqrt(2)), kept in logs for the far tail
    log_h = math.log(math.pi) + 2.0 * t + math.log(2.0) \
        + log_ndtr(-k * t * math.sqrt(2.0))
    w = np.exp(log_h) / pdf
    mean = float(w.mean())
    se = float(w.std(ddof=1)) / math.sqrt(n_samples)
    return mean, se


def gaussian_square_mean(rho, b, cutoff):
    """Expected isolated nodes on the unit square for the untruncated
    Gaussian kernel at the range of the kernel cut at `cutoff`,
    r = sqrt((log rho + b) / (C_t rho)), C_t = pi (1 - exp(-cutoff^2)),
    from its separable visible mass: with
    M(t) = (r sqrt(pi) / 2) [erf((1/2 - t) / r) + erf((1/2 + t) / r)]
    the mass seen from (y1, y2) is M(y1) M(y2), and the mean is
    rho * int exp(-rho M(y1) M(y2)) dy, here by nested adaptive quad over
    one quadrant with the boundary layer marked."""
    from scipy import integrate, special

    c_t = math.pi * (1.0 - math.exp(-cutoff * cutoff))
    r = math.sqrt((math.log(rho) + b) / (c_t * rho))

    def m(t):
        return 0.5 * r * math.sqrt(math.pi) * (special.erf((0.5 - t) / r)
                                               + special.erf((0.5 + t) / r))

    layer = [0.5 - 8.0 * r, 0.5 - 2.0 * r]

    def row(y1):
        m1 = m(y1)
        v, _ = integrate.quad(lambda y2: math.exp(-rho * m1 * m(y2)), 0.0, 0.5,
                              points=layer, epsabs=0.0, epsrel=1e-13, limit=200)
        return v

    quadrant, _ = integrate.quad(row, 0.0, 0.5, points=layer, epsabs=0.0,
                                 epsrel=1e-12, limit=200)
    return 4.0 * rho * quadrant


def unit_disk_square_mean_edge(rho, b, panels=400):
    """Square-metric isolated-node mean of the unit disk from its 1-D edge
    profile alone, for densities where the corners vanish.  With
    s = rho r^2 the mass seen at scaled distance d from one edge is
    pi - cap(d), cap(d) = arccos d - d sqrt(1 - d^2), and
    E = rho [(1 - 2r)^2 e^{-s pi} + 4 (1 - 2r) r int_0^1 e^{-s (pi - cap(d))} dd],
    the integral by adaptive quad on `panels` equal panels.  The four
    corners, left out, add at most 4 rho r^2 e^{-s pi / 4}, which is
    3e-23 at rho 1e100, b 0."""
    from scipy import integrate

    r = math.sqrt((math.log(rho) + b) / (math.pi * rho))
    s = rho * r * r

    def f(d):
        cap = math.acos(d) - d * math.sqrt(1.0 - d * d)
        return math.exp(-s * (math.pi - cap))

    edge = math.fsum(integrate.quad(f, k / panels, (k + 1) / panels, epsabs=0.0,
                                    epsrel=1e-13, limit=200)[0] for k in range(panels))
    return rho * ((1.0 - 2.0 * r) ** 2 * math.exp(-s * math.pi)
                  + 4.0 * (1.0 - 2.0 * r) * r * edge)


def mc_cross_mass(model, s, n_samples, seed):
    """Plain MC of int g(|y|) g(|y - s e_x|) dy: y uniform on the support
    disk of the first factor.  Returns (estimate, standard error)."""
    cutoff = model.cutoff
    rng = np.random.default_rng(seed)
    rad = cutoff * np.sqrt(rng.random(n_samples))
    phi = 2.0 * math.pi * rng.random(n_samples)
    x = rad * np.cos(phi)
    y = rad * np.sin(phi)
    vals = model.g(rad) * model.g(np.hypot(x - s, y))
    area = math.pi * cutoff * cutoff
    return area * float(vals.mean()), area * float(vals.std()) / math.sqrt(n_samples)


def quad_cross_mass_table(model, s):
    """int g(|y|) g(|y - s e_x|) dy of a table kernel by nested adaptive
    quad in polar coordinates, 2 int_0^cutoff u g(u) int_0^pi g(d) dphi du
    with d = sqrt(u^2 + s^2 - 2 u s cos phi).  Every knot crossing is
    passed as a break point: to the inner integral the angles where d
    crosses a knot, to the outer one the knots, s and the radii where a
    knot circle about the second center touches the circle |y| = u
    (|k - s| and k + s)."""
    from scipy import integrate

    cutoff = model.cutoff
    knots = [k for k in model.radii if 0.0 < k < cutoff] + [cutoff]

    def g(x):
        return float(model.g(x))

    def inner(u):
        pts = [math.acos((u * u + s * s - k * k) / (2.0 * u * s))
               for k in knots if abs(u - s) < k < u + s]
        v, _ = integrate.quad(
            lambda phi: g(math.sqrt(max(u * u + s * s - 2.0 * u * s * math.cos(phi), 0.0))),
            0.0, math.pi, points=pts or None, epsabs=0.0, epsrel=1e-13, limit=200)
        return v

    lo = max(s - cutoff, 0.0)
    if lo >= cutoff:
        return 0.0
    pts = sorted({q for k in knots for q in (k, abs(k - s), k + s)} | {s})
    pts = [q for q in pts if lo < q < cutoff]
    v, _ = integrate.quad(lambda u: u * g(u) * inner(u), lo, cutoff, points=pts or None,
                          epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * v


def gaussian_b2(model, rho, b, epsilon):
    """Chen-Stein b2 of the truncated Gaussian by 1-D adaptive quad over the
    separation s, with the untruncated closed-form cross mass
    (pi/2) exp(-s^2 / 2) for the pair at s and its torus image at 1/r - s:
    rho^2 r^2 int_0^{2 r^-eps} 2 pi s (1 - g(s))
    exp(-rho r^2 (2 C_t - X(s) - X(1/r - s))) ds,
    C_t = pi (1 - exp(-cutoff^2)), which also sets
    r = sqrt((log rho + b) / (C_t rho)).  At separations below 5.6 the
    truncation changes X by less than 1e-12."""
    from scipy import integrate

    cutoff = model.cutoff
    c_t = math.pi * (1.0 - math.exp(-cutoff * cutoff))
    r = math.sqrt((math.log(rho) + b) / (c_t * rho))
    s_max = 2.0 * r ** (-epsilon)

    def cross(s):
        return 0.5 * math.pi * math.exp(-0.5 * s * s)

    def f(s):
        g = math.exp(-s * s) if s <= cutoff else 0.0
        return (2.0 * math.pi * s * (1.0 - g)
                * math.exp(-rho * r * r * (2.0 * c_t - cross(s) - cross(1.0 / r - s))))

    v, _ = integrate.quad(f, 0.0, s_max, points=[p for p in (1.0, cutoff) if p < s_max],
                          epsabs=0.0, epsrel=1e-13, limit=200)
    return rho * rho * r * r * v


def mc_square_pair_mass(model, r, n_samples, seed, chunk=1_000_000):
    """Plain MC of int int g(|x - y| / r) dx dy over the unit square: x
    uniform on the square and y = x + z, z uniform on the disc of radius
    r * cutoff, counted only where y stays inside.  Returns (estimate,
    standard error)."""
    reach = r * model.cutoff
    area = math.pi * reach * reach
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for lo in range(0, n_samples, chunk):
        k = min(chunk, n_samples - lo)
        x = rng.random((k, 2))
        rad = reach * np.sqrt(rng.random(k))
        phi = 2.0 * math.pi * rng.random(k)
        y = x + rad[:, None] * np.column_stack((np.cos(phi), np.sin(phi)))
        inside = np.all((y >= 0.0) & (y <= 1.0), axis=1)
        vals = area * model.g(rad / r) * inside
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def b2_radial_order(model, rho, b, epsilon, order):
    """Chen-Stein b2 with the cross mass X of rcmsim's radial rule
    (theory._cross_mass_rule) held at rule order `order`:
    rho^2 r^2 int_0^{2 r^-eps} 2 pi s (1 - g(s))
    exp(-rho r^2 (2 C - X(s) - X(1/r - s))) ds.  The separations take
    theory._panels on breaks of their own: every sum and difference of two
    kinks of g (0, the table knots, the cutoff), their mirrors at the
    period 1/r, and 16 equal steps, at orders 16 and 32, which must agree
    to 1e-12."""
    from rcmsim import theory
    from rcmsim.models import connection_radius

    cutoff = model.cutoff
    r = connection_radius(model.C, rho, b)
    s_max = 2.0 * r ** (-epsilon)
    period = 1.0 / r
    mass_scale = rho * r * r
    kinks = np.array([0.0, *(k for k in model.radii or () if 0.0 < k < cutoff), cutoff])
    pairs = np.abs(np.concatenate([kinks[:, None] + kinks, kinks[:, None] - kinks]).ravel())
    points = np.concatenate([pairs, period - pairs, np.linspace(0.0, s_max, 17)])
    breaks = np.unique(points[(points >= 0.0) & (points <= s_max)])

    def rule(n):
        s, w = theory._panels(breaks, n)
        cross = (theory._cross_mass_rule(model, s, order)
                 + theory._cross_mass_rule(model, period - s, order))
        return rho * mass_scale * float(w @ (2.0 * math.pi * s * (1.0 - model.g(s))
                                             * np.exp(-mass_scale * (2.0 * model.C - cross))))

    coarse, fine = rule(16), rule(32)
    assert abs(fine - coarse) <= 1e-12 * fine, (coarse, fine)
    return fine
