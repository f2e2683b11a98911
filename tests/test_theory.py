"""Quadrature predictions checked against closed forms and Monte Carlo.

The expensive cross-checks (plain MC of the kernel masses, point-count MC
of the disk overlap, MC of the dependence integral) live in oracles.py and
share nothing with the quadrature code they validate.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from rcmsim import theory
from rcmsim.errors import ParameterError
from rcmsim.geometry import Metric
from rcmsim.models import (connection_radius, gaussian, log_normal,
                           table_model, unit_disk)
from rcmsim.theory import (ChenSteinParams, DiscreteDistribution,
                           TheoryReport, asymptotic_report, chen_stein_terms,
                           chen_stein_tv_bound, empirical_distribution,
                           expected_isolated, pair_correlation_factor,
                           poisson_pmf, theory_report, tv_distance)
from oracles import (lens_area, mc_b2_unit_disk, mc_disk_mass,
                     mc_folded_mass, mc_lens_area, mc_visible_mass,
                     poisson_pmf_factorial)

UD = unit_disk()
GAUSS = gaussian()


# --- expected isolated nodes ---


def test_unit_disk_torus_is_exact():
    # hard disk on the torus: the mass integral is exactly pi r^2, so the
    # quadrature must reproduce e^{-b} to machine precision
    for rho in (1e3, 1e4):
        for b in (-1.0, 0.0, 1.0, 2.0):
            got = expected_isolated(UD, rho, b, Metric.TORUS)
            assert abs(got - math.exp(-b)) < 1e-6


def test_torus_error_estimate_is_returned():
    value, err = expected_isolated(UD, 1e3, 0.0, Metric.TORUS,
                                   return_error=True)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= err < 1e-9


def test_square_error_estimate_is_relative_at_large_density():
    # the edge-strip and corner integrals are about 1e-53 at rho 1e100; an
    # absolute tolerance would stop quad at once with a meaningless estimate
    value, err = expected_isolated(UD, 1e100, 3.0, Metric.SQUARE,
                                   return_error=True)
    assert err <= 1e-6 * value


def test_square_exceeds_torus():
    e_tor = expected_isolated(UD, 1e4, 0.0, Metric.TORUS)
    e_sq = expected_isolated(UD, 1e4, 0.0, Metric.SQUARE)
    assert e_sq > e_tor
    assert e_sq > 1.0  # boundary contribution survives at finite density


def test_gaussian_torus_mass_vs_plain_mc():
    rho, b = 1e4, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    e_q = expected_isolated(GAUSS, rho, b, Metric.TORUS)
    mass_q = math.log(rho / e_q) / rho
    mass_mc, se = mc_disk_mass(GAUSS, r, 40_000_000, seed=2024)
    assert se < 1e-6
    assert abs(mass_q - mass_mc) < 4.0 * se


def test_visible_mass_generic_vs_mc():
    inf = math.inf
    cases = [
        (UD, (0.3, inf, 0.5, inf)),
        (UD, (0.15, inf, 0.2, inf)),  # adjacent clips overlap near u = 1
        (GAUSS, (0.5, 4.0, 1.2, 3.0)),
        (GAUSS, (2.0, inf, inf, inf)),
    ]
    for i, (model, deltas) in enumerate(cases):
        got = theory._visible_mass_general(model, deltas, model.cutoff)
        est, se = mc_visible_mass(model, deltas, 4_000_000, seed=100 + i)
        assert abs(got - est) < 5.0 * se, (deltas, got, est, se)


def test_unit_disk_closed_forms_match_generic_path():
    inf = math.inf
    k_edge, k_corner = theory._visible_mass_functions(UD)
    for d in (0.05, 0.2, 0.6, 0.95):
        gen = theory._visible_mass_general(UD, (d, inf, inf, inf), UD.cutoff)
        assert gen == pytest.approx(k_edge(d), rel=1e-9)
    for d1, d2 in ((0.3, 0.5), (0.1, 0.15), (0.7, 0.7)):
        gen = theory._visible_mass_general(UD, (d1, inf, d2, inf), UD.cutoff)
        assert gen == pytest.approx(k_corner(d1, d2), rel=1e-8)


def test_square_decomposition_matches_direct_quadrature():
    # interior + edge strip + corner decomposition vs one brute dblquad
    # with the general visibility angle; the smooth kernel keeps the
    # latter affordable
    rho, b = 200.0, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    split, _ = theory._expected_isolated_square(GAUSS, rho, b)
    direct, derr = theory._expected_isolated_square_direct(GAUSS, rho, r)
    assert split == pytest.approx(direct, rel=1e-6)


def test_square_quadrature_vs_simulation():
    # end-to-end check of both square paths against sampled isolation
    # counts: narrow support takes the decomposition, wide support the
    # direct fallback (reach > 1/2 forces the exact pair scan too)
    from rcmsim.analysis import isolated_count
    from rcmsim.sampler import SampleParams, build_graph, sample_points

    cases = [(UD, 200.0, 2500, False), (GAUSS, 40.0, 4000, True)]
    for model, rho, trials, exact in cases:
        want = expected_isolated(model, rho, 0.0, Metric.SQUARE)
        counts = np.empty(trials)
        for t in range(trials):
            p = SampleParams(rho, 0.0, model, Metric.SQUARE, 555, t)
            s = build_graph(p, sample_points(p), exact=exact)
            counts[t] = isolated_count(s)
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - want) < 5.0 * se, (model.kind, counts.mean(), want)


def test_torus_folded_fallback_vs_mc():
    # support wider than half the cell: the radial shortcut is invalid and
    # the folded 2-D quadrature takes over
    rho, b = 40.0, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    assert r * GAUSS.cutoff > 0.5
    e_q = expected_isolated(GAUSS, rho, b, Metric.TORUS)
    mass_q = math.log(rho / e_q) / rho
    mass_mc, se = mc_folded_mass(GAUSS, r, 20_000_000, seed=77)
    assert abs(mass_q - mass_mc) < 4.0 * se


def test_log_normal_torus_matches_limit_when_support_fits():
    # C_t = C for table-free kernels, so the torus value collapses to
    # e^{-b} whenever the truncated support fits in the cell
    ln = log_normal(4.0, 2.0)
    r = connection_radius(ln.C, 1e4, 0.0)
    assert r * ln.cutoff <= 0.5
    got = expected_isolated(ln, 1e4, 0.0, Metric.TORUS)
    assert got == pytest.approx(1.0, abs=1e-6)


# --- cross mass and pair correlation ---


def test_cross_mass_unit_disk_vs_point_count_mc():
    for s in (0.3, 1.0, 1.7):
        got = theory._cross_mass(UD, s)
        est, se = mc_lens_area(s, 4_000_000, seed=int(10 * s))
        assert abs(got - est) < 5.0 * se
        assert got == pytest.approx(lens_area(s), rel=1e-12)


def test_cross_mass_gaussian_closed_form():
    # product of two gaussians integrates to (pi/2) e^{-s^2/2}; truncation
    # at the stored cutoff perturbs this at the 1e-12 level
    for s in (0.0, 0.7, 1.9, 3.5):
        want = 0.5 * math.pi * math.exp(-0.5 * s * s)
        got = theory._cross_mass(GAUSS, s)
        assert got == pytest.approx(want, rel=1e-6)


def test_cross_mass_vanishes_beyond_double_cutoff():
    assert theory._cross_mass(UD, 2.0) == 0.0
    assert theory._cross_mass(GAUSS, 2.0 * GAUSS.cutoff + 1.0) == 0.0


def test_pair_correlation_examples():
    rho, b = 1e4, 0.0
    r = connection_radius(UD.C, rho, b)
    # touching pairs can never be jointly isolated
    assert pair_correlation_factor(UD, rho, b, 0.0) == 0.0
    assert pair_correlation_factor(UD, rho, b, 0.5 * r) == 0.0
    # disjoint supports: independent, factor exactly 1
    assert pair_correlation_factor(UD, rho, b, 2.5 * r) == 1.0
    # overlapping exclusion zones inflate joint isolation
    got = pair_correlation_factor(UD, rho, b, 1.5 * r)
    want = math.exp(rho * r * r * lens_area(1.5))
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 1.0


def test_pair_correlation_table_knots_are_break_points():
    # a separation a hair below the knot at 1: every knot crossing of the
    # shifted kernel is a kink of the angular integrand, and unmarked
    # kinks stall quad in roundoff
    model = table_model([(0.0, 1.0), (0.5, 0.9), (1.0, 0.5), (1.5, 0.1),
                         (2.0, 0.0)])
    rho, b = 2000.0, 0.0
    r = connection_radius(model.C, rho, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        got = pair_correlation_factor(model, rho, b, (1.0 - 2.5e-12) * r)
        near = pair_correlation_factor(model, rho, b, (1.0 - 1e-6) * r)
    # the factor is continuous in the separation
    assert got == pytest.approx(near, rel=1e-4)


def test_pair_correlation_rejects_negative_separation():
    with pytest.raises(ParameterError):
        pair_correlation_factor(UD, 1e4, 0.0, -0.1)


# --- dependence bounds ---


def test_b1_closed_form():
    rho, b, eps = 1e4, 0.0, 0.25
    r2 = math.log(rho) / (math.pi * rho)
    want = 4.0 * math.pi * 1.0 * r2 ** (1.0 - eps)  # E_torus = e^{-b} = 1
    b1, _ = chen_stein_terms(UD, rho, b, ChenSteinParams(epsilon=eps))
    assert b1 == pytest.approx(want, rel=1e-12)
    assert b1 == pytest.approx(0.02815, abs=1e-4)  # pinned regression value


def test_b2_vs_mc():
    b1, b2 = chen_stein_terms(UD, 1e4, 0.0)
    est, se = mc_b2_unit_disk(1e4, 0.0, 0.25, 400_000, seed=91)
    assert se < 0.05 * b2
    assert abs(b2 - est) < 5.0 * se


def test_terms_decrease_with_density():
    vals = [chen_stein_terms(UD, rho, 0.0) for rho in (1e3, 1e4, 1e5, 1e6)]
    b1s = [v[0] for v in vals]
    b2s = [v[1] for v in vals]
    assert all(x > y > 0.0 for x, y in zip(b1s, b1s[1:]))
    assert all(x > y > 0.0 for x, y in zip(b2s, b2s[1:]))


def test_chen_stein_guards():
    with pytest.raises(ParameterError):
        ChenSteinParams(epsilon=0.5)
    with pytest.raises(ParameterError):
        ChenSteinParams(epsilon=0.0)
    # wide gaussian support on the torus
    with pytest.raises(ParameterError):
        chen_stein_terms(GAUSS, 40.0, 0.0)
    # dependence disc wider than half the period at low density
    with pytest.raises(ParameterError):
        chen_stein_terms(UD, 20.0, 0.0)


def test_tv_bound_assembly():
    lam = 4.0
    got = chen_stein_tv_bound(0.1, 0.2, 0.3, lam)
    assert got == pytest.approx((0.1 + 0.2) * 0.25 + 0.3 * 0.5)
    assert chen_stein_tv_bound(0.1, 0.2, 0.0, 0.5) == pytest.approx(0.3)
    with pytest.raises(ParameterError):
        chen_stein_tv_bound(-0.1, 0.2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        chen_stein_tv_bound(0.1, 0.2, 0.0, 0.0)
    with pytest.raises(ParameterError):
        chen_stein_tv_bound(0.1, math.inf, 0.0, 1.0)


# --- discrete distributions ---


def test_poisson_pmf_matches_factorial_series():
    for lam in (0.3, 1.0, 5.0):
        got = poisson_pmf(lam, 20)
        want = poisson_pmf_factorial(lam, 20)
        assert np.max(np.abs(got.pmf - want)) < 1e-14
        assert got.tail_mass == pytest.approx(1.0 - want.sum(), abs=1e-12)


def test_poisson_pmf_edge_cases():
    zero = poisson_pmf(0.0, 3)
    assert zero.pmf[0] == 1.0 and zero.tail_mass == 0.0
    with pytest.raises(ParameterError):
        poisson_pmf(-1.0, 5)
    with pytest.raises(ParameterError):
        poisson_pmf(1.0, -1)


def test_empirical_distribution_basics():
    d = empirical_distribution([0, 1, 1, 3])
    assert np.allclose(d.pmf, [0.25, 0.5, 0.0, 0.25])
    assert d.tail_mass == 0.0
    clipped = empirical_distribution([0, 1, 1, 3], k_max=1)
    assert np.allclose(clipped.pmf, [0.25, 0.5])
    assert clipped.tail_mass == pytest.approx(0.25)
    padded = empirical_distribution([0, 1], k_max=4)
    assert padded.pmf.size == 5 and padded.tail_mass == 0.0
    with pytest.raises(ParameterError):
        empirical_distribution([])
    with pytest.raises(ParameterError):
        empirical_distribution([0, -1])


def test_distribution_table_is_read_only():
    d = poisson_pmf(1.0, 4)
    with pytest.raises(ValueError):
        d.pmf[0] = 0.5
    with pytest.raises(ParameterError):
        DiscreteDistribution(pmf=np.array([0.5, 0.4]), tail_mass=0.0)
    with pytest.raises(ParameterError):
        DiscreteDistribution(pmf=np.array([-0.1, 1.1]), tail_mass=0.0)


def test_tv_distance_examples():
    p = poisson_pmf(1.0, 30)
    assert tv_distance(p, p) == 0.0
    q = poisson_pmf(1.1, 30)
    pf = poisson_pmf_factorial(1.0, 30)
    qf = poisson_pmf_factorial(1.1, 30)
    want = 0.5 * np.abs(pf - qf).sum() + 0.5 * abs((1 - pf.sum()) - (1 - qf.sum()))
    assert tv_distance(p, q) == pytest.approx(float(want), abs=1e-10)
    assert tv_distance(p, q) == tv_distance(q, p)
    # point mass at zero vs Poisson(1) clipped to the same table
    point = empirical_distribution([0], k_max=0)
    po = poisson_pmf(1.0, 0)
    assert tv_distance(point, po) == pytest.approx(1.0 - math.exp(-1.0))


def test_tv_distance_sees_table_tail_split():
    # same distribution, different table lengths: the mass parked in the
    # tail on one side sits in the table on the other, and the metric
    # reports exactly that transfer
    short = poisson_pmf(1.0, 5)
    long = poisson_pmf(1.0, 10)
    moved = float(long.pmf[6:].sum())
    assert tv_distance(short, long) == pytest.approx(moved, abs=1e-15)


# --- reports ---


def test_theory_report_fields():
    rep = theory_report(UD, 1e3, 0.0, Metric.TORUS)
    assert rep.asymptotic_mean == 1.0
    assert rep.prob_no_isolated == pytest.approx(math.exp(-1.0))
    assert rep.mean_degree == pytest.approx(math.log(1e3))
    assert rep.expected_isolated == pytest.approx(1.0, abs=1e-12)
    assert rep.boundary_excess > 0.0
    sq = theory_report(UD, 1e3, 0.0, Metric.SQUARE)
    assert sq.expected_isolated == pytest.approx(
        rep.expected_isolated + rep.boundary_excess)


def test_asymptotic_report_fields():
    rep = asymptotic_report(1e3, 0.5)
    assert rep.expected_isolated == pytest.approx(math.exp(-0.5))
    assert rep.prob_no_isolated == pytest.approx(math.exp(-math.exp(-0.5)))
    assert rep.mean_degree == pytest.approx(math.log(1e3) + 0.5)
    assert rep.boundary_excess == 0.0


def test_report_validation():
    with pytest.raises(ParameterError):
        TheoryReport(expected_isolated=-1.0, asymptotic_mean=1.0,
                     prob_no_isolated=0.5, mean_degree=1.0,
                     boundary_excess=0.0)
    with pytest.raises(ParameterError):
        TheoryReport(expected_isolated=1.0, asymptotic_mean=1.0,
                     prob_no_isolated=1.5, mean_degree=1.0,
                     boundary_excess=0.0)


def test_scale_guard():
    with pytest.raises(ParameterError):
        expected_isolated(UD, 2.0, -1.0, Metric.TORUS)  # log rho + b <= 0
    with pytest.raises(ParameterError):
        expected_isolated(UD, -5.0, 0.0, Metric.TORUS)
    with pytest.raises(ParameterError):
        expected_isolated(UD, 1e3, 0.0, "torus")
    with pytest.raises(ParameterError):
        asymptotic_report(1.0, 0.0)
