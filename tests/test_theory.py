"""Quadrature predictions checked against closed forms and Monte Carlo.

The expensive cross-checks (plain MC of the kernel masses, point-count MC
of the disk overlap, MC of the dependence integral) live in oracles.py and
share nothing with the quadrature code they validate.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmsim import theory
from rcmsim.cli import CampaignConfig, run_campaign
from rcmsim.errors import ParameterError, QuadratureError
from rcmsim.geometry import Metric
from rcmsim.models import (connection_radius, gaussian, log_normal,
                           table_model, unit_disk)
from rcmsim.theory import (ChenSteinParams, TheoryReport, chen_stein_terms,
                           expected_isolated, theory_report, tv_to_poisson)
from oracles import (gaussian_b2, gaussian_square_mean, lens_area, mc_b2_unit_disk,
                     mc_cross_mass, mc_disk_mass, mc_lens_area, mc_square_pair_mass,
                     mc_visible_mass, poisson_pmf_factorial, quad_cross_mass_table,
                     square_mean_dblquad, unit_disk_square_mean_edge)

UD = unit_disk()
GAUSS = gaussian()
TABLE3 = table_model([(0.0, 1.0), (1.0, 0.6), (2.0, 0.0)])
TABLE5 = table_model([(0.0, 1.0), (0.5, 0.9), (1.0, 0.5), (1.5, 0.1),
                      (2.0, 0.0)])
# a measured-looking profile: 65 knots, geometrically spaced
DENSE_RADII = np.concatenate([[0.0], np.geomspace(0.03, 2.0, 64)])
DENSE = table_model(list(zip(
    DENSE_RADII.tolist(),
    ((1.0 - DENSE_RADII / 2.0) * np.exp(-DENSE_RADII)
     * (1.0 + 0.2 * np.sin(5.0 * DENSE_RADII))).tolist())))


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


def test_truncated_tail_is_not_a_quadrature_error():
    # a log-normal's C is the truncated mass, as every kind's is, so the
    # tail beyond the cutoff (C_error, large at eps 1e-3) is no error of
    # the closed torus form or of the square quadrature
    ln = log_normal(4.0, 3.0, cutoff_eps=1e-3)
    assert ln.C_error > 1e-3
    value, err = expected_isolated(ln, 2000.0, 0.0, Metric.TORUS, return_error=True)
    assert err == 0.0
    value, err = expected_isolated(ln, 2000.0, 0.0, Metric.SQUARE, return_error=True)
    assert err <= 1e-9 * value


def test_square_error_estimate_is_relative_at_large_density():
    # the edge-strip and corner integrals are about 1e-53 at rho 1e100; an
    # absolute tolerance would stop quad at once with a meaningless estimate
    value, err = expected_isolated(UD, 1e100, 3.0, Metric.SQUARE,
                                   return_error=True)
    assert err <= 1e-6 * value


@pytest.mark.parametrize("rho", [2000.0, 1e4])
def test_gaussian_square_error_covers_erf_oracle(rho):
    # the separable erf form is exact for the untruncated kernel, which at
    # the same r shows each node at most C_error more mass: the exponent
    # rho r^2 I = (log rho + b) I / C moves by at most
    # (log rho + b) C_error / C, and the mean by that times its value.
    # The bound drops the 1 / C, a factor pi to spare for the oracle's own
    # quad error; the gap is about 1e-11, far above the quadrature's own
    # error of about 7e-14
    value, err = expected_isolated(GAUSS, rho, 0.0, Metric.SQUARE,
                                   return_error=True)
    tail = value * math.log(rho) * GAUSS.C_error
    assert abs(value - gaussian_square_mean(rho, 0.0, GAUSS.cutoff)) <= err + tail


@pytest.mark.parametrize("model", [GAUSS, TABLE3, log_normal(4.0, 3.0)])
def test_skipped_corner_strips_stay_within_reported_error(model, monkeypatch):
    # at rho 1e100 every corner strip is below 1e-20 of the value; leaving
    # them out must cost no more than the error it adds to the estimate
    theory._expected_isolated_square.cache_clear()
    try:
        t0 = time.perf_counter()
        value, err = expected_isolated(model, 1e100, 3.0, Metric.SQUARE,
                                       return_error=True)
        assert time.perf_counter() - t0 < 1.0
        full = theory._boundary_integrals
        monkeypatch.setattr(theory, "_boundary_integrals",
                            lambda *args: full(*args[:-1], np.ones_like(args[-1])))
        theory._expected_isolated_square.cache_clear()
        want = expected_isolated(model, 1e100, 3.0, Metric.SQUARE)
    finally:
        theory._expected_isolated_square.cache_clear()
    assert err <= 1e-9 * value
    assert abs(value - want) <= err


def test_log_normal_square_is_fast_and_quiet():
    # nested adaptive quad took about a minute here and leaked an
    # IntegrationWarning (an error under this suite's filter)
    ln = log_normal(4.0, 3.0)
    t0 = time.perf_counter()
    value = expected_isolated(ln, 2000.0, 0.0, Metric.SQUARE)
    assert time.perf_counter() - t0 < 5.0
    assert value == pytest.approx(2.3943, abs=1e-4)


@pytest.mark.parametrize("model,target", [(GAUSS, 0.892521), (TABLE3, 0.890406),
                                          (DENSE, 0.970675),
                                          (gaussian(cutoff_eps=0.1), 0.874598),
                                          (log_normal(4.0, 3.0), 0.829145)])
def test_edge_layer_rate_general_kernels(model, target):
    # large-density edge-strip term for a general kernel (Dettmann and
    # Georgiou, Phys. Rev. E 93, 032313): E_sq - E_tor ~
    # 2 e^{-b/2} sqrt(C) / (int_0^cutoff g) / sqrt(log rho + b), which is
    # criterion 6's 2 sqrt(pi) e^{-b/2} rate for the unit disk; the scaled
    # excess approaches it from above
    b = 3.0
    if model.kind == "gaussian":
        line_mass = 0.5 * math.sqrt(math.pi) * math.erf(model.cutoff)
    elif model.kind == "table":
        line_mass = float(np.trapezoid(model.values, model.radii))
    else:
        from scipy import integrate

        line_mass = integrate.quad(model.g, 0.0, model.cutoff)[0]
    want = 2.0 * math.exp(-0.5 * b) * math.sqrt(model.C) / line_mass
    assert want == pytest.approx(target, rel=1e-5)
    rates = []
    for rho in (1e50, 1e100):
        e_sq = expected_isolated(model, rho, b, Metric.SQUARE)
        e_tor = expected_isolated(model, rho, b, Metric.TORUS)
        rates.append((e_sq - e_tor) * math.sqrt(math.log(rho) + b))
        assert rates[-1] == pytest.approx(want, rel=1e-3), rho
    assert rates[0] > rates[1] > want


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


def _converged_rule(model, deltas):
    """The radial rule alone, also for kernels with a closed form."""
    mass, _ = theory._converged(lambda n: theory._visible_mass_rule(model, deltas, n),
                                "rule")
    return mass


def test_visible_mass_generic_vs_mc():
    inf = math.inf
    cases = [
        (UD, (0.3, 0.5)),
        (UD, (0.15, 0.2)),  # adjacent clips overlap near u = 1
        (GAUSS, (0.5, 1.2)),
        (GAUSS, (2.0, inf)),
        # eps 0.1: the truncation moves the mass far beyond the MC noise
        (gaussian(cutoff_eps=0.1), (0.4, 0.6)),
        (gaussian(cutoff_eps=0.1), (0.3, 0.2)),
        (log_normal(4.0, 3.0), (0.4, 1.5)),
        (log_normal(4.0, 3.0), (2.0, 0.3)),
        (TABLE3, (1.0, 0.6)),  # clip exactly on the knot at 1
        (TABLE3, (0.3, 1.2)),
        (DENSE, (float(DENSE_RADII[20]), 0.35)),  # on a knot
        (DENSE, (0.05, 0.8)),
    ]
    for i, (model, deltas) in enumerate(cases):
        got, _ = theory._converged(lambda n: theory._visible_mass(model, deltas, n),
                                   "visible mass")
        est, se = mc_visible_mass(model, deltas, 4_000_000, seed=100 + i)
        assert abs(got - est) < 5.0 * se, (deltas, got, est, se)


@pytest.mark.parametrize("model", [TABLE3, TABLE5, DENSE])
def test_table_visible_mass_closed_form_matches_rule(model):
    # the piecewise closed form against the radial Gauss rule, which
    # breaks its panels at every knot; scalars, and the grids the square
    # means pass: the corner grid over 0, every knot, the cutoff and past
    # it, the split rows that straddle the overlap's onset, and the edge
    inf, c = math.inf, model.cutoff
    for deltas in ((0.2, inf), (1.0, 0.6), (0.45, 0.3), (0.0, 0.0)):
        got = theory._visible_mass(model, deltas, 8)
        assert np.ndim(got) == 0
        assert got == pytest.approx(_converged_rule(model, deltas), rel=1e-12,
                                    abs=1e-14), deltas
    grid = np.array([0.0, *model.radii[1:], c, 1.2 * c])
    onset = np.sqrt(np.maximum(c * c - grid * grid, 0.0))[:, None] * np.linspace(0.5, 1.5, 6)
    for deltas in ((grid[:, None], grid), (grid[:, None], onset), (grid, inf)):
        got = theory._visible_mass(model, deltas, 8)
        assert got.shape == np.broadcast_shapes(*(np.shape(d) for d in deltas))
        np.testing.assert_allclose(got, _converged_rule(model, deltas), rtol=1e-12,
                                   atol=1e-14, err_msg=str(deltas))


@pytest.mark.parametrize("model", [GAUSS, gaussian(cutoff_eps=1e-3),
                                   gaussian(cutoff_eps=0.1)])
def test_gaussian_visible_mass_closed_form_matches_rule(model):
    # the Owen's T form against the radial Gauss rule: a clip at 0, a clip
    # on the cutoff, clip pairs on both sides of the overlap's onset, and a
    # corner grid broadcast as the edge layer uses it
    inf, c = math.inf, model.cutoff
    grid = np.linspace(0.0, c, 7)
    for deltas in ((0.0, inf), (c, 0.3), (0.0, 0.0), (0.6 * c, 0.79 * c),
                   (0.45, 0.3), (grid[:, None], grid)):
        np.testing.assert_allclose(theory._visible_mass(model, deltas, 8),
                                   _converged_rule(model, deltas), rtol=1e-12,
                                   atol=1e-14, err_msg=str(deltas))


@pytest.mark.parametrize("model", [UD, gaussian(cutoff_eps=0.1)])
def test_square_converges_at_low_density_with_cutoff_jump(model):
    # the corner overlap sets in on the arc hypot(d1, d2) = cutoff with a
    # (cutoff - h)^(3/2) kink weighted by g(cutoff); without a panel break
    # there the rule stalls near 1e-8 and raises at low density
    for rho, b in ((20.0, 0.0), (40.0, -2.0), (100.0, -2.0)):
        value, err = expected_isolated(model, rho, b, Metric.SQUARE,
                                       return_error=True)
        assert err <= 1e-9 * value, rho
    if model is UD:
        r = connection_radius(UD.C, 20.0, 0.0)
        direct, derr = square_mean_dblquad(UD, 20.0, r)
        assert expected_isolated(UD, 20.0, 0.0, Metric.SQUARE) == pytest.approx(
            direct, abs=derr)


def test_unit_disk_closed_forms_match_generic_path():
    # the disk's visible mass, caps and corner overlap, from the one-piece
    # table's arc closed form against the radial rule the log-normal takes
    inf = math.inf
    cases = [*((d, inf) for d in (0.05, 0.2, 0.6, 0.95)),
             (0.3, 0.5), (0.1, 0.15), (0.7, 0.7), (1.5, 0.0)]
    for deltas in cases:
        assert theory._visible_mass(UD, deltas, 8) == pytest.approx(
            _converged_rule(UD, deltas), rel=1e-9), deltas
    # arrays broadcast as in the square means' grids
    d = np.array([0.1, 0.4, 0.9])
    got = theory._visible_mass(UD, (d[:, None], d), 8)
    assert got.shape == (3, 3)
    assert got[1, 2] == pytest.approx(theory._visible_mass(UD, (0.4, 0.9), 8), rel=1e-15)


def test_unit_disk_corner_beyond_the_disk_is_exactly_zero():
    # a clip pair whose corner lies outside the disk overlaps nowhere; a
    # corner closed form would leave 2.1e-14 here, which the edge layer
    # amplifies by rho r^2 = 73 at rho 1e100
    inf = math.inf
    cap = math.acos(1e-3) - 1e-3 * math.sqrt(1.0 - 1e-6)
    assert float(theory._visible_mass(UD, (1e-3, inf), 8)) == pytest.approx(
        math.pi - cap, abs=1e-15)


@pytest.mark.parametrize("b", [0.0, 3.0])
def test_unit_disk_square_mean_at_huge_density_vs_edge_oracle(b):
    value, err = expected_isolated(UD, 1e100, b, Metric.SQUARE, return_error=True)
    want = unit_disk_square_mean_edge(1e100, b)
    assert abs(value - want) <= err, (value, err, want)


def test_square_decomposition_matches_direct_quadrature():
    # interior + edge strip + corner decomposition vs one brute dblquad
    # with the general visibility angle; the smooth kernel keeps the
    # latter affordable
    rho, b = 200.0, 0.0
    r = connection_radius(GAUSS.C, rho, b)
    split, _ = theory._expected_isolated_square(GAUSS, rho, b)
    direct, derr = square_mean_dblquad(GAUSS, rho, r)
    assert split == pytest.approx(direct, rel=1e-6)


def test_square_quadrature_vs_simulation():
    # end-to-end check of the square decomposition against sampled
    # isolation counts
    from rcmsim.analysis import isolated_count
    from rcmsim.sampler import SampleParams, build_graph, sample_points

    rho, trials = 200.0, 2500
    want = expected_isolated(UD, rho, 0.0, Metric.SQUARE)
    counts = np.empty(trials)
    for t in range(trials):
        p = SampleParams(rho, 0.0, UD, Metric.SQUARE, 555, t)
        counts[t] = isolated_count(build_graph(p, sample_points(p)))
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - want) < 5.0 * se, (counts.mean(), want)


def test_torus_refuses_support_wider_than_half_the_period():
    # the sampler refuses this regime on the torus, and so does the theory
    r = connection_radius(GAUSS.C, 40.0, 0.0)
    assert r * GAUSS.cutoff > 0.5
    with pytest.raises(ParameterError):
        expected_isolated(GAUSS, 40.0, 0.0, Metric.TORUS)


@pytest.mark.parametrize("model", [
    UD, GAUSS, gaussian(cutoff_eps=1e-3), gaussian(cutoff_eps=0.1),
    log_normal(4.0, 2.0), log_normal(4.0, 3.0), TABLE3, TABLE5,
], ids=["unit_disk", "gaussian", "gaussian-1e-3", "gaussian-0.1", "log_normal-4-2",
        "log_normal-4-3", "table3", "table5"])
def test_torus_matches_limit_when_support_fits(model):
    # every kind's C is the mass of the truncated kernel the torus sums
    # over, so rho exp(-rho r^2 C) is e^{-b} at any density where the
    # support fits in the cell (the log-normal (4, 2) misses at rho 2000)
    for rho, b in ((2000.0, 0.0), (1e20, 0.5), (1e100, 3.0)):
        if connection_radius(model.C, rho, b) * model.cutoff > 0.5:
            with pytest.raises(ParameterError):
                expected_isolated(model, rho, b, Metric.TORUS)
            continue
        got = expected_isolated(model, rho, b, Metric.TORUS)
        assert got == pytest.approx(math.exp(-b), rel=1e-12), (rho, b)


def test_truncated_gaussian_torus_campaign_mean_is_limit():
    # at eps 0.1 the truncated mass is 0.9 pi, so a range set from pi
    # would put the mean near 2.1 here.  Seed 7, as in the acceptance
    # campaigns
    trials = 400
    cfg = CampaignConfig(model=gaussian(cutoff_eps=0.1), rho_list=(2000.0,), b_list=(0.0,),
                         metric="torus", trials=trials, master_seed=7, epsilon=0.25,
                         output_path="unused.csv", format="csv")
    summary, _, _ = run_campaign(cfg, workers=1)
    cell = summary.cells[0]
    assert cell.theory_isolated == pytest.approx(1.0, rel=1e-12)
    se = math.sqrt(cell.var_isolated / trials)
    assert abs(cell.mean_isolated - 1.0) <= 4.0 * se, (cell.mean_isolated, se)


# --- cross mass ---


def _cross_mass(model, s):
    """The cross mass rule at the first order that agrees with the next."""
    return theory._converged(lambda n: theory._cross_mass_rule(model, s, n), "cross mass")[0]


def test_cross_mass_unit_disk_vs_point_count_mc():
    for s in (0.3, 1.0, 1.7):
        got = _cross_mass(UD, s)
        est, se = mc_lens_area(s, 4_000_000, seed=int(10 * s))
        assert abs(got - est) < 5.0 * se
        assert got == pytest.approx(lens_area(s), rel=1e-12)


def test_cross_mass_gaussian_closed_form():
    # product of two gaussians integrates to (pi/2) e^{-s^2/2}; truncation
    # at the stored cutoff perturbs this at the 1e-12 level
    for s in (0.0, 0.7, 1.9, 3.5):
        want = 0.5 * math.pi * math.exp(-0.5 * s * s)
        got = _cross_mass(GAUSS, s)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("model,separations", [
    (TABLE3, (0.5, 1.0, 2.0, 3.0, 3.7)),        # knot sums and differences
    (TABLE5, (0.25, 0.5, 1.5, 2.5, 3.0, 3.5)),
    (DENSE, (float(DENSE_RADII[30]), 0.9, float(DENSE_RADII[50] + 2.0), 3.3)),
])
def test_cross_mass_tables_vs_mc(model, separations):
    got = _cross_mass(model, np.array(separations))
    for i, s in enumerate(separations):
        est, se = mc_cross_mass(model, s, 2_000_000, seed=300 + i)
        assert abs(got[i] - est) < 5.0 * se, (s, got[i], est, se)


@pytest.mark.parametrize("model,separations", [
    (TABLE3, (0.5, 1.0, 2.0, 3.0, 3.7)),
    (TABLE5, (0.25, 0.5, 1.5, 2.5, 3.0, 3.5)),
], ids=["table3", "table5"])
def test_table_cross_mass_vs_nested_quad(model, separations):
    # the closed-form angular integral against nested adaptive quad with
    # every knot crossing marked
    got = _cross_mass(model, np.array(separations))
    for i, s in enumerate(separations):
        assert got[i] == pytest.approx(quad_cross_mass_table(model, s), rel=1e-9), s


@pytest.mark.parametrize("model,want", [(TABLE3, 0.11594822607274964),
                                        (TABLE5, 0.12617330355832143)],
                         ids=["table3", "table5"])
def test_table_b2_pinned(model, want):
    # the values of the 2-D radial x angular rule the closed form replaced
    b1, b2, err = chen_stein_terms(model, 2000.0, 0.0, return_error=True)
    assert b2 == pytest.approx(want, rel=1e-7)
    assert 0.0 < err <= 1e-7 * b2


@pytest.mark.parametrize("model,want", [
    (TABLE3, (2.593642297785112, 2.5282165247071244, 2.416556750851911,
              1.2630316508081638)),
    (TABLE5, (2.5298745592607625, 2.466160365758354, 2.3588309760863817,
              1.2541570026876527)),
    (DENSE, (2.9379360390850646, 2.823597871910296, 2.6567464130517733,
             1.2867589932839714)),
], ids=["table3", "table5", "dense"])
def test_table_square_mean_pinned(model, want):
    # the closed-form arcs of the square means keep their values to
    # rounding, whatever order they are summed in
    for rho, value in zip((500.0, 2000.0, 1e4, 1e100), want):
        got, err = expected_isolated(model, rho, 0.0, Metric.SQUARE, return_error=True)
        assert got == pytest.approx(value, rel=1e-13), rho
        assert err <= 1e-9 * value, rho


@pytest.mark.parametrize("rho,b,want", [
    (500.0, 0.0, 2.322092006386687), (2000.0, 0.0, 2.2812933158393545),
    (1e4, 0.0, 2.2012934062581384), (1e100, 0.0, 1.2336239221186123),
    (4000.0, 3.0, 0.32588646236653723),
])
def test_unit_disk_square_mean_pinned(rho, b, want):
    # values of the disk's own cap-and-corner closed form, which the
    # one-piece table g = 1 on [0, 1] now reproduces
    got, err = expected_isolated(UD, rho, b, Metric.SQUARE, return_error=True)
    assert got == pytest.approx(want, rel=1e-13)
    assert err <= 1e-9 * want


def test_unit_disk_mean_degree_square_pinned():
    rep = theory_report(UD, 4000.0, 0.0, Metric.SQUARE)
    assert rep.mean_degree_square == pytest.approx(8.11405200170292, rel=1e-13)


def test_truncated_gaussian_cross_mass_vs_mc():
    # at eps 0.1 the lens of the two cutoff discs cuts (pi/2) e^{-s^2/2}
    # by up to 95% (at s = 2.9, near 2 cutoff = 3.03)
    model = gaussian(cutoff_eps=0.1)
    separations = (0.0, 0.7, 1.5, 2.5, 2.9)
    got = _cross_mass(model, np.array(separations))
    for i, s in enumerate(separations):
        est, se = mc_cross_mass(model, s, 2_000_000, seed=400 + i)
        assert abs(got[i] - est) < 5.0 * se, (s, got[i], est, se)
    # pinned at the b2 a 2-D radial x angular rule gives
    b2 = chen_stein_terms(model, 2000.0, 0.0)[1]
    assert b2 == pytest.approx(0.14258767632212632, rel=1e-9)


def test_cross_mass_vanishes_beyond_double_cutoff():
    assert _cross_mass(UD, 2.0) == 0.0
    assert _cross_mass(GAUSS, 2.0 * GAUSS.cutoff + 1.0) == 0.0


def test_pair_correlation_table_knots_are_break_points():
    # a separation a hair below the knot at 1: every knot crossing of the
    # shifted kernel is a kink of the angular integrand, and an unmarked
    # kink stalls the rule short of convergence
    got = _cross_mass(TABLE5, 1.0 - 2.5e-12)
    near = _cross_mass(TABLE5, 1.0 - 1e-6)
    # the cross mass is continuous in the separation
    assert got == pytest.approx(near, rel=1e-5)


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


@pytest.mark.parametrize("rho", [2000.0, 1e4])
def test_gaussian_b2_error_covers_quad_oracle(rho):
    # 1-D adaptive quad with the closed-form cross mass (pi/2) e^{-s^2/2}
    b1, b2, err = chen_stein_terms(GAUSS, rho, 0.0, return_error=True)
    assert (b1, b2) == chen_stein_terms(GAUSS, rho, 0.0)
    assert 0.0 < err <= 1e-7 * b2
    assert abs(b2 - gaussian_b2(GAUSS, rho, 0.0, 0.25)) <= err + 1e-12 * b2


def test_chen_stein_forms_share_one_evaluation(monkeypatch):
    # asking for b2's error after the plain terms evaluates nothing again
    theory._chen_stein.cache_clear()
    calls = []
    rule = theory._cross_mass_rule
    monkeypatch.setattr(theory, "_cross_mass_rule",
                        lambda *args: calls.append(1) or rule(*args))
    try:
        b1, b2 = chen_stein_terms(TABLE3, 2000.0, 0.0)
        assert calls
        calls.clear()
        assert chen_stein_terms(TABLE3, 2000.0, 0.0, return_error=True)[:2] == (b1, b2)
        assert not calls
    finally:
        theory._chen_stein.cache_clear()


def test_log_normal_chen_stein_converges():
    # g falls from 0.99 to 0.01 between radii 0.5 and 2 of a cutoff of
    # 8.7: the radial and separation panels need breaks inside the profile
    b1, b2 = chen_stein_terms(log_normal(4.0, 3.0), 2000.0, 0.0)
    assert b1 > 0.0
    assert b2 == pytest.approx(0.1188696530, rel=1e-7)


def test_chen_stein_five_knot_table_is_fast():
    # 163 s with seven leaked IntegrationWarnings under nested quad
    theory._chen_stein.cache_clear()
    t0 = time.perf_counter()
    b1, b2 = chen_stein_terms(TABLE5, 2000.0, 0.0)
    assert time.perf_counter() - t0 < 5.0
    assert b1 > 0.0 and b2 > 0.0


def test_dense_table_square_mean_and_chen_stein(monkeypatch):
    # 65 knots, every one a break point: no adaptive quad and no
    # QuadratureError (nested quad took minutes on 25 knots)
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    t0 = time.perf_counter()
    value, err = expected_isolated(DENSE, 2000.0, 0.0, Metric.SQUARE,
                                   return_error=True)
    assert time.perf_counter() - t0 < 5.0
    assert err <= 1e-9 * value
    assert value > expected_isolated(DENSE, 2000.0, 0.0, Metric.TORUS)
    b1, b2 = chen_stein_terms(DENSE, 2000.0, 0.0)
    assert b1 > 0.0 and math.isfinite(b2) and b2 > 0.0


def test_theory_does_not_nest_adaptive_quad(monkeypatch):
    # square means and Chen-Stein terms come from the fixed-panel rules
    # alone
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    theory._expected_isolated_square.cache_clear()
    theory._chen_stein.cache_clear()
    try:
        for model in (GAUSS, TABLE3):
            assert expected_isolated(model, 2000.0, 0.0, Metric.SQUARE) > 0.0
            assert chen_stein_terms(model, 2000.0, 0.0)[1] > 0.0
    finally:
        theory._expected_isolated_square.cache_clear()
        theory._chen_stein.cache_clear()


@pytest.mark.parametrize("quantity", [
    lambda: chen_stein_terms(UD, 2000.0, 0.0, return_error=True)[1:],
    lambda: expected_isolated(TABLE3, 6.0, 0.0, Metric.SQUARE, return_error=True),
    lambda: expected_isolated(log_normal(4.0, 3.0), 2000.0, 0.0, Metric.SQUARE,
                              return_error=True),
], ids=["unit-disk-b2", "table-square", "log-normal-square"])
def test_reported_error_covers_node_perturbation(quantity, monkeypatch):
    # the same Legendre nodes computed by scipy instead of numpy move each
    # value by a few to 62 eps; |Q_2n - Q_n| alone read 4e-16 where the
    # table's value moved by 4e-15
    from scipy.special import roots_legendre

    caches = (theory._rule, theory._expected_isolated_square, theory._chen_stein)
    for cache in caches:
        cache.cache_clear()
    value, err = quantity()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", roots_legendre)
    for cache in caches:
        cache.cache_clear()
    try:
        moved, _ = quantity()
    finally:
        for cache in caches:
            cache.cache_clear()
    assert moved != value
    assert abs(moved - value) <= err


def test_unconverged_rule_raises(monkeypatch):
    # orders too low for the tolerance: the rule fails loudly with its
    # achieved error estimate instead of returning a value
    monkeypatch.setattr(theory, "_ORDERS", (2, 4))
    theory._expected_isolated_square.cache_clear()
    with pytest.raises(QuadratureError) as info:
        expected_isolated(GAUSS, 200.0, 0.0, Metric.SQUARE)
    assert info.value.estimate > 0.0


@pytest.mark.parametrize("rho", [500.0, 2000.0, 1e4])
@pytest.mark.parametrize("model", [TABLE3, TABLE5], ids=["table3", "table5"])
def test_table_breaks_leave_no_sliver_panels(model, rho, monkeypatch):
    # a table's cutoff sits 1.7e-12 below its last knot, so cutoff / 2 lands
    # next to a knot; both kept, they made a panel that held n nodes on
    # almost no distance in the square mean's base and in b2's separations
    seen, panels = [], theory._panels

    def spy(breaks, n):
        if np.ndim(breaks) == 1:
            seen.append(np.array(breaks))
        return panels(breaks, n)

    monkeypatch.setattr(theory, "_panels", spy)
    caches = (theory._expected_isolated_square, theory._chen_stein)
    for cache in caches:
        cache.cache_clear()
    try:
        expected_isolated(model, rho, 0.0, Metric.SQUARE)
        square = len(seen)
        chen_stein_terms(model, rho, 0.0)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert 0 < square < len(seen)
    for breaks in seen:
        width = np.diff(breaks)
        assert not np.any((width > 0.0) & (width <= 1e-9 * (breaks[-1] - breaks[0]))), breaks
    knots = {k for k in model.radii if k < model.cutoff}
    for base in seen[:square]:
        assert knots <= set(base.tolist()), base


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_breaks_keep_kinks_and_drop_soft_breaks_next_to_them(data):
    model = data.draw(st.sampled_from([UD, GAUSS, TABLE3, TABLE5]))
    hi = data.draw(st.floats(0.01, 1e40))
    anywhere = st.floats(-1.0, 1.2 * hi)
    # a rule that starts at 0 passes the kink 0
    kinks = data.draw(st.lists(anywhere, max_size=6)) + data.draw(st.sampled_from([[], [0.0]]))
    # hi, and every kink of g (table knots, cutoff) or of `kinks` in [0, hi)
    g_kinks = [*(k for k in model.radii or () if 0.0 < k < model.cutoff), model.cutoff]
    hard = {hi, *(k for k in (*g_kinks, *kinks) if 0.0 <= k < hi)}
    # soft breaks up to three tolerances from a kink, on either side
    near = st.builds(lambda k, d: k * (1.0 + d) + d, st.sampled_from(sorted(hard)),
                     st.floats(-3e-9, 3e-9))
    soft = data.draw(st.lists(st.one_of(anywhere, near), max_size=12))
    got = theory._breaks(model, hi, kinks, soft)
    assert np.all(np.diff(got) > 0.0)
    assert got[-1] == hi
    kept = set(got.tolist())
    assert hard <= kept
    for q in set(soft) - hard:
        assert (q in kept) == (0.0 < q < hi and all(abs(q - k) > 1e-9 * q for k in hard)), q
    assert kept <= hard | set(soft)


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


# --- Poisson approximation, observed ---


def _tv_oracle(counts, lam, pmf=poisson_pmf_factorial):
    """TV over k = 0..max(max count, 10), the table pmf(lam, k_max), by
    default the factorial series, and the Poisson mass beyond it as one
    more cell."""
    counts = np.asarray(counts)
    k_max = max(int(counts.max()), 10)
    want = pmf(lam, k_max)
    observed = np.bincount(counts, minlength=k_max + 1) / counts.size
    return 0.5 * np.abs(observed - want).sum() + 0.5 * (1.0 - want.sum())


def test_poisson_pmf_matches_factorial_series():
    # counts beyond the default table of 11 entries widen it
    rng = np.random.default_rng(4)
    for lam in (0.3, 1.0, 5.0, 12.0):
        counts = rng.poisson(lam, 200)
        assert tv_to_poisson(counts, lam) == pytest.approx(_tv_oracle(counts, lam),
                                                           abs=1e-14)


@pytest.mark.parametrize("lam", [760.0, 1100.0])
def test_tv_to_poisson_past_exp_underflow(lam):
    # exp(-lam) underflows past lam ~ 745, and so does the factorial series
    from scipy.stats import poisson
    counts = np.random.default_rng(int(lam)).poisson(lam, 400)
    want = _tv_oracle(counts, lam, lambda lam, k_max: poisson.pmf(np.arange(k_max + 1), lam))
    assert 0.0 < want < 1.0
    assert tv_to_poisson(counts, lam) == pytest.approx(want, abs=1e-12)


def test_poisson_pmf_edge_cases():
    # lambda = 0 is a point mass at zero
    assert tv_to_poisson([0, 0, 0], 0.0) == 0.0
    assert tv_to_poisson([0, 1, 1, 3], 0.0) == pytest.approx(0.75)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            tv_to_poisson([0, 1], bad)


def test_tv_distance_examples():
    # a point mass at zero against Poisson(1): all of the Poisson mass
    # off zero, tail included, counts
    assert tv_to_poisson([0], 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    counts = [0, 1, 1, 3]
    assert tv_to_poisson(counts, 1.0) == pytest.approx(_tv_oracle(counts, 1.0), abs=1e-15)
    with pytest.raises(ParameterError):
        tv_to_poisson([], 1.0)
    with pytest.raises(ParameterError):
        tv_to_poisson([0, -1], 1.0)


def test_empirical_distribution_basics():
    # the observed side is the empirical law of the counts: order and
    # repetition of the whole sample leave it unchanged, and a count past
    # the default table widens the table to reach it
    counts = [0, 1, 1, 3]
    observed = np.array([0.25, 0.5, 0.0, 0.25] + [0.0] * 8)
    pmf = poisson_pmf_factorial(0.7, 11)
    want = 0.5 * np.abs(observed - pmf).sum() + 0.5 * (1.0 - pmf.sum())
    assert tv_to_poisson(counts, 0.7) == pytest.approx(float(want), abs=1e-15)
    assert tv_to_poisson([3, 1, 0, 1], 0.7) == tv_to_poisson(counts, 0.7)
    assert tv_to_poisson(counts * 2, 0.7) == pytest.approx(
        tv_to_poisson(counts, 0.7), abs=1e-15)
    assert tv_to_poisson([0, 15], 0.7) == pytest.approx(_tv_oracle([0, 15], 0.7),
                                                        abs=1e-15)
    with pytest.raises(ParameterError):
        tv_to_poisson([], 0.7)
    with pytest.raises(ParameterError):
        tv_to_poisson([0, -1], 0.7)

def test_tv_distance_sees_table_tail_split():
    # the table runs to the largest count: a count of 20 moves the Poisson
    # mass at k = 11..20 from the tail cell into the table, where it still
    # counts in full, so only the observed 1/2 at k = 20 changes the sum
    short = tv_to_poisson([1, 1], 1.0)
    long = tv_to_poisson([1, 20], 1.0)
    pmf = poisson_pmf_factorial(1.0, 20)
    assert short == pytest.approx(1.0 - pmf[1], abs=1e-15)
    assert long == pytest.approx(
        0.5 * (abs(0.5 - pmf[1]) + abs(0.5 - pmf[20]) + 1.0 - pmf[1] - pmf[20]), abs=1e-15)


# --- reports ---


def test_theory_report_fields():
    rep = theory_report(UD, 1e3, 0.5, Metric.TORUS)
    assert rep.asymptotic_mean == pytest.approx(math.exp(-0.5))
    assert rep.prob_no_isolated == pytest.approx(math.exp(-math.exp(-0.5)))
    assert rep.mean_degree == pytest.approx(math.log(1e3) + 0.5)
    assert rep.expected_isolated == rep.expected_isolated_torus
    assert rep.expected_isolated == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert rep.quad_error_torus == 0.0
    assert rep.boundary_excess > 0.0
    assert rep.expected_isolated_square == expected_isolated(UD, 1e3, 0.5, Metric.SQUARE)
    assert 0.0 < rep.quad_error_square <= 1e-9 * rep.expected_isolated_square
    sq = theory_report(UD, 1e3, 0.5, Metric.SQUARE)
    assert sq.expected_isolated == sq.expected_isolated_square
    assert sq.expected_isolated == pytest.approx(
        rep.expected_isolated + rep.boundary_excess)
    assert dataclasses.replace(sq, expected_isolated=rep.expected_isolated) == rep


def test_asymptotic_report_fields():
    # the limit fields depend on b and the scale log rho + b alone: the
    # same on either metric and for any model
    for model, metric in ((UD, Metric.TORUS), (UD, Metric.SQUARE),
                          (TABLE3, Metric.TORUS)):
        rep = theory_report(model, 1e3, 0.5, metric)
        assert rep.asymptotic_mean == pytest.approx(math.exp(-0.5))
        assert rep.prob_no_isolated == pytest.approx(math.exp(-math.exp(-0.5)))
        assert rep.mean_degree == pytest.approx(math.log(1e3) + 0.5)


@pytest.mark.parametrize("model, rho", [
    (UD, 200.0), (GAUSS, 1000.0), (log_normal(4.0, 3.0), 1000.0),
    (table_model([(0.0, 1.0), (0.5, 1.0), (1.0, 0.4), (2.0, 0.0)]), 500.0)],
    ids=["unit_disk", "gaussian", "log_normal", "plateau"])
def test_square_mean_degree_vs_mc(model, rho):
    # E[2M] / E[N] on the square is rho times the pair mass over the
    # square; the edge strips put it more than ten standard errors below
    # the limit log rho + b
    b = 0.5
    rep = theory_report(model, rho, b, Metric.SQUARE)
    r = connection_radius(model.C, rho, b)
    mass, se = mc_square_pair_mass(model, r, 4_000_000, seed=31)
    assert abs(rep.mean_degree_square - rho * mass) <= 5.0 * rho * se
    assert rep.mean_degree - rep.mean_degree_square > 10.0 * rho * se
    assert rep.mean_degree == pytest.approx(math.log(rho) + b)


def test_wide_support_raises_on_both_metrics():
    # r * cutoff = 0.90: the square refuses the support as the torus does
    # (test_torus_refuses_support_wider_than_half_the_period), so no
    # report exists on either metric
    with pytest.raises(ParameterError, match="exceeds 1/2"):
        expected_isolated(GAUSS, 40.0, 0.0, Metric.SQUARE)
    for metric in Metric:
        with pytest.raises(ParameterError, match="exceeds 1/2"):
            theory_report(GAUSS, 40.0, 0.0, metric)


@pytest.mark.parametrize("rho, b, prob", [(2000.0, 40.0, 1.0), (1e30, -40.0, 0.0)])
def test_report_at_extreme_offsets(rho, b, prob):
    # exp(-exp(-b)) rounds to exactly 1 or 0: a valid limit, not an error
    rep = theory_report(UD, rho, b, Metric.TORUS)
    assert rep.prob_no_isolated == prob
    assert math.isfinite(rep.expected_isolated_square)
    assert rep.expected_isolated == pytest.approx(math.exp(-b), rel=1e-9)


def test_report_validation():
    fields = dict(expected_isolated=1.0, expected_isolated_square=1.5,
                  quad_error_square=0.0, expected_isolated_torus=1.0,
                  quad_error_torus=0.0, boundary_excess=0.5,
                  asymptotic_mean=1.0, prob_no_isolated=0.5, mean_degree=1.0,
                  mean_degree_square=0.9)
    TheoryReport(**fields)
    TheoryReport(**{**fields, "prob_no_isolated": 1.0})
    with pytest.raises(ParameterError):
        TheoryReport(**{**fields, "prob_no_isolated": 1.5})
    # each field refuses NaN and a negative value
    assert set(fields) == {f.name for f in dataclasses.fields(TheoryReport)}
    for name in fields:
        for bad in (math.nan, -1.0):
            with pytest.raises(ParameterError, match=f"^{name} must"):
                TheoryReport(**{**fields, name: bad})


def test_scale_guard():
    with pytest.raises(ParameterError):
        expected_isolated(UD, 2.0, -1.0, Metric.TORUS)  # log rho + b <= 0
    with pytest.raises(ParameterError):
        expected_isolated(UD, -5.0, 0.0, Metric.TORUS)
    with pytest.raises(ParameterError):
        expected_isolated(UD, 1e3, 0.0, "torus")
    with pytest.raises(ParameterError):
        theory_report(UD, 1.0, 0.0)
