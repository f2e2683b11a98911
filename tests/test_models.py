"""Kernel construction, truncation, radial integrals, and validation."""

import io
import math

import numpy as np
import pytest

from rcmsim.errors import ModelError, ParameterError
from rcmsim.models import (TRUNCATION_EPS, connection_radius, gaussian, load_table,
                           log_normal, table_model, unit_disk, validate_model)
from rcmsim.sampler import truncation_bias
from oracles import mc_log_normal_C, quad_radial_C
from test_theory import DENSE, TABLE3, TABLE5


# --- construction and evaluation ---


def test_unit_disk_basics():
    m = unit_disk()
    assert m.C == math.pi
    assert m.cutoff == 1.0
    assert m.g(0.0) == 1.0
    assert m.g(1.0) == 1.0  # closed support boundary
    assert m.g(1.0 + 1e-12) == 0.0
    assert m.validation.ok


def test_gaussian_basics():
    m = gaussian()
    # C is the truncated mass; the tail C_error makes up the plane's pi
    assert m.C == math.pi * (1.0 - math.exp(-m.cutoff * m.cutoff))
    assert m.C + m.C_error == pytest.approx(math.pi, rel=1e-15)
    # cutoff solves e^{-x^2} = eps
    assert m.cutoff == pytest.approx(math.sqrt(-math.log(TRUNCATION_EPS)),
                                     rel=1e-9)
    assert m.g(1.3) == pytest.approx(math.exp(-1.69), rel=1e-12)
    assert m.g(m.cutoff * 1.001) == 0.0
    assert m.C_error == pytest.approx(math.pi * TRUNCATION_EPS, rel=1e-6)
    assert m.validation.ok


@pytest.mark.parametrize("model", [
    unit_disk(), gaussian(), gaussian(cutoff_eps=0.1),
    log_normal(4.0, 2.0), log_normal(4.0, 3.0), log_normal(8.0, 3.0),
    log_normal(2.0, 6.0), log_normal(10.0, 2.0),
    TABLE3, TABLE5, DENSE,
    table_model([(0.5, 0.9), (1.0, 0.5), (2.0, 0.0)]),  # clamped below 0.5
], ids=["unit_disk", "gaussian", "gaussian-0.1", "log_normal-4-2", "log_normal-4-3",
        "log_normal-8-3", "log_normal-2-6", "log_normal-10-2", "table3", "table5", "dense",
        "first-knot-0.5"])
def test_closed_form_C_matches_adaptive_quadrature(model):
    # C is the mass of the truncated kernel for every kind; only the
    # analytic kinds leave a tail beyond the cutoff
    want, _, tail, tail_err = quad_radial_C(model)
    assert abs(model.C - want) <= 1e-13 * model.C
    assert (model.C_error > 0.0) == (model.kind in ("gaussian", "log_normal"))
    if model.C_error > 0.0:
        # the log-normal's tail is pi e^{1/a^2} - C, a difference of
        # C-sized numbers
        assert abs(model.C_error - tail) <= 1e-13 * model.C + tail_err


def test_table_plateau_above_eps_diverges():
    # no knot after the first drops to eps: the clamped plateau 0.2 runs
    # forever, so the radial mass is infinite
    m = table_model([(0.0, 1.0), (1.0, 0.5), (2.0, 0.2)])
    assert math.isinf(m.cutoff)
    assert math.isinf(m.C) and math.isinf(m.C_error)
    assert not m.validation.integral_finite


def test_log_normal_value_at_unity():
    # Q(0) = 1/2 regardless of parameters
    for sigma, eta in ((4.0, 2.0), (8.0, 3.0), (2.0, 6.0)):
        m = log_normal(sigma, eta)
        assert m.g(1.0) == pytest.approx(0.5, abs=1e-12)
        assert m.g(0.0) == 1.0
        assert m.validation.ok


def test_log_normal_C_against_importance_sampling():
    # oracle: bounded-weight importance sampling in log space
    m = log_normal(4.0, 2.0)
    est, se = mc_log_normal_C(4.0, 2.0, 4_000_000, seed=20240817)
    assert se < 0.01
    assert abs(m.C - est) < 5.0 * se + m.C_error


def test_log_normal_cutoff_is_first_eps_crossing():
    m = log_normal(4.0, 2.0)
    assert float(m.g_raw(m.cutoff)) <= TRUNCATION_EPS
    assert float(m.g_raw(m.cutoff * 0.98)) > TRUNCATION_EPS
    assert m.g(m.cutoff * 1.01) == 0.0


def test_truncation_epsilon_is_configurable():
    loose = log_normal(4.0, 2.0, cutoff_eps=1e-6)
    tight = log_normal(4.0, 2.0, cutoff_eps=1e-12)
    assert loose.cutoff < tight.cutoff
    assert loose.C < tight.C
    # discarded mass is accounted for
    assert loose.C + loose.C_error == pytest.approx(tight.C + tight.C_error,
                                                    rel=1e-6)


def test_tail_integral_zero_for_self_truncated():
    # the mass beyond the cutoff, C_error, is what truncation_bias counts
    assert unit_disk().C_error == truncation_bias(unit_disk(), 1e3, 0.0) == 0.0
    table = table_model([(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    assert table.C_error == truncation_bias(table, 1e3, 0.0) == 0.0
    assert gaussian().C_error == pytest.approx(math.pi * TRUNCATION_EPS, rel=1e-6)


def test_connection_radius():
    r = connection_radius(math.pi, 1000.0, 0.0)
    assert r == pytest.approx(math.sqrt(math.log(1000.0) / (math.pi * 1000.0)),
                              rel=1e-15)
    with pytest.raises(ParameterError):
        connection_radius(math.pi, 1000.0, -math.log(1000.0))
    with pytest.raises(ParameterError):
        connection_radius(math.pi, 0.0, 1.0)
    with pytest.raises(ParameterError):
        connection_radius(0.0, 10.0, 1.0)
    with pytest.raises(ParameterError):
        connection_radius(math.pi, 2.0, -(math.log(2.0)))  # exactly zero scale


# --- table kernels ---


def test_table_interpolation_and_clamping():
    m = table_model([(0.0, 1.0), (1.0, 0.8), (2.0, 0.2), (3.0, 0.0)])
    assert m.g(0.5) == pytest.approx(0.9, abs=1e-15)
    assert m.g(1.5) == pytest.approx(0.5, abs=1e-15)
    assert m.g(5.0) == 0.0
    assert m.cutoff <= 3.0
    assert m.validation.ok


def test_table_clamps_below_first_knot():
    m = table_model([(0.5, 0.9), (2.0, 0.0)])
    assert m.g(0.0) == pytest.approx(0.9, abs=1e-15)
    assert m.g(0.25) == pytest.approx(0.9, abs=1e-15)


def test_table_cutoff_at_first_eps_crossing():
    m = table_model([(0.0, 1.0), (1.0, 0.0), (2.0, 0.0)])
    assert m.cutoff == pytest.approx(1.0, rel=1e-9)
    # a knot exactly at cutoff_eps is the crossing
    m = table_model([(0.0, 1.0), (1.0, 1e-12), (2.0, 0.0)])
    assert m.cutoff == 1.0


def test_table_integral_matches_hand_value():
    # piecewise linear: int 2 pi x g = 2 pi [int_0^1 x(1 - x/2) + int_1^2 x(1 - x/2)]
    m = table_model([(0.0, 1.0), (2.0, 0.0)])
    exact = 2.0 * math.pi * (2.0 * 2.0 / 2.0 - 2.0**3 / 6.0)
    assert m.C == pytest.approx(exact, rel=1e-9)


def test_table_construction_errors():
    with pytest.raises(ModelError):
        table_model([(0.0, 1.0)])  # a single knot is not a profile
    with pytest.raises(ModelError):
        table_model([(1.0, 1.0), (0.5, 0.2)])  # radii must increase
    with pytest.raises(ModelError):
        table_model([(0.0, 1.0), (1.0, -0.1)])
    with pytest.raises(ModelError):
        table_model([(0.0, 1.0), (1.0, math.inf)])
    with pytest.raises(ModelError):
        table_model([(0.0, 0.0), (1.0, 0.0)])  # g(0) below truncation eps


def test_validation_flags_values_above_one():
    # out-of-range values construct (so they can be inspected) but fail
    # validation
    m = table_model([(0.0, 1.0), (1.0, 1.2), (2.0, 0.0)])
    rep = validate_model(m)
    assert not rep.range_ok
    assert not rep.ok


def test_load_table_round_trip(tmp_path):
    path = tmp_path / "kernel.txt"
    path.write_text(
        "# radius  value\n"
        "0.0 1.0\n"
        "\n"
        "0.7 0.62\n"
        "1.9 0.0\n"
    )
    m = load_table(path)
    assert m.radii == (0.0, 0.7, 1.9)
    assert m.g(0.35) == pytest.approx(0.81, abs=1e-15)

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0 7\n")
    with pytest.raises(ModelError):
        load_table(bad)


# --- validation report ---


def test_validation_accepts_standard_kernels():
    for m in (unit_disk(), gaussian(), log_normal(4.0, 2.0),
              table_model([(0.0, 1.0), (1.0, 0.4), (4.0, 0.0)])):
        rep = validate_model(m)
        assert rep.ok, m.kind
        assert rep.monotone_ok and rep.range_ok and rep.integral_finite
        assert rep.tail_ok


def test_validation_flags_non_monotone_table():
    m = table_model([(0.0, 1.0), (1.0, 0.2), (2.0, 0.6), (3.0, 0.0)])
    rep = validate_model(m)
    assert not rep.monotone_ok
    assert not rep.ok


def test_validation_flags_divergent_integral_and_slow_tail():
    # g = min(1, 1/x): never reaches the truncation epsilon, so the profile
    # keeps its clamp plateau forever; the radial mass diverges and, with
    # no finite cutoff, the tail condition fails
    xs = np.geomspace(1.0, 1e6, 200)
    knots = [(0.0, 1.0)] + [(float(x), float(1.0 / x)) for x in xs]
    m = table_model(knots)
    assert math.isinf(m.cutoff)
    rep = validate_model(m)
    assert not rep.integral_finite
    assert not rep.tail_ok
    assert not rep.ok


def test_validation_flags_small_rise_over_a_long_segment():
    # a rise of 1e-11 between two knots fails however long the segment;
    # sampling the segment finely would split it into steps below 1e-12
    m = table_model([(0.0, 0.8), (1.66, 0.80000000001), (2.1, 0.0)])
    rep = validate_model(m)
    assert rep.range_ok and rep.integral_finite and rep.tail_ok
    assert not rep.monotone_ok
    assert not rep.ok


@pytest.mark.parametrize("sigma_db,eta", [(60.0, 1.0), (1000.0, 0.5)])
def test_extreme_log_normal_has_no_finite_mass(sigma_db, eta):
    # the profile does not reach the epsilon by x = 2^80, and at (1000, 0.5)
    # the untruncated mass pi e^{1/a^2} overflows: like a table that never
    # drops, the kernel constructs with C = C_error = inf and fails
    # validation instead of raising
    m = log_normal(sigma_db, eta)
    assert math.isinf(m.cutoff)
    assert math.isinf(m.C) and math.isinf(m.C_error)
    rep = validate_model(m)
    assert rep.monotone_ok and rep.range_ok
    assert not rep.integral_finite and not rep.tail_ok and not rep.ok


def test_truncated_tails_pass_by_construction():
    # a slowly decaying but eps-crossing profile is truncated at its
    # crossing, so the truncated kernel vanishes beyond the cutoff and the
    # tail flag holds; only never-truncating profiles can trip it
    xs = np.geomspace(math.e, 1e8, 400)
    knots = [(0.0, 1.0), (1.0, 0.5)] + [
        (float(x), float(min(0.5, 1.0 / (x * x * math.log(x) ** 1.5))))
        for x in xs
    ]
    m = table_model(knots)
    assert math.isfinite(m.cutoff)
    rep = validate_model(m)
    assert rep.integral_finite
    assert rep.tail_ok
    assert rep.ok


def test_model_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        log_normal(-4.0, 2.0)
    with pytest.raises(ParameterError):
        log_normal(4.0, 0.0)
    with pytest.raises(ParameterError):
        gaussian(cutoff_eps=0.0)
    with pytest.raises(ParameterError):
        gaussian(cutoff_eps=1.5)
