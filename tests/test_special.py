import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv.special import erf, erfc, erfcx, log_norm_cdf, norm_cdf, norm_pdf


def test_erf_matches_libm_on_dense_grid():
    xs = np.concatenate([np.linspace(-6, 6, 4001), np.linspace(-30, 30, 1001)])
    ref = np.array([math.erf(v) for v in xs])
    assert np.max(np.abs(erf(xs) - ref)) < 1e-12


def test_accuracy_claims_against_libm():
    # the figures stated in the special.py docstring, on its 1e-4-step grid
    xs = np.linspace(-6, 6, 120001)
    ref = np.array([math.erf(v) for v in xs])
    assert np.max(np.abs(erf(xs) - ref)) < 9.7e-14
    xs = np.linspace(-6, 26, 320001)
    ref = np.array([math.erfc(v) for v in xs])
    assert np.max(np.abs(erfc(xs) - ref) / ref) < 4.2e-9


def test_erf_known_values():
    assert erf(0.0) == 0.0
    assert abs(erf(1.0) - 0.8427007929497149) < 1e-14
    assert abs(erf(-1.0) + 0.8427007929497149) < 1e-14
    assert erf(30.0) == 1.0


def test_erfc_relative_accuracy_in_tail():
    xs = np.linspace(3.0, 25.0, 400)
    ref = np.array([math.erfc(v) for v in xs])
    rel = np.abs(erfc(xs) - ref) / ref
    assert rel.max() < 1e-8


def test_erfcx_no_underflow_far_out():
    x = np.array([10.0, 50.0, 300.0])
    val = erfcx(x)
    # leading asymptotic term 1/(x sqrt(pi))
    approx = 1.0 / (x * np.sqrt(np.pi))
    assert np.all(val > 0)
    assert np.all(np.abs(val / approx - 1.0) < 0.01)


def test_norm_cdf_symmetry_and_values():
    zs = np.linspace(-8, 8, 1601)
    assert np.max(np.abs(norm_cdf(zs) + norm_cdf(-zs) - 1.0)) < 1e-13
    assert abs(norm_cdf(0.0) - 0.5) < 1e-15
    assert abs(norm_cdf(1.959963984540054) - 0.975) < 1e-12


def test_log_norm_cdf_branches_agree_at_switch():
    # both branches against the stdlib reference just either side of z = -8
    for z in (-8.0000001, -7.9999999):
        ref = math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
        assert abs(float(log_norm_cdf(z)) - ref) < 1e-10


def test_log_norm_cdf_matches_log_of_cdf_in_overlap():
    zs = np.linspace(-15.0, 2.0, 500)
    ref = np.array([math.log(0.5 * math.erfc(-z / math.sqrt(2))) for z in zs])
    assert np.max(np.abs(log_norm_cdf(zs) - ref)) < 1e-8


def test_log_norm_cdf_extreme_argument():
    # value from the asymptotic expansion; no overflow or -inf
    v = log_norm_cdf(-100.0)
    assert np.isfinite(v)
    expect = -0.5 * 100.0**2 - math.log(100.0 * math.sqrt(2 * math.pi))
    assert abs(v - expect) < 1e-3


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-25.0, max_value=25.0))
def test_erf_is_odd_and_bounded(x):
    v = float(erf(x))
    assert -1.0 <= v <= 1.0
    assert abs(v + float(erf(-x))) < 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-40.0, max_value=8.0))
def test_log_norm_cdf_monotone(z):
    assert log_norm_cdf(z) <= log_norm_cdf(z + 0.1) + 1e-13


def test_norm_pdf_integrates_to_cdf_increment():
    zs = np.linspace(-3, 3, 601)
    pdf = norm_pdf(zs)
    approx = np.trapezoid(pdf, zs)
    assert abs(approx - (norm_cdf(3.0) - norm_cdf(-3.0))) < 1e-6
