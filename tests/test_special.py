import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from fhtsurv import special
from fhtsurv.special import erf, erfc, erfcx, norm_cdf


def test_erf_matches_libm_on_dense_grid():
    xs = np.concatenate([np.linspace(-6, 6, 4001), np.linspace(-30, 30, 1001)])
    ref = np.array([math.erf(v) for v in xs])
    assert np.max(np.abs(erf(xs) - ref)) < 1e-12


def test_accuracy_claims_against_libm():
    # the figures stated in the special.py docstring, on its 1e-4-step grids
    xs = np.linspace(-6, 6, 120001)
    ref = np.array([math.erf(v) for v in xs])
    ulp = np.array([math.ulp(v) for v in ref])
    nz = ref != 0.0
    assert np.max(np.abs(erf(xs) - ref)[nz] / ulp[nz]) <= 4.0
    xs = np.linspace(-6, 26, 320001)
    ref = np.array([math.erfc(v) for v in xs])
    assert np.max(np.abs(erfc(xs) - ref) / ref) < 1e-15


def test_erfcx_against_scipy():
    # the docstring's figure on [0, 300]
    xs = np.linspace(0.0, 300.0, 300001)
    ref = sc.erfcx(xs)
    assert np.max(np.abs(erfcx(xs) - ref) / ref) < 2e-15
    # below zero erfcx = 2 exp(x^2) - erfcx(-x) inherits the 2 x^2
    # condition number of exp(x^2), about 1.4e3 at x = -26
    xs = np.linspace(-26.0, 0.0, 260001)
    ref = sc.erfcx(xs)
    assert np.max(np.abs(erfcx(xs) - ref) / ref) < 1e-13


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


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-25.0, max_value=25.0))
def test_erf_is_odd_and_bounded(x):
    v = float(erf(x))
    assert -1.0 <= v <= 1.0
    assert abs(v + float(erf(-x))) < 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-40.0, max_value=8.0))
def test_norm_cdf_monotone(z):
    assert norm_cdf(z) <= norm_cdf(z + 0.1)


def test_scalar_in_scalar_out():
    for fn in (erf, erfc, erfcx, norm_cdf):
        v = fn(0.7)
        assert np.ndim(v) == 0 and isinstance(float(v), float)
        assert fn(np.array([0.7]))[0] == v


def test_non_finite_arguments():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert list(erf(np.array([np.inf, -np.inf, 1e300]))) == [1.0, -1.0, 1.0]
        assert list(erfc(np.array([np.inf, -np.inf, 1e300]))) == [0.0, 2.0, 0.0]
        assert erfcx(np.inf) == 0.0
    assert np.isnan(erf(np.nan)) and np.isnan(erfc(np.nan)) and np.isnan(erfcx(np.nan))


def test_horner_identical_to_polyval():
    # each Cody range's polynomials on that range's own argument
    rng = np.random.default_rng(17)
    small = rng.uniform(0.0, special._THRESH, 20000) ** 2
    mid = rng.uniform(special._THRESH, 4.0, 20000)
    tail = 1.0 / np.exp(rng.uniform(np.log(4.0), np.log(1e9), 20000)) ** 2
    for coeffs, z in [(special._A, small), (special._B, small), (special._C, mid),
                      (special._D, mid), (special._P, tail), (special._Q, tail)]:
        z = np.append(z, [0.0, np.nan])
        assert np.array_equal(special._horner(coeffs, z), np.polyval(coeffs, z), equal_nan=True)


@pytest.mark.parametrize("fn", [erf, erfc, erfcx, norm_cdf])
def test_a_range_with_no_element_changes_no_value(fn):
    # Cody's ranges in erf's argument; norm_cdf's argument is -sqrt(2) times it
    scale = -np.sqrt(2.0) if fn is norm_cdf else 1.0
    small = np.array([-0.4, -1e-300, -0.0, 0.0, 1e-8, 0.3, 0.46875])
    mid = np.array([-3.9, -1.0, -0.5, 0.47, 2.0, 4.0])
    tail = np.array([-6.0, -4.5, 4.1, 9.0, 30.0, np.inf])
    parts = [small, mid, tail, np.concatenate([small, tail]), np.concatenate([mid, tail]),
             np.concatenate([small, mid]), np.empty(0)]
    mixed = scale * np.concatenate(parts)
    whole = fn(mixed)
    start = 0
    for part in parts:
        got = fn(scale * part)
        want = whole[start : start + part.size]
        start += part.size
        assert got.dtype == np.float64 and got.shape == part.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
