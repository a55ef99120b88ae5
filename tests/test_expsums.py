import cmath
import math

import pytest
from hypothesis import given, strategies as st

from diagpair import BoxSumSpec, block_sum, box_sum, vinogradov_sum, weyl_sum
from diagpair.expsums import PHASE_BITS, scaled_coeff

angles = st.floats(-4.0, 4.0, allow_nan=False)
sizes = st.integers(1, 60)


def direct_poly_sum(a1, a2, a3, X):
    return sum(cmath.exp(2j * math.pi * (a1 * x + a2 * x**2 + a3 * x**3)) for x in range(1, X + 1))


def test_scaled_coeff_quantization():
    assert scaled_coeff(0.0) == 0
    assert scaled_coeff(0.5) == 1 << (PHASE_BITS - 1)
    assert scaled_coeff(0.25, 2) == 1 << (PHASE_BITS - 1)
    # integer part dropped exactly
    assert scaled_coeff(3.25) == scaled_coeff(0.25)


@given(angles, angles, sizes)
def test_weyl_matches_direct(alpha, beta, X):
    direct = direct_poly_sum(0.0, beta, alpha, X)
    got = weyl_sum(alpha, beta, X).as_complex()
    assert abs(got - direct) <= 1e-7 * X


@given(angles, angles, angles, sizes)
def test_vinogradov_matches_direct(a1, a2, a3, X):
    direct = direct_poly_sum(a1, a2, a3, X)
    got = vinogradov_sum(a1, a2, a3, X).as_complex()
    assert abs(got - direct) <= 1e-7 * X


@given(angles, angles, sizes)
def test_weyl_conjugate_symmetry(alpha, beta, X):
    z = weyl_sum(alpha, beta, X).as_complex()
    w = weyl_sum(-alpha, -beta, X).as_complex()
    assert abs(w - z.conjugate()) <= 1e-10 * X


@given(angles, angles, sizes)
def test_weyl_trivial_bound(alpha, beta, X):
    assert weyl_sum(alpha, beta, X).magnitude <= X * (1 + 1e-12)


def test_weyl_at_zero_is_count():
    assert weyl_sum(0.0, 0.0, 37).as_complex() == pytest.approx(37 + 0j)


@given(angles, angles, angles, st.integers(1, 12), st.integers(1, 12))
def test_block_sum_is_real(a1, a2, a3, Y, H):
    # h and -h contribute conjugate phases
    assert abs(block_sum(a1, a2, a3, Y, H).im) <= 1e-9 * (2 * H * Y)


def test_block_sum_direct():
    a1, a2, a3, Y, H = 0.21, -0.13, 0.07, 5, 3
    direct = sum(
        cmath.exp(2j * math.pi * (h * a1 + h * y * a2 + h * y * y * a3))
        for h in range(-H, H + 1)
        if h != 0
        for y in range(1, Y + 1)
    )
    got = block_sum(a1, a2, a3, Y, H).as_complex()
    assert abs(got - direct) <= 1e-9 * (2 * H * Y)


def test_block_sum_starred_substitution():
    a1, a2, a3, Y, H = 0.11, 0.05, 0.02, 4, 2
    starred = block_sum(a1, a2, a3, Y, H, starred=True)
    plain = block_sum(a1, 2 * a2, 3 * a3, Y, H)
    assert starred.as_complex() == pytest.approx(plain.as_complex(), abs=1e-12)


def test_box_range_bounds():
    spec = BoxSumSpec(theta=0.3, P=100, cubic=1)
    lo, hi = spec.range_bounds()
    assert (lo, hi) == (16, 60)
    assert spec.members() == list(range(16, 61))


def test_box_members_smooth():
    spec = BoxSumSpec(theta=0.3, P=100, cubic=1, smooth_R=5)
    members = spec.members()
    assert members == [16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60]


def test_box_sum_empty_box_is_zero():
    spec = BoxSumSpec(theta=0.3, P=1, cubic=1)
    assert spec.members() == []
    assert box_sum(spec, 0.1, 0.2).as_complex() == 0j


def test_box_sum_direct():
    spec = BoxSumSpec(theta=0.4, P=40, cubic=2, quad=-1)
    a2, a3 = 0.31, 0.17
    direct = sum(
        cmath.exp(2j * math.pi * (2 * a3 * x**3 - a2 * x**2)) for x in spec.members()
    )
    got = box_sum(spec, a2, a3).as_complex()
    assert abs(got - direct) <= 1e-7 * len(spec.members())


def test_box_kind_validation():
    with pytest.raises(ValueError):
        BoxSumSpec(theta=0.3, P=10)
    with pytest.raises(ValueError):
        BoxSumSpec(theta=0.3, P=10, cubic=1, quad=1, smooth_R=1)
