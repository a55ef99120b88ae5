import cmath
import math

import pytest
from hypothesis import given, strategies as st

from diagpair import BoxSumSpec, block_sum, box_sum
from diagpair.expsums import _SCALE, PHASE_BITS, _exp_of_scaled, scaled_coeff

angles = st.floats(-4.0, 4.0, allow_nan=False)
coeffs = st.integers(-3, 3)
sizes = st.integers(1, 60)


@st.composite
def boxes(draw):
    # theta * P up to 30, so x runs to 60 and the phases reach 3 * 60^3 alpha3
    cubic, quad = draw(coeffs), draw(coeffs)
    if cubic == 0 and quad == 0:
        cubic = 1
    theta = draw(st.floats(0.1, 0.5))
    P = draw(st.floats(1.0, 60.0))
    return BoxSumSpec(theta=theta, P=P, cubic=cubic, quad=quad)


def direct_box_sum(spec, a2, a3):
    return sum(
        cmath.exp(2j * math.pi * (spec.cubic * a3 * x**3 + spec.quad * a2 * x**2)) for x in spec.members()
    )


def test_scaled_coeff_quantization():
    assert scaled_coeff(0.0) == 0
    assert scaled_coeff(0.5) == 1 << (PHASE_BITS - 1)
    assert scaled_coeff(0.25, 2) == 1 << (PHASE_BITS - 1)
    # integer part dropped exactly
    assert scaled_coeff(3.25) == scaled_coeff(0.25)


# The Weyl sum of the circle method is the box sum f(alpha) = sum over the box
# of e(cubic alpha3 x^3 + quad alpha2 x^2); these drive its 96-bit phase path.
@given(boxes(), angles, angles)
def test_weyl_matches_direct(spec, alpha2, alpha3):
    n = len(spec.members())
    got = box_sum(spec, alpha2, alpha3).as_complex()
    assert abs(got - direct_box_sum(spec, alpha2, alpha3)) <= 1e-7 * max(n, 1)


# The 96-bit phase path over a full cubic a1 x + a2 x^2 + a3 x^3, linear term
# included, which no box sum carries.
@given(angles, angles, angles, sizes)
def test_vinogradov_matches_direct(a1, a2, a3, X):
    A1, A2, A3 = scaled_coeff(a1), scaled_coeff(a2), scaled_coeff(a3)
    re, im = _exp_of_scaled([(A1 * x + A2 * x**2 + A3 * x**3) % _SCALE for x in range(1, X + 1)])
    direct = sum(cmath.exp(2j * math.pi * (a1 * x + a2 * x**2 + a3 * x**3)) for x in range(1, X + 1))
    assert abs(complex(re, im) - direct) <= 1e-7 * X


@given(boxes(), angles, angles)
def test_weyl_conjugate_symmetry(spec, alpha2, alpha3):
    n = len(spec.members())
    z = box_sum(spec, alpha2, alpha3).as_complex()
    w = box_sum(spec, -alpha2, -alpha3).as_complex()
    assert abs(w - z.conjugate()) <= 1e-10 * max(n, 1)


@given(boxes(), angles, angles)
def test_weyl_trivial_bound(spec, alpha2, alpha3):
    assert box_sum(spec, alpha2, alpha3).magnitude <= len(spec.members()) * (1 + 1e-12)


@given(boxes())
def test_weyl_at_zero_is_count(spec):
    assert box_sum(spec, 0.0, 0.0).as_complex() == pytest.approx(len(spec.members()) + 0j)


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
