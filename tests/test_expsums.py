import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from diagpair import expsums
from diagpair.budget import BudgetError
from diagpair.expsums import BoxSumSpec, block_sums, box_sum
from diagpair.expsums import _LIMB_WIDTHS, _SCALE, PHASE_BITS, TWO_PI, _limb_width, _phase_sums, scaled_coeff

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


def fraction_scaled_coeff(alpha, mult=1):
    # the exact-rational quantization: Fraction's round is half to even
    f = Fraction(alpha) * mult
    f -= math.floor(f)
    return round(f * _SCALE) % _SCALE


def python_int_sum(phases):
    # each term's scaled phase as a Python int, divided by 2**96 in one
    # correctly rounded int division, then cos/sin and math.fsum
    angles = TWO_PI * np.array([p / _SCALE for p in phases])
    return math.fsum(np.cos(angles)), math.fsum(np.sin(angles))


def python_int_block_sum(a1, a2, a3, Y, H):
    A1, A2, A3 = scaled_coeff(a1), scaled_coeff(a2), scaled_coeff(a3)
    return python_int_sum(
        (h * A1 + h * y * A2 + h * y * y * A3) % _SCALE for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)
    )


def test_scaled_coeff_quantization():
    assert scaled_coeff(0.0) == 0
    assert scaled_coeff(0.5) == 1 << (PHASE_BITS - 1)
    assert scaled_coeff(0.25, 2) == 1 << (PHASE_BITS - 1)
    # integer part dropped exactly
    assert scaled_coeff(3.25) == scaled_coeff(0.25)
    # half-ulp ties round to even
    assert scaled_coeff(3 * 2.0**-97) == 2 and scaled_coeff(2.0**-97) == 0


@given(angles, st.integers(-6, 6))
def test_scaled_coeff_matches_fraction(alpha, mult):
    assert scaled_coeff(alpha, mult) == fraction_scaled_coeff(alpha, mult)


@given(st.fractions(-4, 4, max_denominator=10**6), st.integers(-6, 6))
def test_scaled_coeff_matches_fraction_on_fractions(alpha, mult):
    assert scaled_coeff(alpha, mult) == fraction_scaled_coeff(alpha, mult)


# exact half-ulp ties past 2^-96 round to even: 1.5 -> 2, 0.5 -> 0, 2.5 -> 2
@pytest.mark.parametrize("alpha,mult", [(3 * 2.0**-97, 1), (2.0**-97, 1), (5 * 2.0**-97, 1), (3 * 2.0**-97, -1), (3 * 2.0**-98, 2), (1 + 3 * 2.0**-97, -3)])
def test_scaled_coeff_ties_to_even(alpha, mult):
    assert scaled_coeff(alpha, mult) == fraction_scaled_coeff(alpha, mult)


@given(st.lists(st.tuples(angles, angles, angles), min_size=1, max_size=4), st.integers(1, 30), st.integers(1, 30))
@example([(0.21, -0.13, 0.07), (0.9, 3.5, -2.25)], 30, 8)
def test_block_sums_match_python_int_phases(coeffs, Y, H):
    # H, Y <= 30 covers the sweep script's (H, Y) = (8, 30) cell
    for got, a in zip(block_sums(coeffs, Y, H), coeffs):
        assert type(got) is complex
        assert (got.real, got.imag) == python_int_block_sum(*a, Y, H)


@pytest.mark.parametrize("w", _LIMB_WIDTHS)
def test_phase_kernel_every_limb_width(w):
    # multipliers whose per-term |m| sums reach just under 2^(63 - w), so that
    # w is the widest exact limb; against Python-int phases
    rng = np.random.default_rng(w)
    top = 2 ** (63 - w) - 1
    mults = rng.integers(-(top // 3), top // 3, size=(3, 40), endpoint=True)
    mults[:, 0] = top // 3
    bound = int(np.abs(mults).sum(axis=0).max())
    assert _limb_width(bound) == w
    coeffs = [[int(v) for v in rng.integers(0, 2**32, size=3)] for _ in range(3)]
    coeffs = [[(v << 64) ^ (v << 20) ^ v for v in row] for row in coeffs] + [[_SCALE - 1] * 3, [0, 1, _SCALE // 2]]
    for got, row in zip(_phase_sums(coeffs, mults, w), coeffs):
        phases = [sum(int(m) * A for m, A in zip(col, row)) % _SCALE for col in mults.T]
        assert (got.real, got.imag) == python_int_sum(phases)


def test_limb_width_limit():
    assert _limb_width(2**15 - 1) == 48
    assert _limb_width(2**62 - 1) == 1
    with pytest.raises(ValueError):
        _limb_width(2**62)


def test_limits_checked_before_any_array(monkeypatch):
    # with numpy unreachable, only checks made before an array is built can answer
    monkeypatch.setattr(expsums, "np", None)
    with pytest.raises(BudgetError) as err:
        block_sums([(0.1, 0.2, 0.3)], Y=10**5, H=10**5)
    assert err.value.what == "exponential sum terms"
    with pytest.raises(BudgetError):
        box_sum(BoxSumSpec(theta=0.5, P=1e9, cubic=1), 0.1, 0.2)
    # 3M terms fit the budget, but x^3 near 6.4e19 fits no int64 limb
    with pytest.raises(ValueError, match="overflow"):
        box_sum(BoxSumSpec(theta=0.5, P=4e6, cubic=1), 0.1, 0.2)


# The Weyl sum of the circle method is the box sum f(alpha) = sum over the box
# of e(cubic alpha3 x^3 + quad alpha2 x^2); these drive its 96-bit phase path.
@given(boxes(), angles, angles)
def test_weyl_matches_direct(spec, alpha2, alpha3):
    n = len(spec.members())
    got = box_sum(spec, alpha2, alpha3)
    assert type(got) is complex
    assert abs(got - direct_box_sum(spec, alpha2, alpha3)) <= 1e-7 * max(n, 1)


# The 96-bit phase kernel over a full cubic a1 x + a2 x^2 + a3 x^3, linear
# term included, which no box sum carries.
@given(angles, angles, angles, sizes)
def test_vinogradov_matches_direct(a1, a2, a3, X):
    x = np.arange(1, X + 1)
    coeffs = [[scaled_coeff(a1), scaled_coeff(a2), scaled_coeff(a3)]]
    got = _phase_sums(coeffs, np.stack([x, x**2, x**3]), _limb_width(X + X**2 + X**3))[0]
    direct = sum(cmath.exp(2j * math.pi * (a1 * x + a2 * x**2 + a3 * x**3)) for x in range(1, X + 1))
    assert abs(got - direct) <= 1e-7 * X


@given(boxes(), angles, angles)
def test_weyl_conjugate_symmetry(spec, alpha2, alpha3):
    n = len(spec.members())
    z = box_sum(spec, alpha2, alpha3)
    w = box_sum(spec, -alpha2, -alpha3)
    assert abs(w - z.conjugate()) <= 1e-10 * max(n, 1)


@given(boxes(), angles, angles)
def test_weyl_trivial_bound(spec, alpha2, alpha3):
    assert abs(box_sum(spec, alpha2, alpha3)) <= len(spec.members()) * (1 + 1e-12)


@given(boxes())
def test_weyl_at_zero_is_count(spec):
    assert box_sum(spec, 0.0, 0.0) == pytest.approx(len(spec.members()) + 0j)


@given(angles, angles, angles, st.integers(1, 12), st.integers(1, 12))
def test_block_sum_is_real(a1, a2, a3, Y, H):
    # h and -h contribute conjugate phases
    assert abs(block_sums([(a1, a2, a3)], Y, H)[0].imag) <= 1e-9 * (2 * H * Y)


def test_block_sum_direct():
    a1, a2, a3, Y, H = 0.21, -0.13, 0.07, 5, 3
    direct = sum(
        cmath.exp(2j * math.pi * (h * a1 + h * y * a2 + h * y * y * a3))
        for h in range(-H, H + 1)
        if h != 0
        for y in range(1, Y + 1)
    )
    got = block_sums([(a1, a2, a3)], Y, H)[0]
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
    assert box_sum(spec, 0.1, 0.2) == 0j


def test_box_sum_direct():
    spec = BoxSumSpec(theta=0.4, P=40, cubic=2, quad=-1)
    a2, a3 = 0.31, 0.17
    direct = sum(
        cmath.exp(2j * math.pi * (2 * a3 * x**3 - a2 * x**2)) for x in spec.members()
    )
    got = box_sum(spec, a2, a3)
    assert abs(got - direct) <= 1e-7 * len(spec.members())


def test_box_kind_validation():
    with pytest.raises(ValueError):
        BoxSumSpec(theta=0.3, P=10)
    with pytest.raises(ValueError):
        BoxSumSpec(theta=0.3, P=10, cubic=1, quad=1, smooth_R=1)
    for theta, P in ((math.nan, 10.0), (math.inf, 10.0), (0.3, math.nan), (0.3, math.inf)):
        with pytest.raises(ValueError, match="theta and P must be finite and positive"):
            BoxSumSpec(theta=theta, P=P, cubic=1)
