import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diagpair.arcs import (
    ArcFamily,
    dirichlet_approx,
    membership,
    minor_arc_weyl_check,
    transfer_bound_check,
    transfer_grid,
    transfer_lambda,
    _witnesses_at_q,
)
from diagpair.expsums import _SCALE, TWO_PI, BoxSumSpec, scaled_coeff

FAM = ArcFamily(Q=6.0, P=200.0, t=2)

unit = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


def test_widths():
    assert FAM.xi2 == 18 * 2 * 200.0**2
    assert FAM.xi3 == 18 * 2 * 200.0**3


def test_family_validation():
    with pytest.raises(ValueError):
        ArcFamily(Q=0.5, P=100.0, t=1)
    with pytest.raises(ValueError):
        ArcFamily(Q=4.0, P=-1.0, t=1)
    with pytest.raises(ValueError):
        ArcFamily(Q=4.0, P=100.0, t=0)
    for Q, P in ((math.nan, 100.0), (math.inf, 100.0), (4.0, math.nan), (4.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ArcFamily(Q=Q, P=P, t=1)


def test_membership_at_rational_centers():
    for q, r2, r3 in [(1, 0, 0), (3, 1, 2), (5, 2, 4), (4, 1, 3)]:
        witness = membership(r2 / q, r3 / q, FAM)
        assert witness is not None
        wq, w2, w3 = witness
        # witness reproduces the same rational point in lowest terms
        assert Fraction(w2, wq) == Fraction(r2, q)
        assert Fraction(w3, wq) == Fraction(r3, q)


def test_membership_off_arcs():
    # golden-ratio-ish point far from every height-6 rational
    assert membership(0.381966, 0.618034, FAM) is None


def test_membership_width_edges():
    # halfwidth in alpha is (Q / xi2) / q around r2 / q
    w2 = FAM.Q / FAM.xi2
    assert membership(1 / 4 + 0.9 * w2 / 4, 3 / 4, FAM) == (4, 1, 3)
    assert membership(1 / 4 + 1.5 * w2 / 4, 3 / 4, FAM) is None


@given(unit, unit)
def test_arcs_disjoint(alpha2, alpha3):
    # at heights this far below P the arcs cannot overlap
    witnesses = [w for q in range(1, math.floor(FAM.Q) + 1) for w in _witnesses_at_q(alpha2, alpha3, FAM, q)]
    assert len(witnesses) <= 1


@given(unit, unit)
def test_nesting_in_height(alpha2, alpha3):
    small = ArcFamily(Q=3.0, P=200.0, t=2)
    if membership(alpha2, alpha3, small) is not None:
        assert membership(alpha2, alpha3, FAM) is not None


@given(st.floats(0.0, 1.0, allow_nan=False), st.integers(1, 400))
def test_dirichlet_contract(alpha, N):
    approx = dirichlet_approx(alpha, N)
    assert 1 <= approx.q <= N
    assert math.gcd(approx.a, approx.q) == 1
    assert abs(approx.q * Fraction(alpha) - approx.a) <= Fraction(1, N)
    assert approx.error <= 1 / N + 1e-15


def fraction_dirichlet(alpha, N):
    # the continued-fraction walk in Fraction arithmetic
    x = Fraction(alpha)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = math.floor(x), 1
    frac = x - math.floor(x)
    while frac != 0:
        x = 1 / frac
        a_i = math.floor(x)
        frac = x - a_i
        p_nxt, q_nxt = a_i * p_cur + p_prev, a_i * q_cur + q_prev
        if q_nxt > N:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    return p_cur, q_cur, float(abs(q_cur * Fraction(alpha) - p_cur))


@given(st.one_of(st.floats(-4.0, 4.0, allow_nan=False), st.fractions(-4, 4, max_denominator=10**4)), st.integers(1, 10**6))
def test_dirichlet_matches_fraction_walk(alpha, N):
    approx = dirichlet_approx(alpha, N)
    assert (approx.a, approx.q, approx.error) == fraction_dirichlet(alpha, N)


def test_dirichlet_pi_tail():
    approx = dirichlet_approx(math.pi - 3, 10)
    assert (approx.a, approx.q) == (1, 7)


@given(st.fractions(0, 1, max_denominator=60), st.integers(60, 500))
def test_dirichlet_recovers_exact_rationals(frac, N):
    approx = dirichlet_approx(frac, N)
    assert Fraction(approx.a, approx.q) == frac


def test_transfer_lambda_exact():
    assert transfer_lambda(Fraction(1, 3), 1, 3, 100) == 3
    assert transfer_lambda(Fraction(51, 100), 1, 2, 100) == 4
    assert transfer_lambda(Fraction(2, 7), 2, 7, 49) == 7
    assert transfer_lambda(Fraction(2, 7), 1, 3, 49) == 10
    # float path agrees to rounding
    assert transfer_lambda(0.51, 1, 2, 100) == pytest.approx(4.0)


@pytest.mark.parametrize("alpha,Z", [(0.5, math.inf), (math.nan, 3.0), (-math.inf, 3.0), (0.5, math.nan)])
def test_transfer_lambda_refuses_non_finite(alpha, Z):
    with pytest.raises(ValueError, match="alpha and Z must be finite"):
        transfer_lambda(alpha, 1, 2, Z)
    # exact inputs of any size stay exact: no float conversion to overflow
    assert transfer_lambda(Fraction(1, 3), 1, 3, Fraction(10**400)) == 3


def test_transfer_lambda_grows_with_distance():
    base = transfer_lambda(Fraction(1, 3), 1, 3, 1000)
    off = transfer_lambda(Fraction(1, 3) + Fraction(1, 50), 1, 3, 1000)
    assert off > base


def test_transfer_report_fields():
    samples = [(0.21, 4.0), (0.52, 3.0), (Fraction(1, 3), 5.0)]
    rep = transfer_bound_check(samples, X=40.0, Y=10.0, Z=160.0, theta=0.5)
    assert rep["samples"] == 3
    assert rep["C1_fitted"] > 0
    assert rep["C2_observed"] >= 0
    assert math.isfinite(rep["amplification"])
    assert rep["worst"] is None or set(rep["worst"]) == {"alpha", "b", "r", "lambda"}
    with pytest.raises(ValueError):
        transfer_bound_check([], X=1.0, Y=1.0, Z=1.0, theta=0.5)


def test_minor_arc_check_smoke(rng):
    spec = BoxSumSpec(theta=0.4, P=1.0, cubic=1, quad=1)
    rep = minor_arc_weyl_check(spec, Q=4.0, P=80.0, samples=25, rng=rng)
    assert rep["samples_used"] == 25
    assert rep["max_normalized"] > 0


def test_minor_arc_check_height_cap():
    spec = BoxSumSpec(theta=0.4, P=1.0, cubic=1)
    with pytest.raises(ValueError):
        minor_arc_weyl_check(spec, Q=50.0, P=100.0, samples=5)


def scalar_transfer_bound_check(samples, X, Y, Z, theta):
    # the (b, r) pairs scanned one at a time with a strict >
    c1 = c2 = 0.0
    worst = None
    for alpha, mag in samples:
        q = dirichlet_approx(alpha, max(1, math.isqrt(int(Z)))).q
        c1 = max(c1, mag / (X * (1 / q + 1 / Y + q / Z) ** theta))
        for r in range(1, 21):
            center = round(r * alpha)
            for b in range(center - 2, center + 3):
                if math.gcd(b, r) == 1:
                    lam = transfer_lambda(alpha, b, r, Z)
                    ratio = mag / (X * (1 / lam + 1 / Y + lam / Z) ** theta)
                    if ratio > c2:
                        c2, worst = ratio, {"alpha": alpha, "b": b, "r": r, "lambda": lam}
    return {"samples": len(samples), "X": X, "Y": Y, "Z": Z, "theta": theta, "C1_fitted": c1,
            "C2_observed": c2, "amplification": c2 / c1 if c1 > 0 else math.inf, "worst": worst}


def scalar_transfer_grid(cells, rng):
    # one block sum per sample from Python-int phases
    grid = {}
    for H, Y in cells:
        samples = []
        for k in range(24):
            if k < 16:
                a3 = float(rng.random())
            else:
                r = int(rng.integers(1, 9))
                a3 = int(rng.integers(0, r + 1)) / r + float(rng.normal(0, 1e-3))
            a1, a2 = float(rng.random()), float(rng.random())
            A1, A2, A3 = scaled_coeff(a1), scaled_coeff(a2), scaled_coeff(a3)
            phases = [(h * A1 + h * y * A2 + h * y * y * A3) % _SCALE for h in range(-H, H + 1) if h for y in range(1, Y + 1)]
            angles = TWO_PI * np.array([p / _SCALE for p in phases])
            samples.append((a3, math.hypot(math.fsum(np.cos(angles)), math.fsum(np.sin(angles)))))
        grid[(H, Y)] = scalar_transfer_bound_check(samples, float(H * Y), float(Y), float(H * Y * Y), 0.5)
    return grid


@pytest.mark.parametrize("seed", [0, 7, 12])
def test_transfer_grid_matches_scalar_route(seed):
    # criterion 12's desk cells; == on every float of every report
    cells = [(H, Y) for H in range(4, 13) for Y in range(4, 13)]
    assert transfer_grid(cells, np.random.default_rng(seed)) == scalar_transfer_grid(cells, np.random.default_rng(seed))


def test_transfer_report_keeps_first_maximum():
    # at Z = 1 the pairs b = 0, 1 (r = 1) tie at lambda 1.5 for alpha = 1/2, and
    # b = -1, 0 tie at the same ratio for alpha = -1/2: the first of all four wins
    samples = [(0.5, 1.0), (-0.5, 1.0)]
    rep = transfer_bound_check(samples, X=1.0, Y=1.0, Z=1.0, theta=0.5)
    assert rep["worst"] == {"alpha": 0.5, "b": 0, "r": 1, "lambda": 1.5}
    assert rep == scalar_transfer_bound_check(samples, 1.0, 1.0, 1.0, 0.5)
