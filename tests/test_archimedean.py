import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from diagpair import archimedean
from diagpair.acceptance import LADDER6_THETA as THETA6
from diagpair.archimedean import (
    extrapolate_ladder,
    oscillatory_v,
    singular_integral,
    star_approx,
    unit_singular_integral,
    volume_constant,
)
from diagpair.arcs import ArcFamily
from diagpair.budget import DEFAULT_LEDGER_BUDGET, BudgetError
from diagpair.solver import find_real_anchor
from diagpair.systems import DiagonalSystem

THETA4 = (0.3, 0.3, 0.3, 0.3)
SRC = str(Path(__file__).resolve().parents[1] / "src")

# regression value for the height-8 unit integral of the separable
# six-variable system, frozen from the panel-doubling quadrature
LADDER6_W8 = 0.07791007449977659
# height-8 unit integral of sample5 at its Newton anchor, frozen from a
# two-pass quadrature at a quarter turn per panel and checked at an eighth
SAMPLE5_W8 = 0.10086349548726883


def _v_abs2(theta, p, b):
    """|v(b)|^2 for v(b) = integral of e(b g^p) over (theta/2, 2 theta), by scipy quad."""
    lo, hi = theta / 2, 2 * theta
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    re, _ = quad(lambda g: math.cos(2 * math.pi * b * g**p), lo, hi, **opts)
    im, _ = quad(lambda g: math.sin(2 * math.pi * b * g**p), lo, hi, **opts)
    return re * re + im * im


def _ladder6_w_by_quad(Q):
    """W(Q) of ladder6 at THETA6 from its separable form, independent of the package.

    The cubic pair y1^3 - y2^3 contributes |v_(0.3,cubic)(b3)|^2 and the
    quadratic pairs z1^2 - z2^2, z3^2 - z4^2 contribute
    |v_(0.25,sq)(b2)|^2 |v_(0.35,sq)(b2)|^2, so W(Q) is the product of two
    one-dimensional integrals over |b| <= Q, each of an even integrand.
    """
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    cubic, _ = quad(lambda b: _v_abs2(0.3, 3, b), 0.0, Q, **opts)
    square, _ = quad(lambda b: _v_abs2(0.25, 2, b) * _v_abs2(0.35, 2, b), 0.0, Q, **opts)
    return (2 * cubic) * (2 * square)


def test_v_at_zero_is_box_length():
    val = oscillatory_v(1, 0, 0.0, 0.0, 100.0, 0.3)
    assert type(val) is tuple and len(val) == 2
    value, error_estimate = val
    assert value == pytest.approx(45.0 + 0j, abs=1e-12)
    assert error_estimate <= 1e-9


@given(b2=st.floats(-0.2, 0.2), b3=st.floats(-0.02, 0.02))
@settings(max_examples=20)
def test_v_conjugate_symmetry(b2, b3):
    z, _ = oscillatory_v(1, 2, b2, b3, 20.0, 0.4)
    w, _ = oscillatory_v(1, 2, -b2, -b3, 20.0, 0.4)
    assert abs(w - z.conjugate()) <= 1e-9


@given(b2=st.floats(-0.5, 0.5), b3=st.floats(-0.05, 0.05))
@settings(max_examples=20)
def test_v_trivial_bound(b2, b3):
    val, _ = oscillatory_v(1, -1, b2, b3, 30.0, 0.25)
    assert abs(val) <= 1.5 * 0.25 * 30.0 + 1e-9


def test_v_matches_quad():
    P, th, b2, b3 = 15.0, 0.4, 0.11, 0.003
    lo, hi = th * P / 2, 2 * th * P

    def phase(g):
        return 2 * math.pi * (2 * b3 * g**3 - b2 * g * g)

    re, _ = quad(lambda g: math.cos(phase(g)), lo, hi, limit=300)
    im, _ = quad(lambda g: math.sin(phase(g)), lo, hi, limit=300)
    got, _ = oscillatory_v(2, -1, b2, b3, P, th)
    assert got == pytest.approx(complex(re, im), abs=1e-8)


def test_unit_integral_regression(ladder6):
    W, diag = unit_singular_integral(ladder6, THETA6, 8.0)
    assert W == pytest.approx(LADDER6_W8, abs=1e-10)
    assert abs(diag["imag_residue"]) <= 1e-12
    assert diag["error_estimate"] <= 1e-6
    assert diag["passes"] >= 2
    assert diag["nodes_b2"] > 0 and diag["nodes_b3"] > 0


@pytest.mark.parametrize("Q", [8.0, 16.0, 32.0])
def test_unit_integral_matches_separable_quad(ladder6, Q):
    W, diag = unit_singular_integral(ladder6, THETA6, Q)
    assert W == pytest.approx(_ladder6_w_by_quad(Q), abs=1e-12)
    assert diag["error_estimate"] <= 1e-13 * W


def test_unit_integral_refines_every_grid(sample5):
    # halving a turns-per-panel budget instead of doubling panel counts leaves
    # the small grids unrefined; two such passes agree to 5.8e-14 on
    # 0.1008634965820, which is 1.1e-9 off
    theta = find_real_anchor(sample5).theta
    W, diag = unit_singular_integral(sample5, theta, 8.0)
    assert W == pytest.approx(SAMPLE5_W8, abs=1e-13)
    assert diag["error_estimate"] <= 1e-13 * W


# one system per block layout, each at a rounded real anchor whose equal
# entries make conjugate coefficient pairs share a table; W, passes and the
# b2/b3 node counts were frozen from the quadrature that built a full
# (b2 x b3) matrix product for every variable, and the factor counts
# (1-D, 2-D) are the distinct coefficient pairs up to sign in each block
BLOCK_LAYOUT_PINS = {
    "mixed-only": (
        DiagonalSystem(a=(-1, -1, 2, -1), b=(1, -1, 1, -2)), (0.3697, 0.3321, 0.3834, 0.2945), 8.0,
        0.1621336753924733, 4, 576, 480, (0, 4),
    ),
    "y-only": (
        DiagonalSystem(a=(1, -1), b=(1, -1), c=(-1, 1)), (0.3455, 0.3455, 0.3683, 0.3683), 8.0,
        0.6478159377990816, 3, 144, 192, (1, 1),
    ),
    "z-only": (
        DiagonalSystem(a=(-1, 1), b=(1, -1), d=(1, -1)), (0.407, 0.407, 0.3421, 0.3421), 8.0,
        0.589326570916558, 4, 576, 384, (1, 1),
    ),
    "pure-only": (
        DiagonalSystem(a=(), b=(), c=(1, -1), d=(1, -1, 1, -1)), THETA6, 32.0,
        0.10053600871046492, 3, 624, 240, (3, 0),
    ),
    "all-three": (
        DiagonalSystem(a=(-1, 1), b=(1, 1), c=(-1,), d=(1, -1)), (0.234, 0.3609, 0.3245, 0.253, 0.499), 8.0,
        0.10087173846363795, 3, 240, 144, (3, 2),
    ),
}


@pytest.mark.parametrize("layout", sorted(BLOCK_LAYOUT_PINS))
def test_unit_integral_block_layout_pins(layout):
    sysd, theta, Q, W_pin, passes, nodes_b2, nodes_b3, (f1, f2) = BLOCK_LAYOUT_PINS[layout]
    W, diag = unit_singular_integral(sysd, theta, Q)
    assert W == pytest.approx(W_pin, rel=1e-13)
    assert (diag["passes"], diag["nodes_b2"], diag["nodes_b3"]) == (passes, nodes_b2, nodes_b3)
    assert (diag["factors_1d"], diag["factors_2d"]) == (f1, f2)


def _direct_phases(coef, gp, b):
    """e(coef gp b) for every (gamma, b) pair, one complex exponential per entry."""
    return np.exp(2j * math.pi * coef * np.outer(gp, b))


@pytest.mark.parametrize("one_row_chunks", [False, True], ids=["default-chunks", "one-row-chunks"])
@pytest.mark.parametrize("n_panels", [1, 7])
@pytest.mark.parametrize("coef", [3, -2])
def test_factor_1d_matches_direct_sum(monkeypatch, coef, n_panels, one_row_chunks):
    # the factor is built from per-panel and per-node phase factors; the direct
    # sum exponentiates every (gamma, b) entry
    if one_row_chunks:
        monkeypatch.setattr(archimedean, "_CHUNK_ENTRIES", 1)
    gamma = archimedean._Panels.over(0.15, 0.6, 5)
    b = archimedean._Panels.over(-16.0, 16.0, n_panels)
    g, wg = gamma.nodes, gamma.weights
    for gp in (g**3, g * g):
        got = archimedean._factor_1d(coef, gp, wg, b)
        want = wg @ _direct_phases(coef, gp, b.nodes)
        assert got.shape == (12 * n_panels,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(wg))


def test_legendre_rule():
    # the spelled-out rule is numpy's, and exact to degree 23
    x, w = archimedean._GL_X, archimedean._GL_W
    ref_x, ref_w = np.polynomial.legendre.leggauss(archimedean._GL_NODES)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=4e-16)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=4e-16)
    for k in range(24):
        assert w @ x**k == pytest.approx(2 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-15)


@pytest.mark.parametrize("Q, n_panels", [(16.0, 28), (1024.0, 1520), (1000.0 / 3.0, 7)])
def test_panels_meet_to_local_rounding(Q, n_panels):
    # a b grid is symmetric and its panels meet within a few ulps of the mids
    # themselves, not of Q: near b = 0, where the factors are largest, a gap
    # of ulp(Q) per panel is a quadrature error that no refinement removes
    b = archimedean._Panels.over(-Q, Q, n_panels)
    assert np.array_equal(b.mid, -b.mid[::-1])
    gaps = np.diff(b.mid) - 2 * b.half
    assert np.all(np.abs(gaps) <= 4 * np.spacing(np.maximum(np.abs(b.mid[1:]), np.abs(b.mid[:-1]))))
    assert b.weights.sum() == pytest.approx(2 * Q, rel=1e-15)


def test_unit_integral_error_stays_at_rounding_at_large_height(ladder6):
    # pass differences of rounding size, far below _W_RTOL, at the largest
    # height the README runs; panels counted from -Q read 3.6e-15 here
    W, diag = unit_singular_integral(ladder6, THETA6, 1024.0, budget=10**8)
    assert diag["passes"] == 3
    assert diag["error_estimate"] <= 1e-15 * W


@pytest.mark.parametrize("A3, A2", [(2, -1), (-1, 3)])
def test_mixed_table_product_matches_direct_sum(A3, A2):
    # one mixed variable's (b2 x b3) factor, built in chunks of whole b2
    # panels (the last one short) from the panel-factored phase tables
    gamma = archimedean._Panels.over(0.15, 0.6, 4)
    b2, b3 = archimedean._Panels.over(-8.0, 8.0, 7), archimedean._Panels.over(-8.0, 8.0, 3)
    g, wg = gamma.nodes, gamma.weights
    want = _direct_phases(A2, g * g, b2.nodes).T @ (wg[:, None] * _direct_phases(A3, g**3, b3.nodes))
    E3g = archimedean._phase_table(A3, g**3, b3, wg)
    got = np.vstack([archimedean._phase_table(A2, g * g, b2, panels=slice(p, p + 3)).T @ E3g for p in (0, 3, 6)])
    assert got.shape == want.shape == (b2.size, b3.size)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(wg))


# the most gamma nodes of one mixed group on the last pass, past nodes_b3
MIXED_GAMMA_PINS = {"mixed-only": 672, "all-three": 240}


@pytest.mark.parametrize("layout", ["mixed-only", "all-three"])
def test_unit_integral_mixed_chunks_of_whole_panels(monkeypatch, layout):
    # on the last pass, chunks of seven b2 panels each, the last one short,
    # give the pinned W; the chunk cap binds on the widest mixed gamma grid
    sysd, theta, Q, W_pin, passes, nodes_b2, nodes_b3, _ = BLOCK_LAYOUT_PINS[layout]
    gamma = MIXED_GAMMA_PINS[layout]
    monkeypatch.setattr(archimedean, "_CHUNK_ENTRIES", 7 * 12 * gamma)
    assert (nodes_b2 // 12) % 7 != 0 and gamma > nodes_b3
    shapes, phase_table = [], archimedean._phase_table

    def b2_shapes(*args, **kwargs):
        out = phase_table(*args, **kwargs)
        if "panels" in kwargs:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(archimedean, "_phase_table", b2_shapes)
    W, diag = unit_singular_integral(sysd, theta, Q)
    assert W == pytest.approx(W_pin, rel=1e-13)
    assert (diag["passes"], diag["nodes_b2"], diag["nodes_b3"]) == (passes, nodes_b2, nodes_b3)
    assert max(rows for rows, _ in shapes) == gamma
    assert max(nodes for rows, nodes in shapes if rows == gamma) == 7 * 12
    assert all(rows * nodes <= 7 * 12 * gamma for rows, nodes in shapes)


def test_unit_integral_memory_is_bounded(ladder6):
    # 1-D factors for the pure variables, built from panel phase factors:
    # about 1.4 MB here; exponentiating every (gamma x b) entry in chunks
    # peaked at about 18 MB and a full (b2 x b3) product per variable at 80 MB
    tracemalloc.start()
    try:
        unit_singular_integral(ladder6, THETA6, 64.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# a mixed pair, its negation and a repeat at one anchor, and a pure-cubic
# pair and its negation at another: two groups, counted [2, 1] and [1, 1]
GROUPED = (DiagonalSystem(a=(2, -2, 2), b=(-1, 1, -1), c=(1, -1)), (0.3, 0.3, 0.3, 0.35, 0.35))


def _w_per_variable(sysd, theta, Q, diag):
    """W on the grids of the last pass in `diag`, one factor per variable, in variable order.

    Every factor is built from its own coefficient pair, none conjugated or
    shared, as a (b2 x b3) table multiplied into V one variable at a time.
    """
    b2 = archimedean._Panels.over(-Q, Q, diag["nodes_b2"] // 12)
    b3 = archimedean._Panels.over(-Q, Q, diag["nodes_b3"] // 12)
    m = 2 ** (diag["passes"] - 1)
    V = np.ones((b2.size, b3.size), dtype=complex)
    for A3, A2, th in zip(sysd.cubic_coeffs(), sysd.quad_coeffs(), theta):
        lo, hi = th / 2, 2 * th
        rate = archimedean._phase_rate(A3 * Q, A2 * Q, lo, hi) + archimedean._phase_rate(-A3 * Q, -A2 * Q, lo, hi)
        gamma = archimedean._Panels.over(lo, hi, archimedean._panels_for(rate, hi - lo, archimedean._W_START_TURNS) * m)
        g, wg = gamma.nodes, gamma.weights
        E2 = archimedean._phase_table(A2, g * g, b2)
        E3 = archimedean._phase_table(A3, g**3, b3, wg)
        V *= E2.T @ E3
    return (b2.weights @ V @ b3.weights).real


def test_unit_integral_groups_match_per_variable_factors():
    sysd, theta = GROUPED
    W, diag = unit_singular_integral(sysd, theta, 8.0)
    assert W == pytest.approx(_w_per_variable(sysd, theta, 8.0, diag), rel=1e-15, abs=0)
    # one factor per group: (2, -1, 0.3) mixed and (1, 0, 0.35) pure cubic
    assert (diag["factors_1d"], diag["factors_2d"]) == (1, 1)
    assert diag["passes"] >= 2


def test_unit_integral_mixed_memory_is_bounded(sample5):
    # each mixed group's chunk product is formed, multiplied in and dropped
    # before the next; holding every group's chunk product at once, and the
    # last one across chunks, peaked at about 72 MB here
    theta = find_real_anchor(sample5, rng=np.random.default_rng(1)).theta
    tracemalloc.start()
    try:
        unit_singular_integral(sample5, theta, 32.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_unit_integral_mixed_b2_tables_keep_the_cap(sample5, monkeypatch):
    # at this anchor's last pass of W(64) the first mixed group has 1056
    # gamma nodes against 960 b3 nodes: chunks sized by b3 alone built
    # (1056 x 1560) b2 phase tables, past the cap
    anchor = find_real_anchor(sample5, rng=np.random.default_rng(1))
    shapes, phase_table = [], archimedean._phase_table

    def b2_shapes(*args, **kwargs):
        out = phase_table(*args, **kwargs)
        if "panels" in kwargs:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(archimedean, "_phase_table", b2_shapes)
    W, diag = unit_singular_integral(anchor.system, anchor.theta, 64.0)
    assert max(gamma for gamma, _ in shapes) == 1056 > diag["nodes_b3"] == 960
    assert all(gamma * nodes <= archimedean._CHUNK_ENTRIES for gamma, nodes in shapes)
    # W with the chunks sized by b3 alone
    assert W == pytest.approx(0.13405975085481084, rel=0, abs=diag["error_estimate"])


def test_unit_integral_refuses_past_budget(ladder6):
    # W(16) converges on its third pass: 3024, 12096 and 48384 grid points
    assert unit_singular_integral(ladder6, THETA6, 16.0, budget=48384)[1]["passes"] == 3
    for budget, estimate in ((3023, 3024), (48383, 48384)):
        with pytest.raises(BudgetError) as exc:
            unit_singular_integral(ladder6, THETA6, 16.0, budget=budget)
        assert (exc.value.what, exc.value.estimate, exc.value.cap) == ("quadrature grid points", estimate, budget)
        with pytest.raises(BudgetError) as exc:
            singular_integral(ladder6, 16.0, 1.0, THETA6, budget=budget)
        assert exc.value.cap == budget


def _no_pass(*args, **kwargs):
    raise AssertionError("a quadrature pass was started")


@pytest.mark.parametrize("P", [-10.0, 0.0, math.nan, math.inf])
def test_singular_integral_refuses_p_outside_the_model(ladder6, monkeypatch, P):
    # J = P^(s-5) W is a density only at a finite positive P: refused before any pass
    monkeypatch.setattr(archimedean, "unit_singular_integral", _no_pass)
    with pytest.raises(ValueError, match="P must be finite and positive"):
        singular_integral(ladder6, 8.0, P, THETA6)


@pytest.mark.parametrize("last", [-0.35, 0.0, math.nan, math.inf])
def test_theta_outside_the_model_is_refused(ladder6, monkeypatch, last):
    # the box [theta_i/2, 2 theta_i] needs every theta_i finite and positive
    theta = (*THETA6[:-1], last)
    monkeypatch.setattr(archimedean, "_panels_for", _no_pass)
    with pytest.raises(ValueError, match="theta must be s finite positive box anchors"):
        unit_singular_integral(ladder6, theta, 8.0)
    with pytest.raises(ValueError, match="theta must be s finite positive box anchors"):
        volume_constant(ladder6, theta, samples=100)


@pytest.mark.parametrize("Q", [-8.0, 0.0, math.nan, math.inf])
def test_unit_integral_refuses_q_outside_the_model(ladder6, monkeypatch, Q):
    # NaN once passed `Q <= 0` and failed in `_panels_for`, naming no input
    monkeypatch.setattr(archimedean, "_panels_for", _no_pass)
    with pytest.raises(ValueError, match="Q must be finite and positive"):
        unit_singular_integral(ladder6, THETA6, Q)


def test_unit_integral_grows_with_height(ladder6):
    W4, _ = unit_singular_integral(ladder6, THETA6, 4.0)
    W8, _ = unit_singular_integral(ladder6, THETA6, 8.0)
    W16, _ = unit_singular_integral(ladder6, THETA6, 16.0)
    assert W4 < W8 < W16
    # dyadic tail shrinks by roughly the height ratio
    assert (W16 - W8) < (W8 - W4) * 1.2


def test_extrapolate_geometric_ladder():
    limit, ratio = 0.125, 0.55
    values = [limit - 0.04 * ratio**k for k in range(5)]
    est, err = extrapolate_ladder(values)
    assert est == pytest.approx(limit, abs=1e-6)
    assert err < 0.05 * limit


def test_extrapolate_needs_three():
    with pytest.raises(ValueError):
        extrapolate_ladder([1.0, 2.0])


def test_singular_integral_scaling(ladder6):
    P = 50.0
    I, diag = singular_integral(ladder6, 16.0, P, theta=THETA6, heights=(4.0, 8.0, 16.0))
    assert I == pytest.approx(diag["W"] * P ** (ladder6.s - 5), rel=1e-12)
    assert set(diag) >= {"W", "ladder", "tails", "tail_ratios", "imag_residue"}
    assert all(r > 0 for r in diag["tail_ratios"])
    assert set(diag["quadrature_work"]) == set(diag["ladder"]) == {4.0, 8.0, 16.0}
    for work in diag["quadrature_work"].values():
        assert set(work) == {"passes", "nodes_b2", "nodes_b3", "nodes_gamma", "factors_1d", "factors_2d"}
        assert work["passes"] >= 2
        # ladder6 has no shared variable: three 1-D factors up to sign, no 2-D table
        assert (work["factors_1d"], work["factors_2d"]) == (3, 0)
        assert work["nodes_gamma"] > 0


def _ladder4_volume():
    # y1^3 = y2^3 and z1^2 = z2^2 on the box [theta/2, 2 theta]^4:
    # integrating the two delta factors gives (1/(2 theta)) * (ln 4)/2
    return math.log(4.0) / (4 * 0.3)


def _ladder6_volume():
    """Box density of ladder6 at THETA6 from its separable form, independent of the package.

    y1^3 = y2^3 gives the factor integral of 1/(3 y^2) over [0.15, 0.6], which is
    5/3.  z1^2 = z2^2 + z4^2 - z3^2 gives, for each (z3, z4), the integral of
    1/(2 z1) over the z2 for which z1 lands in its box: the difference of
    (1/2) ln(z2 + sqrt(z2^2 + z4^2 - z3^2)) between those z2 limits.
    """

    def inner(z4, z3):
        k = z4 * z4 - z3 * z3
        lo2, hi2 = max(0.125**2, 0.125**2 - k), min(0.5**2, 0.5**2 - k)
        if lo2 >= hi2:
            return 0.0
        prim = lambda z2: 0.5 * math.log(z2 + math.sqrt(z2 * z2 + k))  # noqa: E731
        return prim(math.sqrt(hi2)) - prim(math.sqrt(lo2))

    square, _ = dblquad(inner, 0.175, 0.7, 0.175, 0.7)
    return 5.0 / 3.0 * square


@pytest.mark.parametrize(
    "system, theta, exact",
    [("ladder4", THETA4, _ladder4_volume), ("ladder6", THETA6, _ladder6_volume)],
    ids=["ladder4", "ladder6"],
)
def test_volume_matches_separable_closed_form(request, rng, system, theta, exact):
    expected = exact()
    c, sigma = volume_constant(request.getfixturevalue(system), theta, rng=rng, samples=250_000)
    assert sigma < 0.01 * expected
    assert abs(c - expected) <= 4 * sigma


def test_volume_bar_is_honest(ladder4):
    # the bar is the sample standard error: over independent runs the
    # standardized errors have root mean square near 1
    exact = _ladder4_volume()
    z = [
        (c - exact) / sigma
        for c, sigma in (
            volume_constant(ladder4, THETA4, rng=np.random.default_rng(seed), samples=20_000) for seed in range(20)
        )
    ]
    assert 0.5 <= math.sqrt(np.mean(np.square(z))) <= 1.6


def test_volume_all_shared_matches_ladder():
    # m = n = 0: two shared variables are eliminated through a degree-6 eliminant
    anchor = find_real_anchor(DiagonalSystem(a=(1, 2, -1, 1, -2), b=(1, -1, 1, -1, 1)), rng=np.random.default_rng(0))
    c, sigma = volume_constant(anchor.system, anchor.theta, rng=np.random.default_rng(0), samples=50_000)
    ladder = [unit_singular_integral(anchor.system, anchor.theta, Q)[0] for Q in (4.0, 8.0, 16.0, 32.0)]
    limit, err = extrapolate_ladder(ladder)
    assert abs(c - limit) <= 3 * math.hypot(sigma, err)


def test_volume_does_not_depend_on_chunk_size(ladder4, monkeypatch):
    # the generator fills its draws in order, so only the per-chunk float sums
    # of the weights can move with the chunk size
    default = volume_constant(ladder4, THETA4, rng=np.random.default_rng(5), samples=30_001)
    monkeypatch.setattr(archimedean, "_MC_CHUNK_ROWS", 1000)
    small = volume_constant(ladder4, THETA4, rng=np.random.default_rng(5), samples=30_001)
    assert small == pytest.approx(default, rel=1e-12)


def test_volume_memory_is_bounded(ladder6):
    # draws in `_MC_CHUNK_ROWS` chunks: 2^14 rows peak at 1.7 MiB here, 2^17
    # rows at 13.1 MiB and 10^6 rows at about 123 MB
    tracemalloc.start()
    try:
        volume_constant(ladder6, THETA6, samples=400_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_volume_rejects_degenerate_anchor(tiny2, rng):
    # on x1 = x2 both gradient rows are multiples of (1, -1): rank 1
    with pytest.raises(ValueError):
        volume_constant(tiny2, (0.3, 0.3), rng=rng, samples=4_000)


def test_volume_validates_theta(ladder4, rng):
    with pytest.raises(ValueError):
        volume_constant(ladder4, (0.3, 0.3), rng=rng)
    with pytest.raises(ValueError):
        volume_constant(ladder4, (0.3, 0.3, -0.1, 0.3), rng=rng)
    for samples in (0, 1):
        with pytest.raises(ValueError):
            volume_constant(ladder4, THETA4, rng=rng, samples=samples)


def test_volume_does_not_import_scipy_stats():
    # scipy is a test-only dependency: the package, the CLI and the volume
    # constant import none of it (scipy.stats alone costs about a second and
    # 68 MB to import)
    code = (
        "import sys, diagpair, diagpair.cli\n"
        "from diagpair.archimedean import volume_constant\n"
        "from diagpair.systems import BUILTIN_SYSTEMS\n"
        f"volume_constant(BUILTIN_SYSTEMS['ladder6'], {THETA6!r}, samples=20_000)\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_star_approx_off_arc_is_zero(sample5):
    fam = ArcFamily(Q=5.0, P=60.0, t=1)
    approx = star_approx(sample5, 0, 0.381966, 0.618034, fam, (0.3,) * 5)
    assert approx.witness is None
    assert approx.value == 0j


def test_star_approx_on_arc(sample5):
    fam = ArcFamily(Q=5.0, P=60.0, t=1)
    approx = star_approx(sample5, 2, 1 / 3, 2 / 3, fam, (0.3,) * 5)
    assert approx.witness == (3, 1, 2)
    box_len = 1.5 * 0.3 * 60.0
    assert 0 < abs(approx.value) <= box_len + 1e-9
    # q^-1 S(3; 1, 2) v(alpha - r/q), with S summed term by term
    A3, A2 = sample5.cubic_coeffs()[2], sample5.quad_coeffs()[2]
    S = sum(cmath.exp(2j * math.pi * (2 * A3 * x**3 + A2 * x * x) / 3) for x in range(3))
    v, _ = oscillatory_v(A3, A2, 1 / 3 - 1 / 3, 2 / 3 - 2 / 3, 60.0, 0.3)
    assert approx.value == pytest.approx(S * v / 3, rel=1e-12)


def test_star_approx_refuses_past_default_budget(sample5, monkeypatch):
    q = DEFAULT_LEDGER_BUDGET + 1
    monkeypatch.setattr(archimedean, "membership", lambda *args: (q, 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            star_approx(sample5, 0, 0.5, 0.5, ArcFamily(Q=5.0, P=60.0, t=1), (0.3,) * 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.what, info.value.cap) == ("complete sum modulus", DEFAULT_LEDGER_BUDGET)
    # refused before its q-term arrays (400 MB each) are allocated
    assert peak < 1e6
