import cmath
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from diagpair import (
    DEFAULT_LEDGER_BUDGET,
    DiagonalSystem,
    BudgetError,
    chi_p_partial,
    complete_sum,
    count_congruences,
    padic_witness,
    singular_series,
    t_factor,
)
from diagpair import local
from diagpair.oracles import brute_count_congruences, direct_series_term
from diagpair.systems import BUILTIN_SYSTEMS

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def direct_complete_sum(q, r2, r3, A3, A2):
    total = 0j
    for x in range(q):
        total += cmath.exp(2j * math.pi * (r3 * A3 * x**3 + r2 * A2 * x * x) / q)
    return total


# zeros allowed: A2 = 0 is a pure-cubic variable, A3 = 0 a pure-quadratic one
@given(st.integers(1, 30), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_complete_sum_matches_direct(q, A3, A2):
    got = complete_sum(q, q // 3, q // 2, A3, A2).value
    want = direct_complete_sum(q, q // 3, q // 2, A3, A2)
    assert abs(got - want) <= 1e-9 * q


# and one prime past 10^4: only the budget caps the modulus
@pytest.mark.parametrize("p", [*ODD_PRIMES, 10_007])
def test_gauss_magnitude(p):
    # quadratic complete sum with p coprime to everything has magnitude sqrt(p)
    val = complete_sum(p, 1, 0, 0, 1)
    assert val.magnitude == pytest.approx(math.sqrt(p), rel=1e-12)


def test_complete_sum_refuses_past_default_budget():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            complete_sum(DEFAULT_LEDGER_BUDGET + 1, 1, 0, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.what, info.value.cap) == ("complete sum modulus", DEFAULT_LEDGER_BUDGET)
    # refused before its q-term arrays (400 MB each) are allocated
    assert peak < 1e6


def test_complete_sum_residue_zero_is_count():
    assert complete_sum(12, 5, 0, 1, 0).value == pytest.approx(12 + 0j)
    assert complete_sum(9, 0, 2, 0, 1).value == pytest.approx(9 + 0j)


def test_t_factor_matches_direct(sample5):
    for q, r2, r3 in [(2, 1, 1), (3, 1, 2), (4, 3, 1), (5, 2, 3), (9, 4, 7)]:
        cubic = sample5.cubic_coeffs()
        quad = sample5.quad_coeffs()
        # q^-s sum over all residue tuples of e((r3 Theta + r2 Phi)/q),
        # factored per variable
        direct = 1 + 0j
        for A3, A2 in zip(cubic, quad):
            comp = sum(
                cmath.exp(2j * math.pi * ((r3 * A3 * x**3 + r2 * A2 * x * x) % q) / q)
                for x in range(q)
            )
            direct *= comp / q
        got = t_factor(sample5, q, r2, r3)
        assert abs(got - direct) <= 1e-10


@given(q1=st.integers(1, 10), q2=st.integers(1, 10))
@settings(max_examples=25)
def test_congruence_crt_multiplicativity(sample5, q1, q2):
    if math.gcd(q1, q2) != 1:
        return
    M1 = count_congruences(sample5, q1).M
    M2 = count_congruences(sample5, q2).M
    assert count_congruences(sample5, q1 * q2).M == M1 * M2


@given(q=st.integers(1, 12))
def test_congruences_match_brute(tiny2, q):
    assert count_congruences(tiny2, q).M == brute_count_congruences(tiny2, q)


def test_congruences_match_brute_s5(sample5):
    for q in (4, 9):
        assert count_congruences(sample5, q).M == brute_count_congruences(sample5, q)


def test_congruence_budget():
    big = DiagonalSystem(a=(1,) * 6, b=(1,) * 6)
    with pytest.raises(BudgetError):
        count_congruences(big, 10_000, budget=10**6)


@pytest.mark.parametrize("p,t", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_chi_identity(p, t, sample5):
    part = chi_p_partial(sample5, p, t)
    assert part.relative_gap <= 1e-9
    assert part.M == count_congruences(sample5, p**t).M


def test_chi_refuses_before_any_table(sample5, monkeypatch):
    def no_tables(*args):
        raise AssertionError("a series table was built before the budget check")

    monkeypatch.setattr(local, "_series_term", no_tables)
    with pytest.raises(BudgetError) as info:
        chi_p_partial(sample5, 3, 6, budget=1000)
    assert (info.value.what, info.value.cap) == ("congruence ledger", 1000)


def test_chi_depth_zero(sample5):
    part = chi_p_partial(sample5, 3, 0)
    assert part.series_side == 1.0
    assert part.count_side == 1.0


def test_singular_series_partials(balanced11):
    res = singular_series(balanced11, 40)
    assert res.value == pytest.approx(res.partials[-1])
    assert abs(res.imag) <= 1e-9
    assert set(res.A) == set(range(1, 41))
    assert res.A[1] == 1.0 and res.B[1] == 1.0
    # A is the primitive absolute mass, so it dominates B
    assert all(res.A[q] >= abs(res.B[q]) - 1e-12 for q in res.A)


def test_singular_series_height_cap(balanced11):
    # 977 is prime, so the tables through 976 hold 977^2 fewer cells and fit
    with pytest.raises(BudgetError) as info:
        singular_series(balanced11, 977)
    assert info.value.estimate - 977**2 <= DEFAULT_LEDGER_BUDGET < info.value.estimate


def test_singular_series_budget(sample5):
    # tables at q = 1 and the 19 prime powers q <= 40 hold 1 + sum q^2 = 7523 cells
    res = singular_series(sample5, 40, budget=7523)
    assert (res.Q, res.tables, res.cells) == (40, 20, 7523)
    with pytest.raises(BudgetError) as info:
        singular_series(sample5, 40, budget=7522)
    assert info.value.estimate == 7523
    assert info.value.what == "singular series table cells"


# coefficients divisible by 2 and 3: at q = 2, 3, 4, 8, 9, 16 components
# fall to both-zero residues or to pure 1-D tables
DIV23 = DiagonalSystem(a=(2, 1), b=(3, 1), c=(4,), d=(6,))


@pytest.mark.parametrize(
    "sysd,Q,tables,cells",
    [
        pytest.param(BUILTIN_SYSTEMS["balanced11"], 12, 9, 370, id="balanced11"),
        pytest.param(BUILTIN_SYSTEMS["sample5"], 24, 14, 1974, id="sample5"),
        pytest.param(DIV23, 18, 12, 1084, id="div23"),
    ],
)
def test_singular_series_matches_direct(sysd, Q, tables, cells):
    res = singular_series(sysd, Q)
    # B(q) can cancel to zero (every sum mod 2 here does), hence the 1e-14 floor
    running = 0.0
    for q in range(1, Q + 1):
        A, B = direct_series_term(sysd, q)
        assert res.A[q] == pytest.approx(A, rel=1e-12, abs=1e-14)
        assert res.B[q] == pytest.approx(B.real, rel=1e-12, abs=1e-14)
        running += B.real
        assert res.partials[q - 1] == pytest.approx(running, rel=1e-12, abs=1e-14)
    # tables at q = 1 and at each prime power, 1 + sum of their q^2 cells
    assert (res.tables, res.cells) == (tables, cells)


def test_padic_witness_found(balanced11, rng):
    wit = padic_witness(balanced11, 7, rng=rng)
    assert wit.found
    assert wit.solution is not None
    theta, phi = balanced11.eval_forms(wit.solution)
    assert theta % 7 ** wit.k == 0 and phi % 7 ** wit.k == 0
    assert wit.minor_valuation is not None and wit.minor_valuation < wit.k
    assert wit.inequality_ok


def test_padic_witness_absent(rng):
    # x^3 + y^3 = x^2 + y^2 = 0 mod 7 forces x = y = 0 (since -1 is not
    # a square mod 7), so every candidate has vanishing Jacobian minors
    blocked = DiagonalSystem(a=(1, 1), b=(1, 1))
    wit = padic_witness(blocked, 7, rng=rng)
    assert not wit.found
    assert wit.solution is None
