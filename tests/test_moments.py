import pytest
from hypothesis import given, settings, strategies as st

from diagpair import (
    BoxSumSpec,
    BudgetError,
    classify_I2,
    count_J1,
    fit_exponent,
    mixed_moment,
    moment_I,
    moment_J,
    moment_T,
    moment_T_shifted,
)
from diagpair import oracles

# frozen from the brute-force enumerations in oracles.py
FROZEN = {
    ("T", 2, 6): 66,
    ("T", 3, 4): 256,
    ("J", 3, 6): 996,
    ("I", 2, 4, 3): 1832,
    ("J1", 6, 4): 20448,
    ("Tsh", 2, 5, 3): 45,
}


def test_frozen_values():
    assert moment_T(2, 6).value == FROZEN[("T", 2, 6)]
    assert moment_T(3, 4).value == FROZEN[("T", 3, 4)]
    assert moment_J(3, 6).value == FROZEN[("J", 3, 6)]
    assert moment_I(2, 4, 3).value == FROZEN[("I", 2, 4, 3)]
    assert count_J1(6, 4).value == FROZEN[("J1", 6, 4)]
    assert moment_T_shifted(2, 5, 3).value == FROZEN[("Tsh", 2, 5, 3)]


@given(st.integers(1, 2), st.integers(1, 7))
def test_T_matches_brute(s, X):
    assert moment_T(s, X).value == oracles.brute_moment_T(s, X)


@pytest.mark.parametrize("s, X", [(3, 5), (4, 5), (5, 4), (6, 3)])
def test_T_matches_brute_past_squares(s, X):
    # power(s) squares a ledger from s = 2 on, squares a square at s = 4 and
    # 6, and takes an odd split at s = 3 and 5
    assert moment_T(s, X).value == oracles.brute_moment_T(s, X)


@given(st.integers(1, 2), st.integers(1, 7))
def test_J_matches_brute(s, X):
    assert moment_J(s, X).value == oracles.brute_moment_J(s, X)


@given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 3))
def test_I_matches_brute(s, Y, H):
    assert moment_I(s, Y, H).value == oracles.brute_moment_I(s, Y, H)


@given(st.integers(1, 6), st.integers(1, 4))
def test_J1_matches_brute(Y, H):
    assert count_J1(Y, H).value == oracles.brute_count_J1(Y, H)


@given(st.integers(1, 2), st.integers(1, 5), st.integers(0, 6))
def test_T_shifted_matches_brute(s, X, h_max):
    assert moment_T_shifted(s, X, h_max).value == oracles.brute_moment_T_shifted(s, X, h_max)


@given(st.integers(1, 3), st.integers(1, 8))
def test_shifted_endpoints(s, X):
    # h_max >= s X makes the linear slot free; h_max = 0 binds all three
    # (moment_J is moment_T_shifted at h_max = 0, so compare with brute force)
    assert moment_T_shifted(s, X, s * X).value == moment_T(s, X).value
    assert moment_T_shifted(s, X, 10**9).value == moment_T(s, X).value
    assert moment_T_shifted(s, X, 0).value == oracles.brute_moment_J(s, X)


@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 5))
def test_shifted_monotone_in_window(s, X, h_max):
    assert moment_T_shifted(s, X, h_max).value <= moment_T_shifted(s, X, h_max + 1).value


def test_diagonal_lower_bound():
    # the x = y diagonal alone contributes X^s
    for s, X in [(2, 8), (3, 5)]:
        assert moment_T(s, X).value >= X**s


def test_classify_I2_buckets():
    cls = classify_I2(4, 3)
    assert cls.identity_violations == 0
    assert cls.total == moment_I(2, 4, 3).value
    assert cls.t0 + cls.t1 + cls.t2 >= cls.total  # buckets may overlap


def test_mixed_moment_matches_brute():
    f1 = BoxSumSpec(theta=0.5, P=12, cubic=1, quad=1)
    g1 = BoxSumSpec(theta=0.4, P=12, cubic=-1)
    h1 = BoxSumSpec(theta=0.6, P=12, quad=2)
    fast = mixed_moment([f1, g1, h1], [2, 2, 2]).value
    brute = oracles.brute_mixed_moment([f1, g1, h1], [2, 2, 2])
    assert fast == brute


def test_mixed_moment_past_int64_keys():
    # cubic keys near 10^19 pack past 2^62, so the ledger folds Python ints
    f1 = BoxSumSpec(theta=0.3, P=8, cubic=10**17, quad=1)
    h1 = BoxSumSpec(theta=0.5, P=8, quad=3)
    fast = mixed_moment([f1, h1], [4, 2]).value
    assert fast == oracles.brute_mixed_moment([f1, h1], [4, 2])


def test_mixed_moment_smooth_factor():
    g_sm = BoxSumSpec(theta=0.5, P=30, cubic=1, smooth_R=3)
    fast = mixed_moment([g_sm], [4]).value
    assert fast == oracles.brute_mixed_moment([g_sm], [4])


def test_mixed_moment_zero_exponent_skips_factor():
    g1 = BoxSumSpec(theta=0.4, P=10, cubic=1)
    h1 = BoxSumSpec(theta=0.4, P=10, quad=1)
    assert mixed_moment([g1, h1], [2, 0]).value == mixed_moment([g1], [2]).value


def test_mixed_moment_empty_product():
    assert mixed_moment([], []).value == 1


def test_mixed_moment_rejects_odd_exponent():
    g1 = BoxSumSpec(theta=0.4, P=10, cubic=1)
    with pytest.raises(ValueError):
        mixed_moment([g1], [3])


def test_P_override_rescales_boxes():
    g1 = BoxSumSpec(theta=0.4, P=10, cubic=1)
    assert mixed_moment([g1], [2], P=25).value == mixed_moment(
        [BoxSumSpec(theta=0.4, P=25, cubic=1)], [2]
    ).value


@given(st.floats(1.0, 5.0), st.floats(0.1, 10.0))
@settings(max_examples=30)
def test_fit_exponent_recovers_power_law(k, C):
    xs = [10.0, 20.0, 40.0, 80.0]
    slope, resid = fit_exponent([(x, C * x**k) for x in xs])
    assert slope == pytest.approx(k, abs=1e-9)
    assert resid <= 1e-9


def test_fit_exponent_needs_two_points():
    with pytest.raises(ValueError):
        fit_exponent([(10.0, 5.0)])


def test_budget_refusal():
    with pytest.raises(BudgetError):
        moment_T(6, 100, budget=10_000)
    with pytest.raises(BudgetError):
        moment_I(4, 50, 50, budget=10_000)


def test_budget_error_carries_sizes():
    with pytest.raises(BudgetError) as exc:
        moment_T(6, 100, budget=10_000)
    assert exc.value.estimate > exc.value.cap == 10_000
