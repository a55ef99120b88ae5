import math
import tracemalloc
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from diagpair import ledger, oracles
from diagpair.budget import BudgetError
from diagpair.expsums import BoxSumSpec
from diagpair.ledger import Ledger, SquareSum
from diagpair.moments import (
    I2Classification,
    classify_I2,
    count_J1,
    fit_exponent,
    mixed_moment,
    moment_I,
    moment_J,
    moment_T,
    moment_T_shifted,
)

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
    # 6, and takes an odd split at s = 3 and 5; bands of 1 and 7 pairs cut
    # each of those convolutions into many bands
    want = oracles.brute_moment_T(s, X)
    for chunk in (1, 7, ledger._CHUNK_PAIRS):
        with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk):
            assert moment_T(s, X).value == want, chunk


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


@pytest.mark.parametrize(
    "moment, args",
    [
        (moment_T, (3, 12)),
        (moment_T, (4, 6)),
        (moment_J, (3, 12)),
        (moment_T_shifted, (3, 10, 4)),
        (moment_I, (3, 3, 3)),
        (moment_I, (2, 6, 5)),
        (count_J1, (5, 5)),
    ],
)
def test_ledgers_match_brute_at_larger_sizes(moment, args):
    brute = {
        moment_T: oracles.brute_moment_T,
        moment_J: oracles.brute_moment_J,
        moment_T_shifted: oracles.brute_moment_T_shifted,
        moment_I: oracles.brute_moment_I,
        count_J1: oracles.brute_count_J1,
    }[moment]
    assert moment(*args).value == brute(*args)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
def test_I_and_J1_ledgers_are_symmetric_under_negation(s, Y, H):
    # h -> -h maps each generator (h, h y, h y^2) of I, and (h, h y) of J1,
    # to its negative, so n(-k) = n(k) over the ledgers they fold: their
    # negated matches are the sums of squares they take
    folds = []

    def fold(parts, budget):
        folds.append(Ledger.fold(parts, budget))
        return SquareSum(0, 0, 0)

    with mock.patch.object(Ledger, "fold_sum_of_squares", side_effect=fold):
        moment_I(s, Y, H)
        count_J1(Y, H)
    assert len(folds) == 2
    for n in folds:
        assert n.keys.tolist() == (-n.keys[::-1]).tolist()
        assert n.counts.tolist() == n.counts[::-1].tolist()


def _classify_I2_by_dict(Y, H):
    """Reference: group ordered generator pairs by key in a dict, then loop."""
    gens = [(h, h * y, h * y * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)]
    pairs: dict = {}
    for gi in gens:
        for gj in gens:
            key = (gi[0] + gj[0], gi[1] + gj[1], gi[2] + gj[2])
            pairs.setdefault(key, []).append(((gi[0], gi[1] // gi[0]), (gj[0], gj[1] // gj[0])))
    t0 = t1 = t2 = bad = total = 0
    for key, front in pairs.items():
        for (h1, y1), (h2, y2) in front:
            for (h3, y3), (h4, y4) in pairs.get((-key[0], -key[1], -key[2]), []):
                total += 1
                bad += h1 * h2 * (y1 - y2) ** 2 != h3 * h4 * (y3 - y4) ** 2
                t0 += y1 == y2 == y3 == y4
                back_quad = h3 * y3 * y3 + h4 * y4 * y4
                t1 += back_quad == 0
                t2 += y3 != y4 and back_quad != 0
    return I2Classification(t0, t1, t2, bad, total)


def test_classify_I2_buckets():
    cls = classify_I2(4, 3)
    assert cls.identity_violations == 0
    assert cls.total == moment_I(2, 4, 3).value
    assert cls.t0 + cls.t1 + cls.t2 >= cls.total  # buckets may overlap


@pytest.mark.parametrize("Y", [1, 2, 3, 4])
@pytest.mark.parametrize("H", [1, 2, 3, 4])
def test_classify_I2_matches_dict_loops(Y, H):
    assert classify_I2(Y, H) == _classify_I2_by_dict(Y, H)


def test_classify_I2_refuses_solutions_before_expanding_them():
    # (Y, H) = (8, 8): 16384 generator pairs pass at the boundary, the 65744
    # solutions do not, and no solution array is built
    total = moment_I(2, 8, 8).value
    assert (2 * 8 * 8) ** 2 == 16384 < total
    for budget in (16384, total - 1):
        with mock.patch.object(np, "repeat", side_effect=AssertionError("expanded")):
            with pytest.raises(BudgetError) as exc:
                classify_I2(8, 8, budget=budget)
        assert (exc.value.what, exc.value.estimate, exc.value.cap) == ("I_2 solutions", total, budget)
    assert classify_I2(8, 8, budget=total).total == total
    with pytest.raises(BudgetError) as exc:
        classify_I2(8, 8, budget=16383)
    assert exc.value.what == "pair enumeration"


@pytest.mark.parametrize("Y, H", [(0, 1), (1, 0)])
def test_classify_I2_rejects_what_moment_I_rejects(Y, H):
    for count in (lambda: moment_I(2, Y, H), lambda: classify_I2(Y, H)):
        with pytest.raises(ValueError, match="s, Y, H must be >= 1"):
            count()


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


def test_mixed_moment_empty_box_keeps_the_params_schema():
    # theta P / 2 = 0.15 and 2 theta P = 0.6 leave no integer in the box
    res = mixed_moment([BoxSumSpec(0.3, 1.0, 1, 1)], [2])
    assert res.value == 0
    assert res.params == {"exponents": [2], "top_pairs": 0, "top_bands": 0}


def test_mixed_moment_empty_product():
    assert mixed_moment([], []).value == 1


def test_mixed_moment_rejects_odd_exponent():
    g1 = BoxSumSpec(theta=0.4, P=10, cubic=1)
    with pytest.raises(ValueError):
        mixed_moment([g1], [3])


def test_mixed_moment_boxes_follow_spec_P():
    # each spec carries its own P: at P = 25 the boxes are (5, 20] and
    # (12.5, 50], and the moment is the oracle's count on those boxes
    g25 = BoxSumSpec(theta=0.4, P=25, cubic=1)
    h25 = BoxSumSpec(theta=1.0, P=25, quad=1)
    assert g25.range_bounds() == (6, 20) and h25.range_bounds() == (13, 50)
    got = mixed_moment([g25, h25], [2, 2]).value
    assert got == oracles.brute_mixed_moment([g25, h25], [2, 2])
    assert got != mixed_moment([BoxSumSpec(theta=0.4, P=10, cubic=1), BoxSumSpec(theta=1.0, P=10, quad=1)], [2, 2]).value


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


def test_default_budget_admits_T5():
    # the fold's own pair counts admit T_5 at X = 40 (T_6 at X = 24 is a CLI
    # test); with the linear slot wide open the shifted count is the same
    # number by another key layout
    assert moment_T(5, 40).value == moment_T_shifted(5, 40, 5 * 39).value == 11911828440


def test_top_counters_repeat_exactly():
    f = BoxSumSpec(theta=0.5, P=12, cubic=1, quad=1)
    g = BoxSumSpec(theta=0.4, P=12, cubic=-1)
    for count in (lambda: moment_T(4, 80), lambda: moment_J(3, 40), lambda: mixed_moment([f, g], [4, 2]),
                  lambda: moment_I(2, 8, 8), lambda: count_J1(20, 20)):
        first, again = count(), count()
        assert first.params == again.params and first.value == again.value
        assert first.params["top_pairs"] >= first.params["top_bands"] >= 1
    # I and J1 end in the square of their 2HY distinct generators, one
    # band of C(2HY + 1, 2) pairs
    for count, pairs in ((moment_I(2, 8, 8), 8_256), (count_J1(20, 20), 320_400), (count_J1(6, 4), 1_176)):
        assert (count.params["top_pairs"], count.params["top_bands"]) == (pairs, 1)
    # T_4 at X = 80 ends in the multiset step: each multiset of 4 of the 80
    # generators is one pair, cut into two bands of at most 2^20
    top = moment_T(4, 80).params
    assert (top["top_pairs"], top["top_bands"]) == (math.comb(83, 4), 2) == (1_837_620, 2)
    # one generator tuple forms no pair; a window past 0 builds its ledger
    assert {k: moment_T(1, 9).params[k] for k in ("top_pairs", "top_bands")} == {"top_pairs": 0, "top_bands": 0}
    assert "top_pairs" not in moment_T_shifted(3, 10, 2).params


def test_T5_peaks_below_its_top_ledger():
    # the top ledger of T_5 at X = 64 would hold 9,927,951 keys at 16 bytes
    # with their counts; its squares are summed band by band instead
    tracemalloc.start()
    try:
        value = moment_T(5, 64).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 132_219_515_464
    assert peak < 16 * 9_927_951


@pytest.mark.parametrize("s, X, value, mib", [(4, 80, 961_516_672, 16), (6, 40, 3_432_403_136_800, 75)])
def test_T_peaks_stay_bounded(s, X, value, mib):
    # T_4 at X = 80 holds one band of at most 2^20 words (8 MiB) and
    # slice-sized temporaries (13.1 MiB here); T_6 at X = 40 peaks while the
    # multiset step reduces its tuples, where _add_equal frees the run-start
    # index before it gathers the keys (68.3 MiB here, 84.7 when the index
    # outlives the gather)
    tracemalloc.start()
    try:
        got = moment_T(s, X).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == value
    assert peak < mib * 2**20


@pytest.mark.parametrize("moment", [moment_T, moment_T_shifted])
def test_first_square_is_refused_before_its_generators_are_built(moment):
    # 10^6 generator tuples would take about 100 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as exc:
            moment(2, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.what, exc.value.estimate) == ("ledger key pairs", 500_000_500_000)
    assert peak < 10**6


def test_mixed_moment_checks_generators_before_listing_them():
    # about 4.5e11 box members: refused before any is listed
    with pytest.raises(BudgetError) as exc:
        mixed_moment([BoxSumSpec(theta=0.3, P=1e12, cubic=1, quad=1)], [2])
    assert exc.value.what == "ledger generators"
    assert exc.value.estimate == 450_000_000_000


def test_budget_error_carries_sizes():
    with pytest.raises(BudgetError) as exc:
        moment_T(6, 100, budget=10_000)
    assert exc.value.estimate > exc.value.cap == 10_000
