import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diagpair import (
    AnchorError,
    BudgetError,
    DiagonalSystem,
    count_solutions,
    find_real_anchor,
    predict_and_compare,
    search_witness,
    verify_solution,
)
from diagpair import ledger, solver
from diagpair.acceptance import LADDER6_THETA
from diagpair.smooth import c_eta
from diagpair.budget import DEFAULT_LEDGER_BUDGET
from diagpair.oracles import brute_count_box_solutions, brute_count_solutions

# frozen brute-force counts
SAMPLE5_N3 = 45
SAMPLE5_N5 = 101


def test_anchor_balanced(balanced11, rng):
    anchor = find_real_anchor(balanced11, rng=rng)
    assert anchor.singular_values[1] > 1e-6  # Jacobian rank 2
    assert max(anchor.residuals) <= 1e-10
    assert all(0 < t < 0.5 for t in anchor.theta)
    # interior selection keeps every coordinate usable as a box anchor
    assert min(anchor.theta) > 0.05
    th = np.array(anchor.theta)
    cubic = np.array(anchor.system.cubic_coeffs())
    quad = np.array(anchor.system.quad_coeffs())
    assert abs(cubic @ th**3) <= 1e-9
    assert abs(quad @ th**2) <= 1e-9


def test_anchor_sign_normalization(sample5, rng):
    anchor = find_real_anchor(sample5, rng=rng)
    assert all(t > 0 for t in anchor.theta)
    assert set(anchor.flips) <= {-1, 1}
    # flips leave the quadratic block coefficients untouched
    assert anchor.system.b == sample5.b
    assert anchor.system.d == sample5.d
    assert tuple(abs(v) for v in anchor.system.a) == tuple(abs(v) for v in sample5.a)


def test_anchor_requires_real_solution(rng):
    # positive definite pair has no nonzero real zero
    blocked = DiagonalSystem(a=(1, 2), b=(1, 1))
    with pytest.raises(AnchorError):
        find_real_anchor(blocked, rng=rng)


def test_anchor_rank_relaxation(rng):
    # x1 = x2 solutions all have rank-1 Jacobian, so none is an anchor
    degen = DiagonalSystem(a=(1, -1), b=(1, -1))
    with pytest.raises(AnchorError):
        find_real_anchor(degen, rng=rng)


@given(B=st.integers(0, 25))
def test_shared_pair_count(tiny2, B):
    assert count_solutions(tiny2, B).count == 2 * B + 1


def test_frozen_counts(sample5):
    assert count_solutions(sample5, 3).count == SAMPLE5_N3
    assert count_solutions(sample5, 5).count == SAMPLE5_N5


@given(B=st.integers(0, 3))
def test_counts_match_brute(sample5, B):
    assert count_solutions(sample5, B).count == brute_count_solutions(sample5, B)


@given(B=st.integers(0, 6))
def test_counts_match_brute_s4(B):
    pair4 = DiagonalSystem(a=(1, -1), b=(1, -1), d=(1, -1))
    assert count_solutions(pair4, B).count == brute_count_solutions(pair4, B)


def test_count_in_small_chunks(sample5, monkeypatch):
    # one x-half key per chunk of the pair sum, and one row per chunk of
    # every fold (the solver binds its own name for the chunk size)
    monkeypatch.setattr(solver, "_CHUNK_PAIRS", 1)
    monkeypatch.setattr(ledger, "_CHUNK_PAIRS", 1)
    assert count_solutions(sample5, 5).count == SAMPLE5_N5


def test_count_past_int64():
    # x in {-1, 0, 1}^(2k) with Theta = sum x_i and Phi = #nonzero in the
    # first k minus #nonzero in the last k: N = sum_j C(k, j)^2 C(2j, j)
    k = 22
    wide = DiagonalSystem(a=(1,) * (2 * k), b=(1,) * k + (-1,) * k)
    want = sum(math.comb(k, j) ** 2 * math.comb(2 * j, j) for j in range(k + 1))
    assert want >= 2**63
    res = count_solutions(wide, 1, budget=3**k)
    assert res.count == want
    assert all(verify_solution(wide, w) for w in res.witnesses)


def test_count_monotone_in_B(sample5):
    counts = [count_solutions(sample5, B).count for B in range(6)]
    assert counts == sorted(counts)
    assert counts[0] == 1  # zero tuple only


def test_count_sign_flip_invariance(sample5):
    flipped = DiagonalSystem(
        a=tuple(-v for v in sample5.a),
        b=sample5.b,
        c=tuple(-v for v in sample5.c),
        d=sample5.d,
    )
    for B in (2, 4):
        assert count_solutions(sample5, B).count == count_solutions(flipped, B).count


def test_box_count_matches_brute(ladder6):
    theta = LADDER6_THETA
    P = 14.0
    got = count_solutions(ladder6, (P, theta))
    ranges = []
    for th in theta:
        lo = int(np.floor(th * P / 2)) + 1
        hi = int(np.floor(2 * th * P))
        ranges.append(range(lo, hi + 1))
    assert got.count == brute_count_box_solutions(ladder6, ranges)


@st.composite
def _blocked_systems(draw):
    """A system with l, m, n in 0..2 and one value list per variable.

    Value lists are contiguous boxes or gappy sets, the shape a smooth
    restriction leaves; one coefficient may be +-10^17 to force object keys.
    """
    l, m, n = draw(st.tuples(*[st.integers(0, 2)] * 3).filter(lambda lmn: sum(lmn) >= 1))
    coeff = st.integers(1, 3).flatmap(lambda v: st.sampled_from([v, -v]))
    cs = draw(st.lists(coeff, min_size=2 * l + m + n, max_size=2 * l + m + n))
    if draw(st.integers(0, 3)) == 0:
        cs[draw(st.integers(0, len(cs) - 1))] = draw(st.sampled_from([10**17, -(10**17)]))
    system = DiagonalSystem(a=cs[:l], b=cs[l : 2 * l], c=cs[2 * l : 2 * l + m], d=cs[2 * l + m :])
    ranges = []
    for _ in range(system.s):
        if draw(st.booleans()):
            lo = draw(st.integers(-3, 2))
            ranges.append(range(lo, lo + draw(st.integers(1, 4))))
        else:
            ranges.append(sorted(draw(st.sets(st.integers(-5, 5), min_size=1, max_size=4))))
    return system, ranges


@settings(max_examples=150)
@given(_blocked_systems())
@example((DiagonalSystem(a=(10**17, -(10**17)), b=(1, -1), c=(2,), d=(1,)), [range(-2, 3)] * 4))
def test_block_count_matches_brute(case):
    system, ranges = case
    got = solver._count_via_ledgers(system, ranges, DEFAULT_LEDGER_BUDGET)
    assert got == brute_count_box_solutions(system, ranges)
    assert isinstance(got, int)


@pytest.mark.parametrize("P, want", [(26, 44199), (40, 570521), (60, 6566691)])
def test_balanced11_box_pins(balanced11, P, want):
    # seed-0 anchor; the counts and witness scans run at the default budget
    # (at P = 60 the scan visits about 2.5 million nodes)
    anchor = find_real_anchor(balanced11, rng=np.random.default_rng(0))
    res = count_solutions(anchor.system, (P, anchor.theta))
    assert res.count == want
    assert len(res.witnesses) == 10
    assert not res.witnesses_truncated
    for w in res.witnesses:
        assert verify_solution(anchor.system, w)
        assert all(th * P / 2 < x <= 2 * th * P for x, th in zip(w, anchor.theta))


def test_smooth_restriction_shrinks(ladder6):
    theta = LADDER6_THETA
    plain = count_solutions(ladder6, (30.0, theta))
    smooth = count_solutions(ladder6, (30.0, theta), restriction="smooth-y", R=3)
    assert 0 < smooth.count <= plain.count


def test_smooth_restriction_needs_box(sample5):
    with pytest.raises(ValueError):
        count_solutions(sample5, 5, restriction="smooth-y", R=5)
    with pytest.raises(ValueError):
        count_solutions(sample5, (10.0, (0.3,) * 5), restriction="smooth-y")


def test_witnesses_verify_and_exclude_zero(sample5):
    res = count_solutions(sample5, 4)
    assert res.witnesses
    assert not res.witnesses_truncated
    for w in res.witnesses:
        assert any(w)
        assert verify_solution(sample5, w)


def test_witness_order(tiny2):
    res = count_solutions(tiny2, 5, witness_limit=4)
    assert res.witnesses == ((1, 1), (-1, -1), (2, 2), (-2, -2))


def test_witness_limit_zero_skips_the_scan(tiny2):
    res = count_solutions(tiny2, 5, witness_limit=0)
    assert (res.count, res.witnesses, res.witnesses_truncated) == (11, (), False)
    with pytest.raises(ValueError):
        count_solutions(tiny2, 5, witness_limit=-1)


def test_search_witness(tiny2, balanced11):
    assert search_witness(tiny2, 5) == (1, 1)
    w = search_witness(balanced11, 1)
    assert w is not None
    assert verify_solution(balanced11, w)
    assert set(w) <= {-1, 0, 1}


def test_search_witness_none_when_blocked():
    blocked = DiagonalSystem(a=(1, 2), b=(1, 1))
    assert search_witness(blocked, 6) is None


def test_witness_cap_is_reported(tiny2):
    # budget 121 admits the 121 key pairs of the count, but the scan needs
    # 133 nodes for all ten witnesses: it stops before the tenth, (-5, -5)
    res = count_solutions(tiny2, 5, budget=121)
    assert res.count == 11
    assert res.witnesses == tuple((v, v) for k in range(1, 5) for v in (k, -k)) + ((5, 5),)
    assert res.witnesses_truncated
    assert not count_solutions(tiny2, 5, budget=133).witnesses_truncated
    # five nodes reach (0, 0), (0, 1) and (0, -1) but not the witness (1, 1)
    with pytest.raises(BudgetError) as exc:
        search_witness(tiny2, 5, budget=5)
    assert exc.value.what == "witness search nodes"
    assert exc.value.estimate > exc.value.cap == 5


def test_verify_solution(sample5):
    assert verify_solution(sample5, (1, 1, -2, 1, -3)) is False
    assert verify_solution(sample5, (0, 0, 0, 0, 0))


def test_count_budget(balanced11):
    with pytest.raises(BudgetError):
        count_solutions(balanced11, 500, budget=10**6)


def test_count_budget_boundaries(tiny2):
    # at B = 10 each x-half of tiny2 folds 21 tuples into 21 keys: 441 pairs
    with pytest.raises(BudgetError) as exc:
        count_solutions(tiny2, 10, budget=20)
    assert (exc.value.what, exc.value.estimate) == ("count fold tuples", 21)
    with pytest.raises(BudgetError) as exc:
        count_solutions(tiny2, 10, budget=440)
    assert (exc.value.what, exc.value.estimate) == ("count key pairs", 441)
    assert count_solutions(tiny2, 10, budget=441).count == 21


def test_predict_and_compare_smoke(ladder6, rng):
    rep = predict_and_compare(ladder6, 12.0, Q=40, rng=rng, mc_samples=60_000)
    assert rep["count"] > 0
    assert rep["prediction"] > 0
    assert rep["ratio"] == pytest.approx(rep["count"] / rep["prediction"])
    assert len(rep["anchor_theta"]) == 6
    assert rep["witnesses_truncated"] is False
    for w in rep["witnesses"]:
        assert verify_solution(ladder6, w)


def test_predict_variants_skip_the_witness_scan(balanced11, monkeypatch):
    scans = []
    scan = solver._witness_scan
    monkeypatch.setattr(solver, "_witness_scan", lambda *args: scans.append(args) or scan(*args))
    rep = predict_and_compare(balanced11, 10.0, Q=10, eta=0.5, rng=np.random.default_rng(1234), mc_samples=20_000)
    assert len(scans) == 1
    anchor = find_real_anchor(balanced11, rng=np.random.default_rng(1234))
    for name, factor in (("smooth-y", c_eta(0.5) ** 3), ("smooth-xl", c_eta(0.5))):
        variant = rep["variants"][name]
        assert variant["R"] == 3
        assert variant["count"] == count_solutions(anchor.system, (10.0, anchor.theta), name, R=3).count
        assert variant["prediction"] == pytest.approx(factor * rep["prediction"], rel=1e-15)


def test_predict_reports_witness_cap(balanced11):
    # at this anchor R(10) = 296 needs a budget of 1290, and the scan finds
    # four witnesses in 50000 nodes and all ten in 51445; the series to
    # Q = 10 holds 210 table and orbit-row cells
    reps = [
        predict_and_compare(balanced11, 10.0, Q=10, rng=np.random.default_rng(1234), mc_samples=20_000, budget=b)
        for b in (50_000, DEFAULT_LEDGER_BUDGET)
    ]
    assert [rep["count"] for rep in reps] == [296, 296]
    assert [rep["witnesses_truncated"] for rep in reps] == [True, False]
    # the same scan order, stopped early: the first witnesses agree
    assert reps[0]["witnesses"] == reps[1]["witnesses"]
