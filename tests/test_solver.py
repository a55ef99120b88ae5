import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from diagpair import solver
from diagpair.oracles import brute_count_box_solutions, brute_count_solutions

# frozen brute-force counts
SAMPLE5_N3 = 45
SAMPLE5_N5 = 101


def test_anchor_balanced(balanced11, rng):
    anchor = find_real_anchor(balanced11, rng=rng)
    assert anchor.jacobian_rank == 2
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
    # x1 = x2 solutions all have rank-1 Jacobian
    degen = DiagonalSystem(a=(1, -1), b=(1, -1))
    with pytest.raises(AnchorError):
        find_real_anchor(degen, rng=rng)
    relaxed = find_real_anchor(degen, rng=rng, require_rank2=False)
    assert relaxed.jacobian_rank < 2
    assert max(relaxed.residuals) <= 1e-10


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
    theta = (0.3, 0.3, 0.25, 0.25, 0.35, 0.35)
    P = 14.0
    got = count_solutions(ladder6, (P, theta))
    ranges = []
    for th in theta:
        lo = int(np.floor(th * P / 2)) + 1
        hi = int(np.floor(2 * th * P))
        ranges.append(range(lo, hi + 1))
    assert got.count == brute_count_box_solutions(ladder6, ranges)


def test_smooth_restriction_shrinks(ladder6):
    theta = (0.3, 0.3, 0.25, 0.25, 0.35, 0.35)
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


def test_search_witness(tiny2, balanced11):
    assert search_witness(tiny2, 5) == (1, 1)
    w = search_witness(balanced11, 1)
    assert w is not None
    assert verify_solution(balanced11, w)
    assert set(w) <= {-1, 0, 1}


def test_search_witness_none_when_blocked():
    blocked = DiagonalSystem(a=(1, 2), b=(1, 1))
    assert search_witness(blocked, 6) is None


def test_witness_cap_is_reported(tiny2, monkeypatch):
    # five nodes reach (0, 0), (0, 1) and (0, -1) but not the witness (1, 1)
    monkeypatch.setattr(solver, "_WITNESS_NODE_CAP", 5)
    res = count_solutions(tiny2, 5)
    assert res.count == 11
    assert res.witnesses == ()
    assert res.witnesses_truncated
    with pytest.raises(BudgetError) as exc:
        search_witness(tiny2, 5)
    assert exc.value.what == "witness search nodes"
    assert exc.value.estimate > exc.value.cap == 5


def test_verify_solution(sample5):
    assert verify_solution(sample5, (1, 1, -2, 1, -3)) is False
    assert verify_solution(sample5, (0, 0, 0, 0, 0))


def test_count_budget(balanced11):
    with pytest.raises(BudgetError):
        count_solutions(balanced11, 500, budget=10**6)


def test_sparse_count_budget(tiny2):
    # each half of tiny2 at B = 10 holds 21 tuples
    with pytest.raises(BudgetError) as exc:
        count_solutions(tiny2, 10, budget=10)
    assert exc.value.what == "sparse count ledger"
    assert exc.value.estimate == 21
    assert count_solutions(tiny2, 10, budget=21).count == 21


def test_predict_and_compare_smoke(ladder6, rng):
    rep = predict_and_compare(ladder6, 12.0, Q=40, rng=rng, mc_samples=60_000)
    assert rep["count"] > 0
    assert rep["prediction"] > 0
    assert rep["ratio"] == pytest.approx(rep["count"] / rep["prediction"])
    assert len(rep["anchor_theta"]) == 6
    for w in rep["witnesses"]:
        assert verify_solution(ladder6, w)
