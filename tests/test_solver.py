import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diagpair import ledger, solver
from diagpair.acceptance import LADDER6_THETA
from diagpair.budget import DEFAULT_LEDGER_BUDGET, BudgetError
from diagpair.expsums import BoxSumSpec
from diagpair.oracles import brute_count_box_solutions, brute_count_solutions
from diagpair.smooth import c_eta
from diagpair.solver import (
    AnchorError,
    count_solutions,
    find_real_anchor,
    predict_and_compare,
    search_witness,
    verify_solution,
)
from diagpair.systems import BUILTIN_SYSTEMS, DiagonalSystem

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


def test_anchor_requires_real_solution(rng, monkeypatch):
    # positive definite pair has no nonzero real zero; each random start is
    # polished once, and no sweep over the 2^s sign patterns follows
    blocked = DiagonalSystem(a=(1, 2), b=(1, 1))
    polish, polished = solver._newton_polish, []

    def counted(*args):
        polished.append(args)
        return polish(*args)

    monkeypatch.setattr(solver, "_newton_polish", counted)
    with pytest.raises(AnchorError):
        find_real_anchor(blocked, rng=rng)
    assert len(polished) == solver._RANDOM_STARTS


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
    # one x-half key per chunk of the pair sum, and one key per band of
    # every fold
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


def _signed_digit_sums(n: int, t: int) -> int:
    """Number of ways n digits from {-1, 0, 1} sum to t."""
    return sum(math.comb(n, k) * math.comb(n - k, k + t) for k in range(n + 1) if 0 <= k + t <= n - k)


def test_count_past_int64_with_int64_folds():
    # every fold here has at most 3^30 < 2^62 tuples, so each one is int64,
    # while the 3^62 points push products of counts past 2^63: y^3 = y
    # gives Theta = x1^3 - x2^3 + sum y, and Phi = #nonzero z - 10 (x1^2 + x2^2)
    wide = DiagonalSystem(a=(1, -1), b=(-10, -10), c=(1,) * 30, d=(1,) * 30)
    want = 0
    for x1 in (-1, 0, 1):
        for x2 in (-1, 0, 1):
            f = 10 * (x1 * x1 + x2 * x2)
            want += _signed_digit_sums(30, x2**3 - x1**3) * math.comb(30, f) * 2**f
    assert want == 2195324002100019976344814621
    assert count_solutions(wide, 1, witness_limit=0).count == want


def test_pair_sum_object_route(monkeypatch):
    # the pair sum runs on Python ints once max(_CHUNK_PAIRS, |B|) times the
    # product of the ledgers' largest counts reaches 2^62; a raised
    # _CHUNK_PAIRS takes that route on a box whose terms are small
    system = DiagonalSystem(a=(1, 1), b=(1, -1), c=(1, -1), d=(1, -1))
    anchor = find_real_anchor(system, rng=np.random.default_rng(0))
    box = (16.0, anchor.theta)
    dtypes, dtype_for = [], solver.dtype_for
    monkeypatch.setattr(solver, "dtype_for", lambda *sizes: dtypes.append(dtype_for(*sizes)) or dtypes[-1])
    counts = [count_solutions(anchor.system, box, witness_limit=0).count]
    monkeypatch.setattr(ledger, "_CHUNK_PAIRS", 2**62)
    counts.append(count_solutions(anchor.system, box, witness_limit=0).count)
    assert dtypes == [np.int64, object]
    assert counts == [brute_count_box_solutions(anchor.system, solver._build_ranges(anchor.system, box))] * 2


@pytest.mark.parametrize("name, B", [("balanced11", 10**7), ("sample5", 10**4)])
def test_count_refuses_before_building_generators(name, B):
    # the first two variables of a block, 2B + 1 values each, would form
    # (2B + 1)^2 key pairs: balanced11's first x-half refuses at once (its
    # generator tuples alone would take GBs), and sample5's two-variable
    # z-block refuses before its single-variable blocks are built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as exc:
            count_solutions(BUILTIN_SYSTEMS[name], B, witness_limit=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.what, exc.value.estimate) == ("ledger key pairs", (2 * B + 1) ** 2)
    assert peak < 10**6


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
# one x-half int64 and the other object, with values past int64
@example((DiagonalSystem(a=(1, 10**17), b=(1, 1)), [range(0, 1), [0, 5]]))
@example((DiagonalSystem(a=(1, 1), b=(10**18, 1)), [[0, 5], range(0, 1)]))
def test_block_count_matches_brute(case):
    system, ranges = case
    got, pairs = solver._count_via_ledgers(system, ranges, DEFAULT_LEDGER_BUDGET)
    assert got == brute_count_box_solutions(system, ranges)
    assert isinstance(got, int)
    assert 0 <= pairs <= math.prod(len(r) for r in ranges[: system.l])


_QUAD4 = DiagonalSystem(a=(1, 1, -1, -1), b=(1, -1, 1, -1), c=(1,), d=(1, -1))


def _spy_negated_weights(monkeypatch) -> tuple[list, list]:
    """Count the tables `solver._negated_weights` builds and the searchsorted calls of its weights.

    Returns (tables, searches): one entry per call of `_negated_weights`, the
    np.zeros calls of its build and the searchsorted calls of its build, and
    one entry per weights call, its searchsorted calls.
    """
    tables, searches = [], []
    negated = solver._negated_weights

    def spy(*args):
        with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros, \
                mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            weights = negated(*args)
        tables.append((zeros.call_count, search.call_count))

        def counted(k):
            with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
                out = weights(k)
            searches.append(search.call_count)
            return out

        return counted

    monkeypatch.setattr(solver, "_negated_weights", spy)
    return tables, searches


@pytest.mark.parametrize(
    "system, B, tables, searches",
    [
        # x-halves of 21 keys each: the Theta span 65 and the Phi span 17 fit
        # in 441 pairs, so each of r_y and r_z is scattered into a table
        (_QUAD4, 2, 2, 0),
        # the Phi span 201 fits in 21 * 21 = 441 pairs and r_z becomes a
        # table; the Theta span 4001 does not, so r_y is searched once per
        # run of Phi_a = x1^2, eleven runs
        (BUILTIN_SYSTEMS["tiny2"], 10, 1, 11),
        # object keys take no table: both are searched once per run of
        # Phi_a = x1^2 in {0, 1, 4}
        (DiagonalSystem(a=(10**17, -(10**17)), b=(1, -1), c=(2,), d=(1,)), 2, 0, 2 * 3),
    ],
    # system, B and the reads of r_y and r_z, tables plus searches
    ids=["system0-2-2", "system1-10-12", "system2-2-6"],
)
def test_pair_sum_routes(system, B, tables, searches, monkeypatch):
    built, searched = _spy_negated_weights(monkeypatch)
    assert count_solutions(system, B, witness_limit=0).count == brute_count_solutions(system, B)
    # a table is filled by one scatter, with no search
    assert [zeros for zeros, _ in built] == [1] * tables + [0] * (2 - tables)
    assert all(search == 0 for _, search in built)
    # a per-call weight searches once
    assert sum(searched) == searches
    assert set(searched) <= {0, 1}


def test_pair_sum_skips_pairs_r_z_cannot_close(balanced11):
    # 2915 keys in each x-half bound the sum at 8,497,225 pairs; only the
    # pairs whose Phi the z-block can close are formed
    res = count_solutions(balanced11, 12, witness_limit=0)
    assert res.count == 1424773077
    assert res.pairs == 2625543


@pytest.mark.parametrize("P, want", [(26, 44199), (40, 570521), (60, 6566691)])
def test_balanced11_box_pins(balanced11, P, want, monkeypatch):
    # seed-0 anchor; the counts and witness scans run at the default budget
    # (at P = 60 the scan visits about 2.5 million nodes)
    anchor = find_real_anchor(balanced11, rng=np.random.default_rng(0))
    built, searched = _spy_negated_weights(monkeypatch)
    res = count_solutions(anchor.system, (P, anchor.theta))
    assert res.count == want
    # r_y's keys span more than the Theta sums, and its table still comes
    # from one scatter, with no search
    assert built == [(1, 0), (1, 0)]
    assert searched and not any(searched)
    assert len(res.witnesses) == 10
    assert not res.witnesses_truncated
    for w in res.witnesses:
        assert verify_solution(anchor.system, w)
        assert all(th * P / 2 < x <= 2 * th * P for x, th in zip(w, anchor.theta))


def _three_smooth(x: int) -> bool:
    for p in (2, 3):
        while x % p == 0:
            x //= p
    return x == 1


def test_smooth_variants_shrink_and_match_brute(ladder6):
    # ladder6 at P = 30 with R = floor(30^0.35) = 3; it has no shared
    # variable, so only the pure-cubic block is restricted
    rep = predict_and_compare(ladder6, 30.0, Q=10, eta=0.35, rng=np.random.default_rng(0), mc_samples=20_000)
    assert list(rep["variants"]) == ["smooth-y"]
    assert 0 < rep["variants"]["smooth-y"]["count"] < rep["count"]
    # an s = 6 system at P = 16 with R = floor(16^0.4) = 3: each variant
    # against the brute count over the box ranges with the R-smooth values
    # of its variables kept
    system = DiagonalSystem(a=(1, 1), b=(1, -1), c=(1, -1), d=(1, -1))
    rep = predict_and_compare(system, 16.0, Q=10, eta=0.4, rng=np.random.default_rng(0), mc_samples=20_000)
    anchor = find_real_anchor(system, rng=np.random.default_rng(0))
    boxes = [range(math.floor(t * 16.0 / 2) + 1, math.floor(2 * t * 16.0) + 1) for t in anchor.theta]
    assert rep["count"] == brute_count_box_solutions(anchor.system, boxes) == 341
    for name, restricted in (("smooth-y", {2, 3}), ("smooth-xl", {1})):
        ranges = [[x for x in r if _three_smooth(x)] if i in restricted else r
                  for i, r in enumerate(boxes)]
        assert rep["variants"][name]["R"] == 3
        assert 0 < rep["variants"][name]["count"] == brute_count_box_solutions(anchor.system, ranges) < 341


def test_smooth_variants_table_gets_the_prediction_budget(balanced11, monkeypatch):
    # one smooth table, up to the largest restricted endpoint, checked
    # against the prediction's budget
    from diagpair import smooth

    tables = []
    mask = smooth.smooth_mask
    monkeypatch.setattr(smooth, "smooth_mask", lambda *args: tables.append(args) or mask(*args))
    predict_and_compare(balanced11, 10.0, Q=10, eta=0.5, rng=np.random.default_rng(1234), mc_samples=20_000,
                        budget=10**7)
    anchor = find_real_anchor(balanced11, rng=np.random.default_rng(1234))
    hi = max(math.floor(2 * anchor.theta[i] * 10.0) for i in (5, 6, 7, 8))
    assert tables == [(hi, 3, 10**7)]


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


def test_count_without_a_nonzero_solution_skips_the_scan(tiny2, monkeypatch):
    scans = []
    scan = solver._witness_scan
    monkeypatch.setattr(solver, "_witness_scan", lambda *args: scans.append(args) or scan(*args))
    # Phi = x1^2 + x2^2 vanishes only at the zero tuple: the ball holds it
    # alone, and the box (0.75, 3]^2 holds no solution
    blocked = DiagonalSystem(a=(1, 2), b=(1, 1))
    for bounds, count in ((3, 1), ((5.0, (0.3, 0.3)), 0)):
        res = count_solutions(blocked, bounds)
        assert (res.count, res.witnesses, res.witnesses_truncated) == (count, (), False)
    assert not scans
    assert count_solutions(tiny2, 5).witnesses
    assert len(scans) == 1


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
    assert (exc.value.what, exc.value.estimate) == ("ledger generators", 21)
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
    for name, factor, restricted in (("smooth-y", c_eta(0.5) ** 3, {6, 7, 8}), ("smooth-xl", c_eta(0.5), {5})):
        variant = rep["variants"][name]
        assert variant["R"] == 3
        # the smooth values read from each variable's own box sum, not from the variants' table
        ranges = [BoxSumSpec(th, 10.0, cubic=A3, quad=A2, smooth_R=3 if i in restricted else None).members()
                  for i, (A3, A2, th) in enumerate(zip(anchor.system.cubic_coeffs(), anchor.system.quad_coeffs(),
                                                       anchor.theta))]
        assert variant["count"] == solver._count_via_ledgers(anchor.system, ranges, DEFAULT_LEDGER_BUDGET)[0]
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
