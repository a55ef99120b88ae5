"""The array oracles against plain loops."""

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from diagpair import DiagonalSystem, t_factor
from diagpair import oracles
from diagpair.oracles import brute_count_box_solutions, brute_count_congruences, brute_count_solutions, direct_series_term


def _loop_count(system, ranges, q=None) -> int:
    """Reference: evaluate both forms at every point in Python integers."""
    count = 0
    for point in product(*ranges):
        theta, phi = system.eval_forms(point)
        if (theta == 0 and phi == 0) if q is None else (theta % q == 0 and phi % q == 0):
            count += 1
    return count


@pytest.mark.parametrize("name", ["tiny2", "sample5", "balanced11"])
def test_box_oracle_matches_loop(name, request):
    system = request.getfixturevalue(name)
    assert brute_count_solutions(system, 1) == _loop_count(system, [range(-1, 2)] * system.s)


@pytest.mark.parametrize("q", [1, 4, 9])
@pytest.mark.parametrize("name", ["tiny2", "sample5"])
def test_congruence_oracle_matches_loop(name, q, request):
    system = request.getfixturevalue(name)
    assert brute_count_congruences(system, q) == _loop_count(system, [range(q)] * system.s, q)


def test_huge_coefficients_take_the_object_path():
    system = DiagonalSystem(a=(10**17, -(10**17)), b=(1, -1), c=(10**18,), d=(-3,))
    ranges = [range(-4, 5), [-3, 0, 4], range(-2, 3), [0, 2]]
    # Theta on the x-block alone would overflow int64
    assert 10**17 * (4**3 + 4**3) >= 2**63
    assert brute_count_box_solutions(system, ranges) == _loop_count(system, ranges)
    assert brute_count_box_solutions(system, ranges) > 0
    assert brute_count_congruences(system, 4) == _loop_count(system, [range(4)] * 4, 4)
    # 2^61 * 4^3 = 2^67 wraps to 0 in int64, which would add false zeros
    system = DiagonalSystem(a=(), b=(), c=(2**61, 1), d=(1, -1))
    ranges = [[0, 4], [0], range(-2, 3), range(-2, 3)]
    assert brute_count_box_solutions(system, ranges) == _loop_count(system, ranges) == 9


@pytest.mark.parametrize("q", [None, 6])
def test_oracle_across_block_boundary(sample5, monkeypatch, q):
    # blocks of at most 25 points: the last two variables form the block and
    # the first three run in the Python loop
    monkeypatch.setattr(oracles, "_BLOCK_POINTS", 25)
    if q is None:
        ranges = [range(-2, 3), [-3, 1, 2], range(-1, 3), [0, 2, 3, -4, 5], range(-2, 3)]
        assert brute_count_box_solutions(sample5, ranges) == _loop_count(sample5, ranges)
    else:
        assert brute_count_congruences(sample5, q) == _loop_count(sample5, [range(q)] * sample5.s, q)


@st.composite
def _gappy_cases(draw):
    """Small systems with gappy value lists and, sometimes, a tiny block size."""
    l, m, n = draw(st.tuples(*[st.integers(0, 2)] * 3).filter(lambda lmn: sum(lmn) >= 1))
    coeff = st.integers(1, 3).flatmap(lambda v: st.sampled_from([v, -v]))
    cs = draw(st.lists(coeff, min_size=2 * l + m + n, max_size=2 * l + m + n))
    system = DiagonalSystem(a=cs[:l], b=cs[l : 2 * l], c=cs[2 * l : 2 * l + m], d=cs[2 * l + m :])
    ranges = [sorted(draw(st.sets(st.integers(-6, 6), min_size=1, max_size=5))) for _ in range(system.s)]
    return system, ranges, draw(st.sampled_from([1, 4, 2**21]))


@settings(max_examples=60)
@given(_gappy_cases())
def test_gappy_oracle_matches_loop(case):
    system, ranges, block = case
    saved = oracles._BLOCK_POINTS
    oracles._BLOCK_POINTS = block
    try:
        assert brute_count_box_solutions(system, ranges) == _loop_count(system, ranges)
    finally:
        oracles._BLOCK_POINTS = saved


def test_oracle_rejects_wrong_arity(sample5):
    with pytest.raises(ValueError):
        brute_count_box_solutions(sample5, [range(2)] * 4)


@pytest.mark.parametrize("name", ["tiny2", "sample5", "balanced11"])
def test_direct_series_term_matches_t_factor_loop(name, request):
    # the batched complete sums against one `t_factor` per primitive pair, in the same order
    system = request.getfixturevalue(name)
    for q in range(1, 16):
        A, B = 0.0, complex(0.0)
        for r2 in range(q):
            for r3 in range(q):
                if math.gcd(math.gcd(q, r2), r3) == 1:
                    t = t_factor(system, q, r2, r3)
                    A += abs(t)
                    B += t
        assert direct_series_term(system, q) == (A, B)
