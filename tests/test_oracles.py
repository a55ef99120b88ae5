"""The array oracles against plain loops."""

import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagpair import oracles
from diagpair.expsums import BoxSumSpec
from diagpair.oracles import (
    brute_count_box_solutions,
    brute_count_congruences,
    brute_count_solutions,
    direct_series_term,
    t_factor,
)
from diagpair.systems import DiagonalSystem


def test_oracles_load_no_engine():
    # the references share no code with the engines they check: importing them loads none
    code = (
        "import sys, diagpair.oracles\n"
        "loaded = [m for m in ('diagpair.ledger', 'diagpair.solver', 'diagpair.local') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(oracles.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _loop_count(system, ranges, q=None) -> int:
    """Reference: evaluate both forms at every point in Python integers."""
    count = 0
    for point in product(*ranges):
        theta, phi = system.eval_forms(point)
        if (theta == 0 and phi == 0) if q is None else (theta % q == 0 and phi % q == 0):
            count += 1
    return count


def _loop_half(parts):
    """Reference: component sums of every half-tuple, in Python integers."""
    half = [(0,) * len(parts[0][0][0])]
    for gens, k in parts:
        grown = []
        for row in half:
            for tup in product(gens, repeat=k):
                sums = list(row)
                for g in tup:
                    for j in range(len(sums)):
                        sums[j] += g[j]
                grown.append(tuple(sums))
        half = grown
    return half


def _loop_pairs(half, match) -> int:
    """Reference: test every ordered pair of half-tuples one at a time."""
    return sum(1 for a in half for b in half if match(a, b))


def _equal(a, b):
    return a == b


def _negated(a, b):
    return all(u + v == 0 for u, v in zip(a, b))


def _within(h):
    return lambda a, b: a[0] == b[0] and a[1] == b[1] and abs(a[2] - b[2]) <= h


def _tj(X):
    return [(x**3, x * x, x) for x in range(1, X + 1)]


def _block(Y, H):
    return [(h, h * y, h * y * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)]


def _j1(Y, H):
    return [(h, h * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)]


def _box(spec):
    return [(spec.cubic * x**3, spec.quad * x * x) for x in spec.members()]


_SMOOTH = BoxSumSpec(theta=0.3, P=12.0, cubic=1, smooth_R=3)
_F = BoxSumSpec(theta=0.3, P=8.0, cubic=1, quad=1)
_H = BoxSumSpec(theta=0.4, P=8.0, quad=1)
_HUGE = BoxSumSpec(theta=0.3, P=6.0, cubic=10**18, quad=1)

# (oracle call, half-tuple parts, pair predicate)
PAIR_CASES = {
    "T(1,6)": (lambda: oracles.brute_moment_T(1, 6), [([g[:2] for g in _tj(6)], 1)], _equal),
    "T(2,7)": (lambda: oracles.brute_moment_T(2, 7), [([g[:2] for g in _tj(7)], 2)], _equal),
    "T(3,4)": (lambda: oracles.brute_moment_T(3, 4), [([g[:2] for g in _tj(4)], 3)], _equal),
    "Tsh(2,6,0)": (lambda: oracles.brute_moment_T_shifted(2, 6, 0), [(_tj(6), 2)], _within(0)),
    "Tsh(2,6,2)": (lambda: oracles.brute_moment_T_shifted(2, 6, 2), [(_tj(6), 2)], _within(2)),
    "Tsh(3,4,3)": (lambda: oracles.brute_moment_T_shifted(3, 4, 3), [(_tj(4), 3)], _within(3)),
    "Tsh(2,6)": (lambda: oracles.brute_moment_T_shifted(2, 6), [(_tj(6), 2)], _within(12)),
    "J(2,7)": (lambda: oracles.brute_moment_J(2, 7), [(_tj(7), 2)], _equal),
    "J(3,4)": (lambda: oracles.brute_moment_J(3, 4), [(_tj(4), 3)], _equal),
    "I(1,4,3)": (lambda: oracles.brute_moment_I(1, 4, 3), [(_block(4, 3), 1)], _negated),
    "I(2,3,2)": (lambda: oracles.brute_moment_I(2, 3, 2), [(_block(3, 2), 2)], _negated),
    "J1(3,2)": (lambda: oracles.brute_count_J1(3, 2), [(_j1(3, 2), 2)], _negated),
    "J1(2,3)": (lambda: oracles.brute_count_J1(2, 3), [(_j1(2, 3), 2)], _negated),
    "mixed smooth g^4": (lambda: oracles.brute_mixed_moment([_SMOOTH], [4]), [(_box(_SMOOTH), 2)], _equal),
    "mixed f^2 h^2": (lambda: oracles.brute_mixed_moment([_F, _H], [2, 2]), [(_box(_F), 1), (_box(_H), 1)], _equal),
    "mixed f^4 h^2 h^0": (
        lambda: oracles.brute_mixed_moment([_F, _H, _SMOOTH], [4, 2, 0]),
        [(_box(_F), 2), (_box(_H), 1)],
        _equal,
    ),
    "mixed huge^2 h^2": (lambda: oracles.brute_mixed_moment([_HUGE, _H], [2, 2]), [(_box(_HUGE), 1), (_box(_H), 1)], _equal),
}


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_pair_oracle_matches_loop(name, monkeypatch):
    # every block layout (one block, one row per block, 7 rows with a short
    # last block) and both column types give the nested-loop count
    call, parts, match = PAIR_CASES[name]
    half = _loop_half(parts)
    want = _loop_pairs(half, match)
    assert want > 0
    for limit in (oracles._INT64_LIMIT, 1):
        for rows in (len(half), 1, 7):
            monkeypatch.setattr(oracles, "_INT64_LIMIT", limit)
            monkeypatch.setattr(oracles, "_BLOCK_PAIRS", rows * len(half))
            assert call() == want, (limit, rows)


def test_half_sum_columns_switch_to_python_ints():
    # s max|g| = 2 * 2^61 reaches 2^62: the sum of two such rows would wrap int64
    parts = [([(2**61, 1), (-3, 2)], 2)]
    cols = oracles._half_sums(parts)
    assert [c.dtype for c in cols] == [object, object]
    assert sorted(zip(*cols)) == sorted(_loop_half(parts))
    cols = oracles._half_sums([([(2**61 - 1, 1), (-3, 2)], 2)])
    assert [c.dtype for c in cols] == [np.int64, np.int64]
    # cubic values up to 2.7e19 take the object path without any patching
    assert oracles._half_sums([(_box(_HUGE), 1)])[0].dtype == object


def test_pair_oracles_on_empty_and_trivial_products():
    empty = BoxSumSpec(theta=0.1, P=1.0, cubic=1)
    assert not empty.members()
    assert oracles.brute_mixed_moment([empty, _F], [2, 2]) == 0
    assert oracles.brute_mixed_moment([], []) == 1
    assert oracles.brute_mixed_moment([_F], [0]) == 1
    with pytest.raises(ValueError):
        oracles.brute_mixed_moment([_F], [3])


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


def per_pair_t_values(system, q, r2, r3):
    # one q-term fsum per pair and variable, nothing shared between pairs
    u = np.arange(1, q + 1, dtype=np.int64)
    u2, u3 = u * u % q, u**3 % q
    ang = 2.0 * math.pi * np.arange(q) / q
    cos, sin = np.cos(ang), np.sin(ang)
    out = []
    for a2, a3 in zip(r2.tolist(), r3.tolist()):
        t = complex(1.0)
        for A3, A2 in zip(system.cubic_coeffs(), system.quad_coeffs()):
            idx = ((A3 % q) * (a3 % q) % q * u3 + (A2 % q) * (a2 % q) % q * u2) % q
            t *= complex(math.fsum(cos[idx].tolist()), math.fsum(sin[idx].tolist()))
        out.append(t * float(q) ** (-system.s))
    return out


@pytest.mark.parametrize("name", ["sample5", "ladder6", "balanced11"])
def test_t_values_match_per_pair_loop(name, request):
    # one sum per distinct phase pair gives every T(q, r) bit for bit
    system = request.getfixturevalue(name)
    for q in range(1, 22):
        r2, r3 = np.divmod(np.arange(q * q), q)
        assert oracles._t_values(system, q, r2, r3) == per_pair_t_values(system, q, r2, r3)


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
