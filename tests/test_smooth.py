import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diagpair import smooth
from diagpair.budget import BudgetError
from diagpair.smooth import c_eta, dickman_rho, gpf_table, is_prime, primes_up_to, smooth_mask, smooth_set

# u = 2, 2.5 and 3.5 from the closed form and 25-digit mpmath quadrature of
# the delay equation; the integers from 3 on are the published values
# (Marsaglia, Zaman and Marsaglia, Math. Comp. 53 (1989))
RHO_TABLE = {
    2.0: 0.30685281944005469,
    2.5: 0.13031956183225075,
    3.0: 0.0486083882911316,
    3.5: 0.016229593243235992,
    4.0: 4.91092564776083e-3,
    5.0: 3.54724700456040e-4,
    6.0: 1.96496963539553e-5,
    7.0: 8.74566995329392e-7,
    8.0: 3.23206930422610e-8,
    9.0: 1.01624828273784e-9,
    10.0: 2.77017183772596e-11,
}


def brute_gpf(x):
    best, d = 1, 2
    while d * d <= x:
        while x % d == 0:
            best, x = d, x // d
        d += 1
    return max(best, x) if x > 1 else best


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime():
    primes = set(primes_up_to(20_000))
    assert [n for n in range(-3, 20_001) if is_prime(n)] == sorted(primes)
    # strong pseudoprimes to the first 4, 7 and 12 prime bases, and Mersenne
    # primes on either side of 2^64
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_smooth_table_obeys_budget():
    # N + 1 cells, checked before the table is built
    assert smooth_set(10, 3, budget=11) == [1, 2, 3, 4, 6, 8, 9]
    with pytest.raises(BudgetError) as info:
        smooth_mask(10, 3, budget=10)
    assert (info.value.what, info.value.estimate) == ("smooth table cells", 11)


def test_gpf_table_matches_brute():
    table = gpf_table(400)
    for x in range(1, 401):
        assert table[x] == brute_gpf(x)


@given(st.integers(2, 50))
def test_smooth_mask_matches_brute(R):
    mask = smooth_mask(300, R)
    assert not mask[0]
    for x in range(1, 301):
        assert mask[x] == (brute_gpf(x) <= R)


def test_smooth_set_small():
    assert smooth_set(10, 3) == [1, 2, 3, 4, 6, 8, 9]
    assert len(smooth_set(100, 5)) == 34


def test_rho_closed_form_harmonics():
    assert dickman_rho(2.0) == pytest.approx(1 - math.log(2), abs=1e-15)
    for u in (0.0, 0.3, 1.0):
        assert dickman_rho(u) == 1.0


def test_rho_frozen_table():
    for u, val in RHO_TABLE.items():
        assert dickman_rho(u) == pytest.approx(val, rel=1e-12)
    assert dickman_rho(20.0) == pytest.approx(2.4617828e-29, rel=1e-7)


def test_rho_table_derivation():
    # re-derive two frozen entries from the delay equation with mpmath
    # quadrature, independent of the power series
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    rho2 = 1 - mp.log(2)
    rho3 = rho2 - mp.quad(lambda t: (1 - mp.log(t - 1)) / t, [2, 3])
    assert float(rho2) == pytest.approx(RHO_TABLE[2.0], abs=1e-12)
    assert float(rho3) == pytest.approx(RHO_TABLE[3.0], abs=1e-12)


@given(st.floats(1.0, 19.1), st.floats(0.01, 0.9))
def test_rho_decreasing(u, step):
    assert 0 < dickman_rho(u + step) < dickman_rho(u)


def test_rho_keeps_no_state():
    # fill CPython's float free list first: the floats a call frees go back
    # to that list and would read as retained memory that smooth does not hold
    floats = [float(i) for i in range(1000)]
    del floats
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dickman_rho(20.0)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(after - before) < 1024
    assert not [name for name, val in vars(smooth).items() if isinstance(val, np.ndarray)]


def test_rho_rejects_out_of_range():
    with pytest.raises(ValueError):
        dickman_rho(-0.5)
    with pytest.raises(ValueError):
        dickman_rho(21.0)
    with pytest.raises(ValueError, match="out of range"):
        dickman_rho(math.nan)


def test_density_approaches_rho():
    # X^(1/2)-smooth density below X against rho(2); finite-size excess
    # shrinks roughly like 1/log X, so only closeness at scale is tested
    X = 200_000
    dens = len(smooth_set(X, math.isqrt(X))) / X
    assert abs(dens - RHO_TABLE[2.0]) < 0.06


def test_c_eta():
    assert c_eta(1.0) == 1.0
    assert c_eta(0.5) == pytest.approx(RHO_TABLE[2.0], abs=1e-8)
    assert c_eta(0.25) == pytest.approx(RHO_TABLE[4.0], abs=1e-8)
    with pytest.raises(ValueError):
        c_eta(0.0)
    # 1/inf = 0 once gave rho(0) = 1, and NaN failed in `ceil`
    for eta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            c_eta(eta)


def test_smooth_counts_monotone_in_R():
    counts = [len(smooth_set(5000, R)) for R in (2, 3, 7, 19, 67)]
    assert counts == sorted(counts)
    assert np.all(np.diff(counts) > 0)
