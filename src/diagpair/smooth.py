"""Smooth numbers and the Dickman density.

An integer is R-smooth when its largest prime factor is at most R; the
empty product 1 counts as smooth for every R.  The asymptotic density of
X^(1/u)-smooth numbers below X is the Dickman function rho(u), computed
per call from one power series per unit interval (Marsaglia, Zaman and
Marsaglia, Math. Comp. 53 (1989)).  On [k, k+1], rho(k + 1/2 + x) =
sum_i a_i x^i for |x| <= 1/2, starting from rho = 1 on [0, 1].  The
delay equation u rho'(u) = -rho(u - 1) fixes a_1, a_2, ... from the unit
below, and the integral form u rho(u) = int_{u-1}^{u} rho at the midpoint
fixes a_0 as a sum of positive terms.  Unit k's series converges out to
its singularity at u = k - 1, so its terms fall like 3^-i; with 40 terms
the relative error stays below 1e-14 on all of [0, 20], rho(20) ~ 2.5e-29
included.
"""

from __future__ import annotations

from math import ceil, inf, isqrt

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget

_RHO_MAX_U = 20
_RHO_TERMS = 40


def _spf_array(n: int) -> np.ndarray:
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    return spf


def smallest_prime_factors(n: int) -> list[int]:
    """spf[q], the smallest prime dividing q, for 2 <= q <= n (spf[0] = 0, spf[1] = 1).

    q > 1 is prime exactly when spf[q] == q.
    """
    return _spf_array(n).tolist()


def primes_up_to(n: int) -> list[int]:
    spf = smallest_prime_factors(max(n, 1))
    return [q for q in range(2, n + 1) if spf[q] == q]


# Miller-Rabin with the primes up to 41 as bases is exact for n < 3.3e24
# (Sorenson and Webster, Math. Comp. 86 (2017)), and a strong test past it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin on `_MR_BASES`, in O(log n) multiplications."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gpf_table(N: int) -> np.ndarray:
    """gpf_table(N)[x] is the greatest prime factor of x, with gpf(1) = 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    gpf = _spf_array(N)
    # ascending primes, so the largest prime dividing x writes gpf[x] last
    for p in np.flatnonzero(gpf == np.arange(N + 1))[2:].tolist():
        gpf[p::p] = p
    return gpf


def smooth_mask(N: int, R: int, budget: int = DEFAULT_LEDGER_BUDGET) -> np.ndarray:
    """Boolean array of length N + 1, True at R-smooth x in [1, N].

    Its N + 1 table cells are checked against `budget` before any is built.
    """
    if R < 2:
        raise ValueError("R must be >= 2")
    check_budget(N + 1, budget, what="smooth table cells")
    mask = gpf_table(N) <= R
    mask[0] = False
    return mask


def smooth_set(X: int, R: int, budget: int = DEFAULT_LEDGER_BUDGET) -> list[int]:
    """Sorted R-smooth integers in [1, X], including 1."""
    return [int(x) for x in np.nonzero(smooth_mask(X, R, budget))[0]]


def dickman_rho(u: float) -> float:
    """Dickman's rho on [0, 20] from the per-unit series of the module docstring.

    Unit k's a_i for i >= 1 follow from the unit below, b, in the same x:
    (k + 1/2)(i + 1) a_(i+1) = -(b_i + i a_i).  Then
    k a_0 = int_0^(1/2) b + int_(-1/2)^0 (a - a_0), both terms positive
    (fixing a_0 by continuity at u = k instead cancels catastrophically in
    the tail).  Relative error below 1e-14 on [0, 20]; nothing is kept
    between calls.
    """
    if not 0 <= u <= _RHO_MAX_U:
        raise ValueError(f"u out of range [0, {_RHO_MAX_U}]: {u}")
    if u <= 1:
        return 1.0
    top = ceil(u) - 1  # u in (top, top + 1]
    a = [1.0] + [0.0] * (_RHO_TERMS - 1)
    for k in range(1, top + 1):
        b, a = a, [0.0] * _RHO_TERMS
        for i in range(_RHO_TERMS - 1):
            a[i + 1] = -(b[i] + i * a[i]) / ((k + 0.5) * (i + 1))
        upper = sum(b[i] * 0.5 ** (i + 1) / (i + 1) for i in range(_RHO_TERMS))
        lower = sum(a[i] * (-0.5) ** i * 0.5 / (i + 1) for i in range(1, _RHO_TERMS))
        a[0] = (upper + lower) / k
    x = u - (top + 0.5)
    val = 0.0
    for coeff in reversed(a):
        val = val * x + coeff
    return val


def c_eta(eta: float) -> float:
    """Density constant rho(1/eta) of eta-power smooth numbers."""
    if not 0 < eta < inf:
        raise ValueError("eta must be finite and positive")
    return dickman_rho(1.0 / eta)
