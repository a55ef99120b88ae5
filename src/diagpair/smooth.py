"""Smooth numbers and the Dickman density.

An integer is R-smooth when its largest prime factor is at most R; the
empty product 1 counts as smooth for every R.  The asymptotic density of
X^(1/u)-smooth numbers below X is the Dickman function rho(u), computed
here by stepping the delay equation u rho'(u) = -rho(u - 1) with the
implicit trapezoid rule on a grid whose step divides 1 exactly, so the
lagged value is always an earlier grid point.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget

_RHO_PER_UNIT = 10_000  # grid step 1e-4
_RHO_MAX_U = 20

_rho_grid: np.ndarray | None = None
_rho_vals: np.ndarray | None = None


def smallest_prime_factors(n: int) -> list[int]:
    """spf[q], the smallest prime dividing q, for 2 <= q <= n (spf[0] = 0, spf[1] = 1).

    q > 1 is prime exactly when spf[q] == q.
    """
    spf = np.arange(n + 1)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    return spf.tolist()


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
    gpf = np.zeros(N + 1, dtype=np.int64)
    gpf[1] = 1
    for p in range(2, N + 1):
        if gpf[p] == 0:
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


def _build_rho() -> tuple[np.ndarray, np.ndarray]:
    n = _RHO_PER_UNIT
    h = 1.0 / n
    grid = np.arange(n * _RHO_MAX_U + 1) * h
    vals = np.ones(grid.size)
    for unit in range(1, _RHO_MAX_U):
        base = unit * n
        lag = vals[base - n : base + 1]
        t = grid[base : base + n + 1]
        f = lag / t
        inc = (h / 2.0) * (f[:-1] + f[1:])
        vals[base + 1 : base + n + 1] = vals[base] - np.cumsum(inc)
    return grid, vals


def dickman_rho(u: float) -> float:
    """Dickman's rho on [0, 20], linear interpolation on the stepped table."""
    if u < 0 or u > _RHO_MAX_U:
        raise ValueError(f"u out of range [0, {_RHO_MAX_U}]: {u}")
    if u <= 1:
        return 1.0
    global _rho_grid, _rho_vals
    if _rho_vals is None:
        _rho_grid, _rho_vals = _build_rho()
    return float(np.interp(u, _rho_grid, _rho_vals))


def c_eta(eta: float) -> float:
    """Density constant rho(1/eta) of eta-power smooth numbers."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return dickman_rho(1.0 / eta)
