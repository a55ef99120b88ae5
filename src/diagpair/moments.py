"""Exact even moments of the exponential sums, computed as lattice counts.

By orthogonality, every even moment here equals the number of integer
solutions of a system of diagonal equations, so it is computed exactly:
fold the generators of one side into form-value vectors with `Ledger`,
then pair tuples in one of two ways.  Equal keys need no ledger: their
count, the sum of squared multiplicities, is taken band by band from the
fold's top step (`Ledger.fold_sum_of_squares`).  That serves T, J, I, J1
and the mixed moments; I pairs a key with its negation, but its
generators are closed under negation, so that match is the same sum of
squares.  Only `moment_T_shifted` with a window past 0 builds its ledger,
to pair keys within that window of the linear field.  All counts are
exact integers; nothing is accumulated in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget
from .expsums import BoxSumSpec
from .ledger import Ledger, SquareSum, exact_dot, form_values


@dataclass(frozen=True)
class MomentResult:
    value: int
    params: dict

    def __int__(self) -> int:
        return self.value


def _top_counters(top: SquareSum) -> dict:
    """The key pairs and bands of a sum of squares' top step, for `MomentResult.params`."""
    return {"top_pairs": top.pairs, "top_bands": top.bands}


def moment_T(s: int, X: int, budget: int = DEFAULT_LEDGER_BUDGET) -> MomentResult:
    """Exact count of 1 <= x_i, y_i <= X with sum x^3 = sum y^3, sum x^2 = sum y^2.

    Equals the 2s-th power mean of the cubic-quadratic Weyl sum.  Computed
    as sum_k c_s(k)^2 where c_s is the s-fold convolution of the
    single-variable ledger over keys (x^2, x^3), summed band by band
    without building c_s (`Ledger.fold_sum_of_squares`).  The params carry
    the key pairs and bands of that top step (`top_pairs`, `top_bands`).
    """
    if s < 1 or X < 1:
        raise ValueError("s and X must be >= 1")
    top = Ledger.fold_sum_of_squares([(X, ((x * x, x**3) for x in range(1, X + 1)), s)], budget)
    return MomentResult(top.value, {"s": s, "X": X, **_top_counters(top)})


def moment_T_shifted(
    s: int, X: int, h_max: Optional[int] = None, budget: int = DEFAULT_LEDGER_BUDGET
) -> MomentResult:
    """Count of sum(x_i^j - y_i^j) = delta_j * h (j = 1, 2, 3), |h| <= h_max.

    delta_j is 1 for j = 1 and 0 otherwise, so the cubic and quadratic
    equations are exact while the linear one only pins h.  With
    h_max >= s*(X-1) the linear slot is redundant and the count equals
    moment_T(s, X); with h_max = 0 all three equations bind and the count
    equals moment_J(s, X).  A window of 0 counts equal keys only, so that
    count is a sum of squares taken band by band, and its params carry
    `top_pairs` and `top_bands` as `moment_T`'s do.
    """
    if s < 1 or X < 1:
        raise ValueError("s and X must be >= 1")
    if h_max is None:
        h_max = s * X
    if h_max < 0:
        raise ValueError("h_max must be >= 0")
    parts = [(X, ((x, x * x, x**3) for x in range(1, X + 1)), s)]
    params = {"s": s, "X": X, "h_max": h_max}
    # The linear field has stride 1 and spans at most s(X-1) inside one
    # (quadratic, cubic) group, while keys of different groups lie more than
    # s(X-1) apart, so a key window of half-width h never leaves its group.
    h = min(h_max, s * (X - 1))
    if h == 0:
        top = Ledger.fold_sum_of_squares(parts, budget)
        return MomentResult(top.value, {**params, **_top_counters(top)})
    c_s = Ledger.fold(parts, budget)
    csum = np.concatenate(([0], np.cumsum(c_s.counts)))
    lo = np.searchsorted(c_s.keys, c_s.keys - h, side="left")
    hi = np.searchsorted(c_s.keys, c_s.keys + h, side="right")
    return MomentResult(exact_dot(c_s.counts, csum[hi] - csum[lo]), params)


def _block_generators(Y: int, H: int):
    return ((h, h * y, h * y * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1))


def moment_I(s: int, Y: int, H: int, budget: int = DEFAULT_LEDGER_BUDGET) -> MomentResult:
    """Exact count of 2s-tuples (h_i, y_i) with sum h_i y_i^j = 0 for j = 0, 1, 2.

    0 < |h_i| <= H and 1 <= y_i <= Y; the sign of each generator is carried
    by h, so the count is sum_k n_s(k) n_s(-k) over the s-fold ledger n_s.
    h -> -h negates the generator (h, h y, h y^2), so n_s(-k) = n_s(k) and
    the count is sum_k n_s(k)^2, taken band by band with `top_pairs` and
    `top_bands` in the params, as in `moment_T`.
    """
    if s < 1 or Y < 1 or H < 1:
        raise ValueError("s, Y, H must be >= 1")
    top = Ledger.fold_sum_of_squares([(2 * H * Y, _block_generators(Y, H), s)], budget)
    return MomentResult(top.value, {"s": s, "Y": Y, "H": H, **_top_counters(top)})


@dataclass(frozen=True)
class I2Classification:
    t0: int
    t1: int
    t2: int
    identity_violations: int
    total: int


def classify_I2(Y: int, H: int, budget: int = DEFAULT_LEDGER_BUDGET) -> I2Classification:
    """Tabulate every solution of the s = 2 block system and bucket it.

    All (2HY)^2 ordered generator pairs are keyed by their summed
    (h, h y, h y^2); one sort and `searchsorted` find, for each front pair,
    the back pairs with the negated key, and the (front, back) solutions are
    expanded as arrays once their exact count has been checked against
    `budget`.  Buckets use the literal defining predicates, applied to those
    arrays without any index reshuffling, so they may overlap and need not
    cover: t0 has all y equal, t1 has h3 y3^2 + h4 y4^2 = 0, t2 has
    y3 != y4 and h3 y3^2 + h4 y4^2 != 0.  Every solution is also checked
    against the exact identity h1 h2 (y1 - y2)^2 = h3 h4 (y3 - y4)^2;
    violations are counted (and are always zero, the identity being
    algebraic).
    """
    if Y < 1 or H < 1:
        raise ValueError("s, Y, H must be >= 1")
    m = 2 * H * Y
    check_budget(m * m, budget, what="pair enumeration")
    gens = np.array(list(_block_generators(Y, H)), dtype=np.int64).reshape(m, 3)
    h, y = gens[:, 0], gens[:, 1] // gens[:, 0]
    first, second = np.divmod(np.arange(m * m), m)
    # Mixed-radix key with offsets symmetric about 0: negating a key maps its
    # code c to top - 1 - c.  The radix product is below 16 m^3, inside int64
    # while m^2 pairs fit in memory.
    code = np.zeros(m * m, dtype=np.int64)
    top = 1
    for j, span in enumerate((2 * H, 2 * H * Y, 2 * H * Y * Y)):
        code = code * (2 * span + 1) + (gens[first, j] + gens[second, j] + span)
        top *= 2 * span + 1
    order = np.argsort(code, kind="stable")
    codes = code[order]
    lo = np.searchsorted(codes, top - 1 - code, side="left")
    hi = np.searchsorted(codes, top - 1 - code, side="right")
    n_back = hi - lo
    total = check_budget(int(n_back.sum()), budget, what="I_2 solutions")
    front = np.repeat(np.arange(m * m), n_back)
    # solution k of front pair f reads order[lo[f] + k - (f's first solution)]
    back = order[np.repeat(lo - np.cumsum(n_back) + n_back, n_back) + np.arange(total)]
    h1, y1, h2, y2 = h[first[front]], y[first[front]], h[second[front]], y[second[front]]
    h3, y3, h4, y4 = h[first[back]], y[first[back]], h[second[back]], y[second[back]]
    bad = np.count_nonzero(h1 * h2 * (y1 - y2) ** 2 != h3 * h4 * (y3 - y4) ** 2)
    t0 = np.count_nonzero((y1 == y2) & (y2 == y3) & (y3 == y4))
    back_quad = h3 * y3 * y3 + h4 * y4 * y4
    t1 = np.count_nonzero(back_quad == 0)
    t2 = np.count_nonzero((y3 != y4) & (back_quad != 0))
    return I2Classification(int(t0), int(t1), int(t2), int(bad), total)


def moment_J(s: int, X: int, budget: int = DEFAULT_LEDGER_BUDGET) -> MomentResult:
    """Exact count with sum x_i^j = sum y_i^j simultaneously for j = 1, 2, 3."""
    return moment_T_shifted(s, X, 0, budget)


def count_J1(Y: int, H: int, budget: int = DEFAULT_LEDGER_BUDGET) -> MomentResult:
    """Count of h1 y1 + h2 y2 = h3 y3 + h4 y4 with h1 + h2 = h3 + h4.

    The two pairs of generators (h, h y), 0 < |h| <= H and 1 <= y <= Y,
    have equal sums, so the count is sum_k n_2(k)^2 over their square n_2,
    taken as in `moment_I`; h -> -h negates a generator, so it is also the
    negated match sum_k n_2(k) n_2(-k).
    """
    if Y < 1 or H < 1:
        raise ValueError("Y and H must be >= 1")
    pairs = ((h, h * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1))
    top = Ledger.fold_sum_of_squares([(2 * H * Y, pairs, 2)], budget)
    return MomentResult(top.value, {"Y": Y, "H": H, **_top_counters(top)})


def mixed_moment(
    factors: Sequence[BoxSumSpec],
    exponents: Sequence[int],
    budget: int = DEFAULT_LEDGER_BUDGET,
) -> MomentResult:
    """Exact mixed even moment of box sums: the integral of prod |F_i|^(2e_i).

    `exponents` lists 2e_i, so each must be even and >= 0.  Counts tuples
    drawn from the factor boxes (smoothness per spec) solving the
    coefficient-weighted pair of equations; computed as sum_k L(k)^2 where
    L folds e_i plus-generators per factor over keys (quadratic, cubic)
    contribution, summed band by band without building L; the params carry
    `top_pairs` and `top_bands` as `moment_T`'s do.  An empty product
    integrates to 1.
    """
    if len(factors) != len(exponents):
        raise ValueError("factors and exponents length mismatch")
    parts = []
    for spec, exp in zip(factors, exponents):
        if exp < 0 or exp % 2 != 0:
            raise ValueError(f"exponents must be even and >= 0, got {exp}")
        if exp == 0:
            continue
        lo, hi = spec.range_bounds()
        check_budget(hi - lo + 1, budget, what="ledger generators")
        xs = spec.members(budget)
        if not xs:
            return MomentResult(0, {"exponents": list(exponents), "top_pairs": 0, "top_bands": 0})
        parts.append((len(xs), form_values(xs, [(spec.quad, 2), (spec.cubic, 3)]), exp // 2))
    top = Ledger.fold_sum_of_squares(parts, budget) if parts else SquareSum(1, 0, 0)
    return MomentResult(top.value, {"exponents": list(exponents), **_top_counters(top)})


def fit_exponent(series) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(scale).

    Accepts two or more (scale, value) points, all values positive; returns
    (slope, rms residual of the fit in log space).
    """
    pts = list(series)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    for _, v in pts:
        if v <= 0:
            raise ValueError("values must be positive")
    lx = np.array([math.log(float(p[0])) for p in pts])
    ly = np.array([math.log(float(p[1])) for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(math.sqrt(np.mean(resid * resid)))
