"""Brute-force counterparts of every counting operation.

Each function here enumerates tuples directly and compares form values,
with no key grouping, hashing, or convolution, so agreement with the
ledger implementations is evidence rather than tautology.  The uniform
pattern is: materialise all half-tuples with their component sums, then
scan all pairs quadratically.  Everything is pure Python integers, apart
from `direct_series_term`, which sums complete sums term by term.

Enumeration cost is (number of half-tuples)^2; callers keep instances at
or below about 10^7 of those comparisons.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional, Sequence

from .expsums import BoxSumSpec
from .local import t_factor
from .systems import DiagonalSystem


def _half_sums(gens, s: int, ncomp: int):
    out = []
    for tup in product(gens, repeat=s):
        sums = [0] * ncomp
        for g in tup:
            for j in range(ncomp):
                sums[j] += g[j]
        out.append(tuple(sums))
    return out


def brute_moment_T(s: int, X: int) -> int:
    gens = [(x**3, x * x) for x in range(1, X + 1)]
    half = _half_sums(gens, s, 2)
    return sum(1 for a in half for b in half if a == b)


def brute_moment_T_shifted(s: int, X: int, h_max: Optional[int] = None) -> int:
    if h_max is None:
        h_max = s * X
    gens = [(x**3, x * x, x) for x in range(1, X + 1)]
    half = _half_sums(gens, s, 3)
    return sum(
        1
        for a in half
        for b in half
        if a[0] == b[0] and a[1] == b[1] and abs(a[2] - b[2]) <= h_max
    )


def brute_moment_J(s: int, X: int) -> int:
    gens = [(x**3, x * x, x) for x in range(1, X + 1)]
    half = _half_sums(gens, s, 3)
    return sum(1 for a in half for b in half if a == b)


def _block_gens(Y: int, H: int):
    return [
        (h, h * y, h * y * y)
        for h in range(-H, H + 1)
        if h != 0
        for y in range(1, Y + 1)
    ]


def brute_moment_I(s: int, Y: int, H: int) -> int:
    half = _half_sums(_block_gens(Y, H), s, 3)
    return sum(
        1
        for a in half
        for b in half
        if a[0] + b[0] == 0 and a[1] + b[1] == 0 and a[2] + b[2] == 0
    )


def brute_count_J1(Y: int, H: int) -> int:
    gens = [
        (h, h * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)
    ]
    half = _half_sums(gens, 2, 2)
    return sum(1 for a in half for b in half if a[0] + b[0] == 0 and a[1] + b[1] == 0)


def brute_mixed_moment(
    factors: Sequence[BoxSumSpec], exponents: Sequence[int]
) -> int:
    """Plus-side tuples enumerated factor by factor, then a quadratic scan."""
    half = [(0, 0)]
    for spec, exp in zip(factors, exponents):
        if exp % 2 != 0 or exp < 0:
            raise ValueError("exponents must be even and >= 0")
        if exp == 0:
            continue
        gens = [(spec.cubic * x**3, spec.quad * x * x) for x in spec.members()]
        if not gens:
            return 0
        half = [
            (a[0] + sum(g[0] for g in tup), a[1] + sum(g[1] for g in tup))
            for a in half
            for tup in product(gens, repeat=exp // 2)
        ]
    return sum(1 for a in half for b in half if a == b)


def brute_count_solutions(sys: DiagonalSystem, B: int) -> int:
    """All-variable box |x_i| <= B, zeros included, both forms vanish."""
    rng = range(-B, B + 1)
    count = 0
    for point in product(rng, repeat=sys.s):
        theta, phi = sys.eval_forms(point)
        if theta == 0 and phi == 0:
            count += 1
    return count


def brute_count_box_solutions(sys: DiagonalSystem, ranges: Sequence[Sequence[int]]) -> int:
    """Product of per-variable ranges; both forms vanish."""
    if len(ranges) != sys.s:
        raise ValueError("one range per variable required")
    count = 0
    for point in product(*ranges):
        theta, phi = sys.eval_forms(point)
        if theta == 0 and phi == 0:
            count += 1
    return count


def brute_count_congruences(sys: DiagonalSystem, q: int) -> int:
    count = 0
    for point in product(range(q), repeat=sys.s):
        theta, phi = sys.eval_forms(point)
        if theta % q == 0 and phi % q == 0:
            count += 1
    return count


def direct_series_term(sys: DiagonalSystem, q: int) -> tuple[float, complex]:
    """A(q) and B(q) as sums of `t_factor` over the primitive (r2, r3) mod q.

    Each T(q, r) is a product of direct q-term complete sums: no tables, no
    FFT and no multiplicativity, so composite q checks the Euler product.
    Cost is about q^2 * s complete sums.
    """
    A = 0.0
    B = complex(0.0)
    for r2 in range(q):
        for r3 in range(q):
            if math.gcd(math.gcd(q, r2), r3) == 1:
                t = t_factor(sys, q, r2, r3)
                A += abs(t)
                B += t
    return A, B
