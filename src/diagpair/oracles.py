"""Brute-force counterparts of every counting operation.

Each function here enumerates tuples directly and compares form values,
with no sorting, key grouping, packing, hashing, lookup or convolution, so
agreement with the ledger implementations is evidence rather than
tautology.  The point oracles below share no code with `ledger`, `solver`
or `local`.

The pair-scan oracles (moments, J1, mixed moments) build the component
sums of all half-tuples as arrays, one per component, by outer sums of the
generator values, then compare every ordered pair of half-tuples: rows run
in blocks of about _BLOCK_PAIRS pairs, each block ANDs one mask per
component (a == b, a == -b for the negated counts I and J1, or
|a - b| <= h on the linear column of the shifted count) and counts what
passes.  Their cost is still (number of half-tuples)^2 comparisons per
component, and callers keep instances at or below about 10^7 pairs.
Columns are int64 when s max|g_j| < 2^62, summed over the factors of a
mixed moment, so no row, sum or difference of rows can wrap, and object
arrays of Python ints otherwise.

The point oracles (solution and congruence counts) visit every point of a
product of value lists.  The trailing variables form one array block of at
most about _BLOCK_POINTS points, built as outer sums of c_i v^3 and d_i v^2
variable by variable; the leading variables are looped in Python, and each
of their points adds its (Theta, Phi) offset to the whole block before the
block is scanned for zeros, or for zeros mod q.  Arrays are int64 when
sum_i (|c_i| max|v|^3 + |d_i| max v^2) < 2^62, which bounds every partial
sum, and object arrays of Python ints otherwise.

`direct_series_term` and `t_factor` sum every complete sum term by term,
one q-term `math.fsum` per distinct phase pair of the call, from an e(j/q)
table built per call; `local` evaluates the same sums only as DFT rows.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .expsums import BoxSumSpec
from .systems import DiagonalSystem


_INT64_LIMIT = 2**62
# Pairs per array block of the pair-scan oracles: 1 MiB per boolean mask.
_BLOCK_PAIRS = 2**20


def _half_sums(parts):
    """Component sums of every half-tuple, one array per component.

    `parts` lists (gens, k): k generators drawn with repetition from gens,
    each generator a tuple of component values.  Each draw adds the
    generator values to every row so far (an outer sum), so the rows are the
    multiset of component sums over product(gens, repeat=k), part after
    part.  Columns are int64 when sum k * max|g_j| < 2^62, so that neither a
    row nor the sum or difference of two rows can wrap, and object arrays of
    Python ints otherwise.
    """
    bound = sum(k * max(abs(v) for g in gens for v in g) for gens, k in parts)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    cols = [np.zeros(1, dtype=dtype) for _ in parts[0][0][0]]
    for gens, k in parts:
        table = np.array(gens, dtype=dtype)
        for _ in range(k):
            cols = [(c[:, None] + table[:, j]).ravel() for j, c in enumerate(cols)]
    return cols


def _count_pairs(cols, negate: bool = False, window: Optional[int] = None) -> int:
    """Ordered pairs (a, b) of half rows with b = a in every column.

    With `negate` the test is a = -b; with `window` the last column only
    needs |a - b| <= window.  Rows of a run in blocks of about _BLOCK_PAIRS
    pairs, each block compared against every row of b.
    """
    other = [-c for c in cols] if negate else cols
    n = len(cols[0])
    rows = max(1, _BLOCK_PAIRS // n)
    count = 0
    for start in range(0, n, rows):
        mask = np.ones((min(rows, n - start), n), dtype=bool)
        for j, (a, b) in enumerate(zip(cols, other)):
            a = a[start : start + rows, None]
            if window is not None and j == len(cols) - 1:
                mask &= abs(a - b) <= window
            else:
                mask &= a == b
        count += int(np.count_nonzero(mask))
    return count


def brute_moment_T(s: int, X: int) -> int:
    return _count_pairs(_half_sums([([(x**3, x * x) for x in range(1, X + 1)], s)]))


def brute_moment_T_shifted(s: int, X: int, h_max: Optional[int] = None) -> int:
    if h_max is None:
        h_max = s * X
    half = _half_sums([([(x**3, x * x, x) for x in range(1, X + 1)], s)])
    return _count_pairs(half, window=h_max)


def brute_moment_J(s: int, X: int) -> int:
    return _count_pairs(_half_sums([([(x**3, x * x, x) for x in range(1, X + 1)], s)]))


def _block_gens(Y: int, H: int):
    return [
        (h, h * y, h * y * y)
        for h in range(-H, H + 1)
        if h != 0
        for y in range(1, Y + 1)
    ]


def brute_moment_I(s: int, Y: int, H: int) -> int:
    return _count_pairs(_half_sums([(_block_gens(Y, H), s)]), negate=True)


def brute_count_J1(Y: int, H: int) -> int:
    gens = [
        (h, h * y) for h in range(-H, H + 1) if h != 0 for y in range(1, Y + 1)
    ]
    return _count_pairs(_half_sums([(gens, 2)]), negate=True)


def brute_mixed_moment(
    factors: Sequence[BoxSumSpec], exponents: Sequence[int]
) -> int:
    """Plus-side tuples built factor by factor as outer sums, then a pair scan."""
    parts = []
    for spec, exp in zip(factors, exponents):
        if exp % 2 != 0 or exp < 0:
            raise ValueError("exponents must be even and >= 0")
        if exp == 0:
            continue
        gens = [(spec.cubic * x**3, spec.quad * x * x) for x in spec.members()]
        if not gens:
            return 0
        parts.append((gens, exp // 2))
    if not parts:
        return 1
    return _count_pairs(_half_sums(parts))


# Points per array block of the point oracles: 16 MiB per int64 array.
_BLOCK_POINTS = 2**21


def _count_points(sys: DiagonalSystem, ranges: Sequence[Sequence[int]], q: Optional[int] = None) -> int:
    """Points of the product of ranges where Theta = Phi = 0 (mod q if given)."""
    if len(ranges) != sys.s:
        raise ValueError("one range per variable required")
    values = [list(r) for r in ranges]
    if not all(values):
        return 0
    cubic, quad = sys.cubic_coeffs(), sys.quad_coeffs()
    bound = sum(abs(c) * max(abs(v) for v in vs) ** 3 + abs(d) * max(v * v for v in vs)
                for c, d, vs in zip(cubic, quad, values))
    dtype = np.int64 if bound < _INT64_LIMIT else object
    # the trailing block: as many last variables as fit in _BLOCK_POINTS (at least one)
    split, size = sys.s - 1, len(values[-1])
    while split > 0 and size * len(values[split - 1]) <= _BLOCK_POINTS:
        split -= 1
        size *= len(values[split])
    theta = np.zeros(1, dtype=dtype)
    phi = np.zeros(1, dtype=dtype)
    for c, d, vs in zip(cubic[split:], quad[split:], values[split:]):
        v = np.array(vs, dtype=dtype)
        theta = (theta[:, None] + c * v**3).ravel()
        phi = (phi[:, None] + d * v**2).ravel()

    def vanish(a):
        return a == 0 if q is None else a % q == 0

    count = 0
    for lead in product(*values[:split]):
        t = sum(c * v**3 for c, v in zip(cubic, lead))
        f = sum(d * v**2 for d, v in zip(quad, lead))
        count += int(np.count_nonzero(vanish(theta + t) & vanish(phi + f)))
    return count


def brute_count_solutions(sys: DiagonalSystem, B: int) -> int:
    """All-variable box |x_i| <= B, zeros included, both forms vanish."""
    return _count_points(sys, [range(-B, B + 1)] * sys.s)


def brute_count_box_solutions(sys: DiagonalSystem, ranges: Sequence[Sequence[int]]) -> int:
    """Product of per-variable ranges; both forms vanish."""
    return _count_points(sys, ranges)


def brute_count_congruences(sys: DiagonalSystem, q: int) -> int:
    """Points of (Z/q)^s where both forms vanish mod q."""
    return _count_points(sys, [range(q)] * sys.s, q)


def _t_values(sys: DiagonalSystem, q: int, r2: np.ndarray, r3: np.ndarray) -> list[complex]:
    """T(q, r) at each pair (r2[i], r3[i]): q^(-s) times the product of direct complete sums.

    A variable's sum depends only on its phase pair (A3 r3, A2 r2) mod q, so
    each distinct pair of the call is one `math.fsum` per part over its q
    terms, read from an e(j/q) table.
    """
    r2, r3 = r2 % q, r3 % q
    u = np.arange(1, q + 1, dtype=np.int64)
    u2, u3 = u * u % q, u**3 % q
    ang = 2.0 * math.pi * np.arange(q) / q
    cos, sin = np.cos(ang), np.sin(ang)
    sums: dict = {}  # (A3 r3 mod q, A2 r2 mod q) -> the variable's complete sum
    terms = [complex(1.0)] * len(r2)
    for A3, A2 in zip(sys.cubic_coeffs(), sys.quad_coeffs()):
        pairs = list(zip(((A3 % q) * r3 % q).tolist(), ((A2 % q) * r2 % q).tolist()))
        for c3, c2 in set(pairs) - sums.keys():
            idx = (c3 * u3 + c2 * u2) % q
            sums[c3, c2] = complex(math.fsum(cos[idx].tolist()), math.fsum(sin[idx].tolist()))
        terms = [t * sums[pair] for t, pair in zip(terms, pairs)]
    return [t * float(q) ** (-sys.s) for t in terms]


def direct_series_term(sys: DiagonalSystem, q: int) -> tuple[float, complex]:
    """A(q) and B(q) as sums of T(q, r) over the primitive (r2, r3) mod q.

    T(q, r) is from direct complete sums (`_t_values`): no FFT, no orbits
    and no multiplicativity, so composite q checks the Euler product.  Cost
    is about q^3 * s terms.
    """
    r2, r3 = np.divmod(np.arange(q * q), q)
    keep = np.gcd(np.gcd(q, r2), r3) == 1
    A, B = 0.0, complex(0.0)
    for t in _t_values(sys, q, r2[keep], r3[keep]):
        A += abs(t)
        B += t
    return A, B


def t_factor(sys: DiagonalSystem, q: int, r2: int, r3: int) -> complex:
    """q^(-s) times the product of all component complete sums."""
    if math.gcd(math.gcd(q, r2), r3) != 1:
        raise ValueError("(q, r2, r3) must be coprime as a triple")
    return _t_values(sys, q, np.array([r2]), np.array([r3]))[0]
