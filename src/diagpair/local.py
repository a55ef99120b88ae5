"""Complete exponential sums mod q, the singular series, and local counts.

Every phase here is an exact rational j/q.  Complete sums S(q; r2, r3)
are evaluated only as rows over every r2 at once (`_component_rows`), one
inverse DFT of a phase histogram per row, so the only error is rounding in
the trigonometric values and the FFT.  The direct q-term sum that checks
these rows lives in `oracles`.

Each variable enters through its (cubic, quadratic) coefficient pair
(A3, A2), read from `DiagonalSystem.cubic_coeffs()`/`quad_coeffs()`; a
pure-cubic variable has A2 = 0 and a pure-quadratic one A3 = 0, so one
complete sum S(q, r) covers all three blocks.

The singular series is summed from prime powers.  A(q) and B(q) are
multiplicative over coprime factors (CRT splits each primitive residue
pair and each complete sum), so A(1) = B(1) = 1, they are computed only at
prime powers q = p^k, and every other A(q), B(q) is the product of its
p-part's value and its cofactor's.  No prime power needs a q x q table:
the substitution x -> lambda x leaves T(q, r) constant on scaling orbits,
so one row of length q per orbit (`_orbits`) carries every sum
(`_orbit_term`), as it carries criterion 7's maxima.  Criterion 8
checks the product against `oracles.direct_series_term`, which sums
direct complete sums at composite q with no orbits and no
multiplicativity.

The central identity tying the two local viewpoints together: with
B(q) = sum over primitive (q, r2, r3) of T(q, r), the congruence count
M(q) satisfies M(p^t) = p^(t(s-2)) * sum_{h <= t} B(p^h).  Both sides are
computed independently and compared: M(q) folds every variable into one
ledger over the residues (Phi mod q, Theta mod q) and reads residue (0, 0).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget
from .smooth import is_prime, smallest_prime_factors
from .systems import DiagonalSystem


# -- rows of all r2 at once ------------------------------------------------

def _component_rows(q: int, key: np.ndarray, r3: np.ndarray) -> np.ndarray:
    """S(q; r2, r3) of each component for every r2: shape (len(key), len(r3), q).

    `key` holds one (A3 mod q, A2 mod q) pair per row.  Row r3 of a
    component is sum_j w_j e(j r2/q), where w_j sums e(A3 r3 u^3/q) over
    the u with A2 u^2 = j: one length-q inverse DFT per component and row.
    """
    u = np.arange(q, dtype=np.int64)
    u2 = u * u % q
    u3 = u2 * u % q
    c3, c2 = key[:, 0, None, None], key[:, 1, None, None]
    # w_j of component i in row r is bin (i * rows + r) * q + j of one histogram
    phase = c3 * r3[:, None] % q * u3 % q
    slot = (np.arange(len(key) * len(r3)).reshape(len(key), len(r3), 1) * q + c2 * u2 % q).ravel()
    ang = (2.0 * math.pi * phase / q).ravel()
    size = len(key) * len(r3) * q
    w = np.bincount(slot, np.cos(ang), size) + 1j * np.bincount(slot, np.sin(ang), size)
    return q * np.fft.ifft(w.reshape(len(key), len(r3), q), axis=-1)


def _cube_coset_reps(m: int) -> tuple[list[int], int]:
    """The least unit of each coset of the unit cubes mod m, ascending ([0] at m = 1), and the coset size.

    Units and cubes mod m are the products of those mod each prime power
    p^e exactly dividing m.  The units mod p^e are cyclic of order
    phi = phi(p^e) for odd p, and of order 2^(e-1) (all cubes) for p = 2,
    so c^(phi/g) mod p^e with g = gcd(3, phi) names the coset of c mod p^e,
    and the tuple of those names its coset mod m, of phi(m)/prod(g) units.
    Units are tried in ascending order until all cosets have a member.
    """
    parts = []  # (p^e, phi(p^e), g) for each prime power p^e exactly dividing m
    n, p = m, 2
    while n > 1:
        if p * p > n:
            p = n  # no factor up to sqrt(n): n is prime
        if n % p == 0:
            pe = 1
            while n % p == 0:
                n //= p
                pe *= p
            phi = pe - pe // p
            parts.append((pe, phi, math.gcd(3, phi)))
        p += 1
    cosets = math.prod(g for _, _, g in parts)
    reps: dict = {}
    c = 0
    while len(reps) < cosets:
        if math.gcd(c, m) == 1:
            reps.setdefault(tuple(pow(c, phi // g, pe) for pe, phi, g in parts), c)
        c += 1
    return list(reps.values()), math.prod(phi for _, phi, _ in parts) // cosets


def _orbits(q: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """One r3 per scaling orbit mod q, the orbit sizes, and the mask of each row's primitive r2.

    A unit lambda maps row r3 to row lambda^3 r3 by r2 -> lambda^2 r2
    (substitute u -> lambda u), which keeps the primitive r2, those with
    gcd(r2, gcd(r3, q)) = 1.  The orbits of the r3 with gcd(r3, q) = d are
    the r3 = d v, one v per coset of the unit cubes mod q/d.  Rows run from
    d = q (r3 = 0) down to d = 1.
    """
    r3, size = [], []
    for d in range(q, 0, -1):
        if q % d == 0:
            reps, n = _cube_coset_reps(q // d)
            r3 += [d * v for v in reps]
            size += [n] * len(reps)
    r3 = np.array(r3, dtype=np.int64)
    return r3, size, np.gcd.outer(np.gcd(r3, q), np.arange(q)) == 1


def _primitive_max(q: int, comps) -> list[float]:
    """max |S(q; r2, r3)| over the primitive (r2, r3) mod q, one per (A3, A2) in `comps`.

    The rows of one scaling orbit share their primitive values, so one row
    per orbit (`_orbits`) gives the maximum over all primitive pairs.
    """
    r3, _, primitive = _orbits(q)
    key = np.array([(A3 % q, A2 % q) for A3, A2 in comps], dtype=np.int64).reshape(-1, 2)
    return [float(rows[primitive].max()) for rows in np.abs(_component_rows(q, key, r3))]


def _row_count(p: int, k: int) -> int:
    """Rows of length p^k that `_orbit_term(sys, p, k)` builds: r3 = 0 and one per cube class mod each p^e."""
    return 1 + sum(math.gcd(3, p**e - p ** (e - 1)) for e in range(1, k + 1))


def _orbit_term(sys: DiagonalSystem, p: int, k: int) -> tuple[float, complex]:
    """(A(q), B(q)) at q = p^k from a few rows of T instead of the q x q table.

    T is constant on scaling orbits, so B(q) sums, over one row per orbit
    (`_orbits`), the orbit size times the row's sum over its primitive r2:
    r3 = 0 with the unit r2, then r3 = p^(k-e) v, v a cube class of units
    mod p^e, with the unit r2 when e < k and every r2 at e = k.  A(q) is
    the same sum over |T|.  Each row is a product over the distinct
    (A3 mod q, A2 mod q) components of their `_component_rows`;
    components with both residues 0 contribute the constant q.
    """
    q = p**k
    r3, size, primitive = _orbits(q)
    comps = Counter((A3 % q, A2 % q) for A3, A2 in zip(sys.cubic_coeffs(), sys.quad_coeffs()))
    scale = float(q) ** (comps.pop((0, 0), 0) - sys.s)
    sums = _component_rows(q, np.array(list(comps), dtype=np.int64).reshape(-1, 2), r3)
    rows = np.full((len(r3), q), scale, dtype=complex)
    for factor, n in zip(sums, comps.values()):
        for _ in range(n):
            rows *= factor
    A, B = 0.0, complex(0.0)
    for row, keep, n in zip(rows, primitive, size):
        row = row[keep]
        A += n * np.abs(row).sum()
        B += n * row.sum()
    return float(A), complex(B)


def _prime_part(q: int, spf: list[int]) -> int:
    """p^v_p(q) for the smallest prime p dividing q > 1."""
    p = spf[q]
    pk = p
    while q % (pk * p) == 0:
        pk *= p
    return pk


@dataclass
class LocalFactor:
    Q: int
    value: float  # real part of the height-Q partial series
    imag: float  # residual imaginary part, conjugate symmetry makes it ~0
    A: dict = field(default_factory=dict)  # q -> sum of |T| over primitive r
    B: dict = field(default_factory=dict)  # q -> sum of T  over primitive r
    partials: Optional[np.ndarray] = None  # running sums, index q-1
    rows: int = 0  # orbit rows built: `_row_count(p, k)` of length q at each prime power q = p^k <= Q
    cells: int = 0  # cells in those rows, the estimate checked against the budget


def singular_series(sys: DiagonalSystem, Q: int, budget: int = DEFAULT_LEDGER_BUDGET) -> LocalFactor:
    """Partial singular series through modulus Q, with per-q diagnostics.

    A(1) = B(1) = 1, and terms are built only at prime powers q = p^k, from
    the orbit rows of `_orbit_term`; every other q = p^k m with p not
    dividing m takes A(q) = A(p^k) A(m) and the complex B(q) = B(p^k) B(m).
    The rows' cells are totalled and checked against `budget` up front.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    spf = smallest_prime_factors(Q)
    powers = {}  # q = p^k <= Q -> (p, k)
    for p in (n for n in range(2, Q + 1) if spf[n] == n):
        q, k = p, 1
        while q <= Q:
            powers[q] = (p, k)
            q, k = q * p, k + 1
    rows = {q: _row_count(p, k) for q, (p, k) in powers.items()}
    cells = check_budget(sum(n * q for q, n in rows.items()), budget, what="singular series row cells")
    A: dict = {1: 1.0}
    B: dict = {1: complex(1.0)}
    running = np.empty(Q)
    total = complex(0.0)
    for q in range(1, Q + 1):
        if q in powers:
            A[q], B[q] = _orbit_term(sys, *powers[q])
        elif q > 1:
            pk = _prime_part(q, spf)
            A[q] = A[pk] * A[q // pk]
            B[q] = B[pk] * B[q // pk]
        total += B[q]
        running[q - 1] = total.real
    return LocalFactor(
        Q=Q,
        value=total.real,
        imag=total.imag,
        A=A,
        B={q: b.real for q, b in B.items()},
        partials=running,
        rows=sum(rows.values()),
        cells=cells,
    )


# -- congruence counts ---------------------------------------------------

def _fold_vars(q: int, comps) -> np.ndarray:
    """Ledger over (Phi mod q, Theta mod q), one variable folded at a time.

    int64 until the largest count times q could reach 2^62, then object
    dtype keeps exactness: a fold adds q shifted copies, so no entry
    passes q times the largest.  The values u of a variable are grouped by
    their key shift (A2 u^2, A3 u^3) mod q.  Each shift (d2, d3) adds,
    times its multiplicity, the one slice [q - d2 : 2q - d2, q - d3 : 2q - d3]
    of the ledger tiled 2 x 2: the ledger cyclically shifted by (d2, d3).
    """
    arr = np.zeros((q, q), dtype=np.int64)
    arr[0, 0] = 1
    for A3, A2 in comps:
        if arr.dtype != object and int(arr.max()) * q >= 2**62:
            arr = arr.astype(object)
        shifts = Counter(((A2 * u * u) % q, (A3 * u**3) % q) for u in range(q))
        tiled = np.tile(arr, (2, 2))
        arr = np.zeros_like(arr)
        for (d2, d3), n in shifts.items():
            src = tiled[q - d2 : 2 * q - d2, q - d3 : 2 * q - d3]
            arr += src if n == 1 else n * src
    return arr


def count_congruences(sys: DiagonalSystem, q: int, budget: int = DEFAULT_LEDGER_BUDGET) -> int:
    """Exact M(q): every variable folded into one ledger, read at residue (0, 0)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    check_budget(sys.s * q**3, budget, what="congruence ledger")
    return int(_fold_vars(q, zip(sys.cubic_coeffs(), sys.quad_coeffs()))[0, 0])


@dataclass(frozen=True)
class ChiPartial:
    p: int
    t: int
    series_side: float
    count_side: float
    M: int

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.series_side), abs(self.count_side), 1e-300)
        return abs(self.series_side - self.count_side) / scale


def chi_p_partial(sys: DiagonalSystem, p: int, t: int, budget: int = DEFAULT_LEDGER_BUDGET) -> ChiPartial:
    """Both sides of sum_{h<=t} B(p^h) = p^(-t(s-2)) M(p^t).

    The count's budget check, on s p^(3t), runs first: it bounds the
    p^h `_row_count(p, h)` row cells of the series terms, so no row is
    built past it.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if t < 0:
        raise ValueError("t must be >= 0")
    M = count_congruences(sys, p**t, budget=budget)
    total = complex(1.0)  # h = 0 term
    for h in range(1, t + 1):
        total += _orbit_term(sys, p, h)[1]
    count_side = M / float(p) ** (t * (sys.s - 2))
    return ChiPartial(p, t, total.real, count_side, M)


# -- p-adic witnesses ----------------------------------------------------

@dataclass(frozen=True)
class PadicWitness:
    p: int
    found: bool
    solution: Optional[tuple[int, ...]]
    k: Optional[int]
    minor_valuation: Optional[int]
    w_estimate: int
    t_checked: tuple[int, ...]
    inequality_ok: bool


def _valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def _best_minor_valuation(sys: DiagonalSystem, x, p: int, cap: int) -> int:
    cubic = sys.cubic_coeffs()
    quad = sys.quad_coeffs()
    g3 = [3 * cubic[i] * x[i] * x[i] for i in range(sys.s)]
    g2 = [2 * quad[i] * x[i] for i in range(sys.s)]
    best = cap
    for i in range(sys.s):
        for j in range(i + 1, sys.s):
            minor = g3[i] * g2[j] - g3[j] * g2[i]
            best = min(best, _valuation(minor, p, cap))
            if best == 0:
                return 0
    return best


def _grid_candidates(sys: DiagonalSystem, pk: int, tail) -> list[tuple[int, ...]]:
    """Solutions mod pk with the first two variables swept over a full grid."""
    cubic = sys.cubic_coeffs()
    quad = sys.quad_coeffs()
    t0 = sum(c * int(v) ** 3 for c, v in zip(cubic[2:], tail)) % pk
    f0 = sum(c * int(v) ** 2 for c, v in zip(quad[2:], tail)) % pk
    u = np.arange(pk, dtype=np.int64)
    th1 = (cubic[0] * (u**3 % pk)) % pk
    th2 = (cubic[1] * (u**3 % pk)) % pk
    ph1 = (quad[0] * (u * u % pk)) % pk
    ph2 = (quad[1] * (u * u % pk)) % pk
    theta = (th1[:, None] + th2[None, :] + t0) % pk
    phi = (ph1[:, None] + ph2[None, :] + f0) % pk
    rows, cols = np.nonzero((theta == 0) & (phi == 0))
    return [(int(r), int(c), *map(int, tail)) for r, c in zip(rows, cols)]


# padic_witness search: depths k = 1, 3, ..., 2 * _WITNESS_MAX_DEPTH + 1 with
# p^k <= _WITNESS_MAX_MODULUS, and _WITNESS_TRIES random tails at a depth too
# large to enumerate
_WITNESS_MAX_DEPTH = 2
_WITNESS_MAX_MODULUS = 2000
_WITNESS_TRIES = 40


def padic_witness(
    sys: DiagonalSystem,
    p: int,
    rng: Optional[np.random.Generator] = None,
    budget: int = DEFAULT_LEDGER_BUDGET,
) -> PadicWitness:
    """Search for a solution mod p^k whose Jacobian minors allow lifting.

    A solution mod p^k with some 2x2 minor of the (Theta, Phi) Jacobian of
    p-adic valuation v qualifies when k >= 2v + 1.  Depths k = 1, 3, 5, ...
    with p^k <= 2000 are tried in turn; mod 2 the Phi row vanishes
    identically, so p = 2 genuinely needs k >= 3.  Alongside, M(p^t) is computed exactly for the
    t with p^t <= 150 (or t = 1) whose s p^(3t) is within `budget`, and
    the growth floor M(p^t) >= p^((t-w)(s-2)) pins the smallest workable w.
    Past p = 2000 no depth can be tried, so any such p raises ValueError,
    at any budget, before M(p) is computed.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    rng = rng if rng is not None else np.random.default_rng(p)
    if sys.s < 2:
        raise ValueError("need at least two variables")
    if p > _WITNESS_MAX_MODULUS:
        raise ValueError(
            f"p = {p} is past the witness search's modulus cap {_WITNESS_MAX_MODULUS}: no depth can be tried"
        )
    found = None
    for v_target in range(_WITNESS_MAX_DEPTH + 1):
        k = 2 * v_target + 1
        pk = p**k
        if pk > _WITNESS_MAX_MODULUS:
            break
        if pk ** (sys.s - 2) <= 10_000:
            tails = product(range(pk), repeat=sys.s - 2)
        else:
            tails = (rng.integers(0, pk, size=sys.s - 2) for _ in range(_WITNESS_TRIES))
        for tail in tails:
            for x in _grid_candidates(sys, pk, tail):
                v = _best_minor_valuation(sys, x, p, cap=k)
                if 2 * v < k:
                    found = (x, k, v)
                    break
            if found:
                break
        if found:
            break
    # exact M(p^t) for the t within budget; p^t <= 150 keeps folds cheap
    t_max = 1
    while p ** (t_max + 1) <= 150:
        t_max += 1
    Ms = {t: count_congruences(sys, p**t, budget) for t in range(1, t_max + 1) if sys.s * p ** (3 * t) <= budget}
    w = 0
    while True:
        ok = all(M >= p ** ((t - w) * (sys.s - 2)) for t, M in Ms.items() if t >= w)
        if ok or w > max(Ms, default=0) + 1:
            break
        w += 1
    if found:
        x, k, v = found
        return PadicWitness(p, True, tuple(x), k, v, w, tuple(sorted(Ms)), ok)
    return PadicWitness(p, False, None, None, None, w, tuple(sorted(Ms)), ok)
