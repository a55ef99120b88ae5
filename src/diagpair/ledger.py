"""Exact multiplicity ledgers over packed integer keys.

A ledger maps integer form-value vectors to the number of generator tuples
that produce them.  `Ledger.fold` builds it from parts (n, vectors, e), each
the sum of e of the n generators `vectors` yields, packed in balanced signed
form: key = sum_j v_j S_j with S_0 = 1 and S_{j+1} = S_j (2 B_j + 1), where
B_j = sum over the parts of e max |v_j| bounds |v_j| over the whole fold.
Within those bounds packing is a bijection that commutes with addition and
negation, so folding generators is an outer sum of keys and a negated match
is a lookup of -key.  A lookup gathers from a dense count table over the
ledger's key span when that span is no larger than the query, and
binary-searches the sorted keys otherwise.

Keys and counts are int64 while the key span and the fold's tuple count
prod n^e stay below 2^62; past that both are Python ints in object arrays
(`dtype_for`).  Every count a ledger returns is an exact Python int.

The fold checks the work its generator counts bound before it reads a
generator (`check_fold`), and each convolution checks its own key pairs
before it forms any, then reduces its outer sum chunk by chunk.  A chunk of
int64 keys is sorted as packed words (key - min) << b | count, with b the
bit length of the chunk's largest count, whenever (span + 1) << b < 2^63:
one in-place sort replaces an argsort and two gathers.  Object chunks, and int64 chunks whose
word would not fit, take the argsort.  A square (a ledger convolved with
itself) takes only the pairs i <= j and weights i < j by 2.  Reduced chunks
go onto a stack of sorted runs that merges like a binary counter, so each
key takes part in O(log chunks) merges; a merge binary-searches the shorter
run in the longer one and never sorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget

_INT64_LIMIT = 2**62
# Pairs per chunk of an outer sum or a pair sum: 16 MiB per int64 temporary.
# Over the ops of perfbench's exact-ledgers workload, 2^22-pair chunks ran
# ~10% faster but peaked at 192 MB against 123 MB (2^20: slower, 133 MB).
_CHUNK_PAIRS = 2**21


def _reduce(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys and add up the counts of equal keys.

    Counts must be nonnegative.  The packed route sorts in the buffers of
    its arguments, so callers pass arrays they no longer need.
    """
    lo = keys.min()
    bits = int(counts.max()).bit_length()
    if keys.dtype != object and (int(keys.max()) - int(lo) + 1) << bits < 2**63:
        keys -= lo
        keys <<= bits
        keys |= counts
        keys.sort()
        np.bitwise_and(keys, (1 << bits) - 1, out=counts)
        keys >>= bits
        keys += lo
    else:
        order = np.argsort(keys)
        keys = keys[order]
        counts = counts[order]
        del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


def _merge(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Merge two runs of sorted unique keys, adding the counts of shared keys.

    The shorter run is binary-searched in the longer one.  Shared keys add
    their counts into the longer run in place; the shorter run's other keys
    go to their merged positions (np.insert's rule, applied once to keys and
    counts alike) and the longer run fills the rest.
    """
    if len(a[0]) < len(b[0]):
        a, b = b, a
    (ak, ac), (bk, bc) = a, b
    pos = np.searchsorted(ak, bk)
    shared = ak[np.minimum(pos, len(ak) - 1)] == bk
    ac[pos[shared]] += bc[shared]
    new = np.flatnonzero(~shared)
    at = pos[new] + np.arange(len(new))
    old = np.ones(len(ak) + len(new), dtype=bool)
    old[at] = False
    keys = np.empty(len(old), dtype=ak.dtype)
    counts = np.empty(len(old), dtype=ac.dtype)
    keys[at], keys[old] = bk[new], ak
    counts[at], counts[old] = bc[new], ac
    return keys, counts


def dtype_for(*sizes: int):
    """int64 while every size (a key span, a number of tuples) stays below 2^62, else object."""
    return object if max(sizes) >= _INT64_LIMIT else np.int64


def exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum(a * b) as an exact Python int, for nonnegative counts."""
    if a.dtype == object or b.dtype == object or (
        len(a) and int(a.sum()) * int(b.max()) >= _INT64_LIMIT
    ):
        return int(np.dot(a.astype(object), b.astype(object)))
    return int(np.dot(a, b))


def form_values(values, terms):
    """The vector (c v^e for (c, e) in terms) of each v in values, lazily."""
    for v in values:
        yield tuple(c * v**e for c, e in terms)


def check_fold(parts, budget: int) -> None:
    """Refuse the fold of parts (n, vectors, e) before any generator is read.

    Checks each part's n generators (`ledger generators`) and the key pairs
    that the counts alone bound (`ledger key pairs`): n(n + 1) / 2 for the
    first square of a part with e >= 2, and n_0 n_1 when the fold opens
    with two parts of e = 1.  Both are exact when no two generators of a
    part share a key.
    """
    for n, _, _ in parts:
        check_budget(n, budget, what="ledger generators")
    pairs = [n * (n + 1) // 2 for n, _, e in parts if e >= 2]
    if len(parts) > 1 and parts[0][2] == parts[1][2] == 1:
        pairs.append(parts[0][0] * parts[1][0])
    check_budget(max(pairs, default=0), budget, what="ledger key pairs")


@dataclass(frozen=True, eq=False)
class Ledger:
    """Sorted unique packed keys with their exact multiplicities."""

    keys: np.ndarray
    counts: np.ndarray
    strides: tuple[int, ...]

    @classmethod
    def fold(cls, parts, budget: int) -> "Ledger":
        """Ledger of the sums of e generators from each part (n, vectors, e).

        Takes a list of at least one part, with e >= 1; `vectors` yields n
        vectors of one common length and is read only after `check_fold`.
        Bounds, strides and dtype come from the parts (module docstring).
        Each part's generators are raised to the power e by binary splitting
        and the powers are convolved in order.
        """
        if any(e < 1 for _, _, e in parts):
            raise ValueError("fold needs e >= 1 in every part")
        check_fold(parts, budget)
        built = [(list(vectors), e) for _, vectors, e in parts]
        if [len(vectors) for vectors, _ in built] != [n for n, _, _ in parts]:
            raise ValueError("a part yielded other than its n generators")
        bounds = [sum(e * max(abs(v[j]) for v in vectors) for vectors, e in built) for j in range(len(built[0][0][0]))]
        strides = [1]
        for B in bounds:
            strides.append(strides[-1] * (2 * B + 1))
        dtype = dtype_for(strides[-1], math.prod(n**e for n, _, e in parts))
        out = None
        for vectors, e in built:
            keys = np.array([sum(v * S for v, S in zip(vec, strides)) for vec in vectors], dtype=dtype)
            power = cls(*_reduce(keys, np.ones(len(keys), dtype=dtype)), tuple(strides[:-1]))._power(e, budget)
            out = power if out is None else out._convolve(power, budget)
        return out

    def _convolve(self, other: "Ledger", budget: int) -> "Ledger":
        """Ledger of the sums of one generator tuple from each side.

        First the key pairs (n(n + 1) / 2 for a square) are checked against
        `budget`.  The outer sum is reduced in chunks of at most _CHUNK_PAIRS
        pairs (one row of self at least).  Reduced chunks are pushed onto a
        stack of runs, and the top two merge while the top one covers no more
        chunks than the one below it, as in a binary counter.  Memory stays
        near one chunk plus the runs, and merge work is O(N log chunks).
        """
        n = len(other.keys)
        check_budget(n * (n + 1) // 2 if other is self else len(self.keys) * n, budget, what="ledger key pairs")
        runs: list[tuple[np.ndarray, np.ndarray, int]] = []
        for k, c in self._reduced_chunks(other):
            covers = 1
            while runs and runs[-1][2] <= covers:
                pk, pc, pcovers = runs.pop()
                k, c = _merge((pk, pc), (k, c))
                covers += pcovers
            runs.append((k, c, covers))
        k, c, _ = runs.pop()
        while runs:
            k, c = _merge(runs.pop()[:2], (k, c))
        return Ledger(k, c, self.strides)

    def _reduced_chunks(self, other: "Ledger"):
        """The outer sum of self and other, one reduced chunk of rows at a time.

        A square (other is self) takes row r over the columns j >= r only,
        so each chunk's rows are sized by the columns that remain.
        """
        n, square = len(other.keys), other is self
        i = 0
        while i < len(self.keys):
            rows = min(max(1, _CHUNK_PAIRS // (n - i if square else n)), len(self.keys) - i)
            if square:
                yield _reduce(*self._upper_rows(i, rows))
            else:
                yield _reduce(
                    (self.keys[i : i + rows, None] + other.keys).ravel(),
                    (self.counts[i : i + rows, None] * other.counts).ravel(),
                )
            i += rows

    def _upper_rows(self, i: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and counts of the pairs (r, j), j >= r, i <= r < i + rows, of self with itself.

        A pair with r < j stands for both (r, j) and (j, r), so its count
        product is doubled.
        """
        n = len(self.keys)
        size = rows * (n - i) - rows * (rows - 1) // 2
        keys = np.empty(size, dtype=self.keys.dtype)
        counts = np.empty(size, dtype=self.counts.dtype)
        at = 0
        for r in range(i, i + rows):
            end = at + n - r
            np.add(self.keys[r], self.keys[r:], out=keys[at:end])
            np.multiply(2 * self.counts[r], self.counts[r:], out=counts[at:end])
            counts[at] = self.counts[r] * self.counts[r]
            at = end
        return keys, counts

    def _power(self, e: int, budget: int) -> "Ledger":
        """e-fold self-convolution by binary splitting."""
        if e == 1:
            return self
        half = self._power(e // 2, budget)
        out = half._convolve(half, budget)
        return out._convolve(self, budget) if e % 2 else out

    def sum_of_squares(self) -> int:
        """Number of pairs of tuples with equal keys."""
        return exact_dot(self.counts, self.counts)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Counts at the given keys, 0 where a key is absent.

        When both sides are int64 and the key span keys[-1] - keys[0] + 1 is
        no larger than the query, the counts are gathered from a dense table
        over the span, padded with one zero cell at each end so that clipping
        a query key into [lo - 1, hi + 1] sends every key outside the span to
        a zero.  Clipping comes before the subtraction, so no query key near
        the int64 edge can wrap.  Otherwise each key is found by binary
        search.  The table costs no more memory or time than the query.
        """
        keys = np.asarray(keys)
        lo, hi = int(self.keys[0]), int(self.keys[-1])
        if self.keys.dtype != object and keys.dtype != object and hi - lo + 1 <= keys.size:
            table = np.zeros(hi - lo + 3, dtype=self.counts.dtype)
            table[self.keys - (lo - 1)] = self.counts
            return table[np.clip(keys, lo - 1, hi + 1) - (lo - 1)]
        idx = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[idx] == keys, self.counts[idx], 0)

    def fields(self) -> list[np.ndarray]:
        """Unpack the keys into one value array per field, lowest stride first."""
        out, rest = [], self.keys
        for lo, hi in zip(self.strides, self.strides[1:]):
            width = hi // lo
            v = (rest + width // 2) % width - width // 2
            out.append(v)
            rest = (rest - v) // width
        out.append(rest)
        return out

    def matched_negated(self) -> int:
        """Number of pairs of tuples whose keys sum to zero."""
        return exact_dot(self.counts, self.lookup(-self.keys))
