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
before it forms any.  A convolution cuts the key axis of its outer sum into
bands of at most _CHUNK_PAIRS pairs (one key, if that key alone holds more),
found by bisection on the exact pair count below a key, and reduces each
band once.  No key falls in two bands, so the reduced bands concatenate in
key order and nothing merges.  A square (a ledger convolved with itself)
takes only the pairs i <= j and weights i < j by 2.  A band of int64 keys is
sorted as packed words (key - min) << b | count, with b the bit length of
the band's largest count, whenever (span + 1) << b < 2^63: one in-place sort
replaces an argsort and two gathers.  Object bands, and int64 bands whose
word would not fit, take the argsort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget

_INT64_LIMIT = 2**62
# Pairs per band of a convolution or per chunk of the solver's pair sum: 16 MiB
# per int64 temporary.  Over the ops of perfbench's exact-ledgers workload,
# 2^20 and 2^22 pairs ran no faster than 2^21 (0.66-0.68 s a pass each) but
# peaked at 119 and 163 MB against 107 MB.
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
        """Ledger of the sums of one generator tuple from each side, in bands.

        First the key pairs (n(n + 1) / 2 for a square) are checked against
        `budget`.  The shorter side gives the rows.  Row i's columns below a
        key K end at searchsorted(b, K - a_i), clamped to j >= i in a square,
        so a band [K0, K1) has an exact pair count to bisect K1 on.  Each band
        starts at the smallest key no row has used and is formed row by row.
        """
        square = other is self
        a, b = (other, self) if len(self.keys) > len(other.keys) else (self, other)
        n = len(b.keys)
        check_budget(n * (n + 1) // 2 if square else len(a.keys) * n, budget, what="ledger key pairs")
        start = np.arange(n) if square else np.zeros(len(a.keys), dtype=np.intp)
        top = int(a.keys[-1]) + int(b.keys[-1]) + 1

        def ends(K):
            return np.maximum(np.searchsorted(b.keys, K - a.keys), start)

        bands = []
        while (rows := np.flatnonzero(start < n)).size:
            used = int(start.sum())
            # K1 in [K0 + 1, top]: the whole rest when it fits, else bisected
            lo, hi = int((a.keys[rows] + b.keys[start[rows]]).min()) + 1, top
            if len(a.keys) * n - used <= _CHUNK_PAIRS:
                lo = top
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if int(ends(mid).sum()) - used <= _CHUNK_PAIRS:
                    lo = mid
                else:
                    hi = mid - 1
            end = ends(lo)
            keys = np.empty(int(end.sum()) - used, dtype=a.keys.dtype)
            counts = np.empty(len(keys), dtype=a.counts.dtype)
            at = 0
            for i in np.flatnonzero(end > start).tolist():
                j, k = int(start[i]), int(end[i])
                np.add(a.keys[i], b.keys[j:k], out=keys[at : at + k - j])
                np.multiply(a.counts[i] * (1 + square), b.counts[j:k], out=counts[at : at + k - j])
                if square and j == i:
                    counts[at] = a.counts[i] * a.counts[i]
                at += k - j
            bands.append(_reduce(keys, counts))
            start = end
        keys, counts = zip(*bands)
        return Ledger(np.concatenate(keys), np.concatenate(counts), self.strides)

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
