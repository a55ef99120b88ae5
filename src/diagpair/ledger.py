"""Exact multiplicity ledgers over packed integer keys.

A ledger maps integer form-value vectors to the number of generator tuples
that produce them.  Vectors are packed in balanced signed form,
key = sum_j v_j S_j with S_0 = 1 and S_{j+1} = S_j (2 B_j + 1), where B_j
bounds |v_j| over the whole fold.  Within those bounds packing is a bijection
that commutes with addition and negation, so folding generators is an outer
sum of keys and a negated match is a lookup of -key.  A lookup gathers from
a dense count table over the ledger's key span when that span is no larger
than the query, and binary-searches the sorted keys otherwise.

Keys and counts are int64 while the key span and the fold's total mass stay
below 2^62; past that both are Python ints in object arrays.  Every count a
ledger returns is an exact Python int.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INT64_LIMIT = 2**62
# Pairs per chunk of an outer sum or a pair sum: 16 MiB per int64 temporary.
# Over the moment folds and box counts of perfbench's exact-ledgers workload,
# 2^22-pair chunks ran ~10% faster but peaked at 251 MB against 207 MB.
_CHUNK_PAIRS = 2**21


def _reduce(keys: np.ndarray, counts: np.ndarray, kind=None) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys and add up the counts of equal keys."""
    order = np.argsort(keys, kind=kind)
    keys = keys[order]
    counts = counts[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


def exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum(a * b) as an exact Python int, for nonnegative counts."""
    if a.dtype == object or b.dtype == object or (
        len(a) and int(a.sum()) * int(b.max()) >= _INT64_LIMIT
    ):
        return int(np.dot(a.astype(object), b.astype(object)))
    return int(np.dot(a, b))


@dataclass(frozen=True, eq=False)
class Ledger:
    """Sorted unique packed keys with their exact multiplicities."""

    keys: np.ndarray
    counts: np.ndarray
    strides: tuple[int, ...]

    @classmethod
    def from_vectors(cls, vectors, bounds, mass: int) -> "Ledger":
        """Ledger of one generator per vector.

        `bounds[j]` bounds |field j| and `mass` the number of tuples over the
        whole fold this ledger enters; ledgers convolved together must be
        built with the same bounds and mass.
        """
        strides = [1]
        for B in bounds:
            strides.append(strides[-1] * (2 * B + 1))
        dtype = object if max(strides[-1], mass) >= _INT64_LIMIT else np.int64
        keys = np.array([sum(v * S for v, S in zip(vec, strides)) for vec in vectors], dtype=dtype)
        return cls(*_reduce(keys, np.ones(len(keys), dtype=dtype)), tuple(strides[:-1]))

    def convolve(self, other: "Ledger") -> "Ledger":
        """Ledger of the sums of one generator tuple from each side."""
        if self.strides != other.strides:
            raise ValueError("ledgers are packed differently")
        # Chunks of the outer sum are reduced and merged one at a time, so
        # memory stays near one chunk plus the result.  A stable sort of two
        # concatenated sorted runs is a linear merge.
        rows = max(1, _CHUNK_PAIRS // len(other.keys))
        keys, counts = self.keys[:0], self.counts[:0]
        for i in range(0, len(self.keys), rows):
            k, c = _reduce(
                (self.keys[i : i + rows, None] + other.keys).ravel(),
                (self.counts[i : i + rows, None] * other.counts).ravel(),
            )
            keys, counts = _reduce(np.concatenate((keys, k)), np.concatenate((counts, c)), "stable")
        return Ledger(keys, counts, self.strides)

    def power(self, e: int) -> "Ledger":
        """e-fold self-convolution by binary splitting."""
        if e < 1:
            raise ValueError("power needs e >= 1")
        if e == 1:
            return self
        half = self.power(e // 2)
        out = half.convolve(half)
        return out.convolve(self) if e % 2 else out

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

    def matched_negated(self, other: "Ledger") -> int:
        """Number of pairs (one tuple from each side) whose keys sum to zero."""
        if self.strides != other.strides:
            raise ValueError("ledgers are packed differently")
        return exact_dot(self.counts, other.lookup(-self.keys))
