"""Exact multiplicity ledgers over packed integer keys.

A ledger maps integer form-value vectors to the number of generator tuples
that produce them.  `Ledger.fold` builds it from parts (n, vectors, e), each
the sum of e of the n generators `vectors` yields, packed in balanced signed
form: key = sum_j v_j S_j with S_0 = 1 and S_{j+1} = S_j (2 B_j + 1), where
B_j = sum over the parts of e max |v_j| bounds |v_j| over the whole fold.
Within those bounds packing is a bijection that commutes with addition and
negation, so folding generators is an outer sum of keys.  Tuples are
paired by equal keys (`Ledger.fold_sum_of_squares`, below) or, in
`moments.moment_T_shifted`, by keys within a window; the solver alone
looks up negated keys (`solver._negated_weights`).

Keys and counts are int64 while the key span and the fold's tuple count
prod n^e stay below 2^62; past that both are Python ints in object arrays
(`dtype_for`).  Every count a ledger returns is an exact Python int.

A part's power e, over its n distinct generator keys g_i with counts c_i,
ends in whichever top step forms fewer key pairs (`Ledger._power`): binary
splitting, the square of the half power c_h (C(|c_h| + 1, 2) pairs) or for
odd e the product of c_(e-1) with the generators (|c_(e-1)| n pairs), or
the multiset step, which forms each nondecreasing index tuple
i_1 <= ... <= i_e once (C(n + e - 1, e) pairs), weighted
e! / prod m_i! * prod c_i^m_i with m_i the times i occurs.  The lower power
is built first to decide, and a square is a multiset step.  Generators
with few collisions take the multiset step, about one pair per key of the
power against C(2k, k) / 2 for the square at e = 2k; colliding ones, as in
`moment_I`, take binary splitting.  The multiset step grows the tuples
one index at a time (`_with_diagonal`), in exact integers no larger than
the weights they end at, so `dtype_for`'s rule holds for it too.

The fold checks the work its generator counts bound before it reads a
generator (`check_fold`), and each step checks its own key pairs before it
forms any.  A step sums sorted runs of keys (`_sum_runs`): a product shifts
one side's keys by each key of the other, and a multiset step shifts
groups of tuples by generators.  It cuts the key axis into bands of at
most _CHUNK_PAIRS pairs (one key, if that key alone holds more), found by
interpolation on the exact pair count below a key, and reduces each band
once.  No key falls in two bands, so the reduced bands append in key order
and nothing merges.  A band of int64 keys is filled straight into one
buffer of packed words (key - K0) << b | count (`_band`): K0 is its lowest
key and b the bit length of a bound on its counts, the step's largest
weight times the band's largest multiplier.  Both K0 and the band's
greatest key come from its runs, each sorted, and not from the spans
that consecutive runs merge into, which may cross groups.  When
(span + 1) << b < 2^63 the words are sorted in place and contracted
(`_reduce_words`); object bands, and int64 bands whose word would not
fit, are filled as keys and weights and take `_reduce`, which packs by
the counts themselves into the same `_reduce_words` or takes the argsort.
A reduction whose keys are all distinct hands back its own buffers, and a
multiset step sorts its groups in the buffers of its tuples
(`_sort_groups`).

The moments read most ledgers only through the sum of their squared
counts, the number of pairs of tuples with equal keys; a count of keys
that sum to zero over generators closed under negation is that sum too.
`Ledger.fold_sum_of_squares` runs the same fold, with the same checks,
but its last step adds up each band's sum of squares and drops the band.
That sum over disjoint bands is the sum over the whole ledger, so the
top ledger is never built.  A packed band is never unpacked either: it
is read in slices that end between keys (`_square_sum_of_words`).  The
top step holds the level below it, one band's words and one slice's
temporaries: moment_T(4, 80) peaks there at 13.1 MiB under tracemalloc
(21.4 MiB with band-sized temporaries), and moment_T(6, 40) below it, at
68.3 MiB in its multiset step's `_sort_groups`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget

_INT64_LIMIT = 2**62
# Pairs per band of a ledger step or per chunk of the solver's pair sum: 8 MiB
# per int64 temporary.  perfbench's exact-ledgers workload peaks in the banded
# top step of moment_T(4, 80), 1837620 multisets summed as squares in packed
# words.  With bands of 2^19, 2^20 and 2^21 pairs the workload peaked at 43.6,
# 46.0 and 52.2 MB, and its median passes took 0.27, 0.23 and 0.22 s
# (perfbench/run.py --seconds 8, two runs each, 2-vCPU Xeon).
_CHUNK_PAIRS = 2**20


def _reduce(keys: np.ndarray, counts: np.ndarray, squares: bool = False):
    """Sort keys and add up the counts of equal keys: (keys, counts), or with `squares` sum counts^2.

    Counts must be nonnegative.  Keys that pack with their counts into
    int64 words take `_reduce_words` in the buffers of the arguments, so
    callers pass arrays they no longer need; the rest take the argsort.
    """
    lo = int(keys.min())
    bits = int(counts.max()).bit_length()
    if keys.dtype != object and (int(keys.max()) - lo + 1) << bits < 2**63:
        keys -= lo
        keys <<= bits
        keys |= counts
        return _reduce_words(keys, lo, bits, squares, counts)
    order = np.argsort(keys)
    keys = keys[order]
    counts = counts[order]
    del order
    keys, counts = _add_equal(keys, counts)
    return exact_dot(counts, counts) if squares else (keys, counts)


def _reduce_words(words, low: int, bits: int, squares: bool, counts=None):
    """`_reduce` of the packed words (key - low) << bits | count, sorted in place.

    With `squares` the sum of squared counts per key (`_square_sum_of_words`);
    otherwise (keys, counts), the keys in the words' buffer and the counts
    in `counts` when given.
    """
    words.sort()
    if squares:
        return _square_sum_of_words(words, bits)
    counts = np.bitwise_and(words, (1 << bits) - 1, out=counts)
    words >>= bits
    words += low
    return _add_equal(words, counts)


def _add_equal(keys, counts) -> tuple:
    """Add up the counts of equal sorted keys: (keys, counts).

    When every key is distinct the arguments come back as they are.
    """
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    if new.all():
        return keys, counts
    counts = np.add.reduceat(counts, np.flatnonzero(new))  # frees the run-start index before the key gather
    return keys[new], counts


def _fill(keys, weights, spans) -> tuple[np.ndarray, np.ndarray]:
    """Keys and weights of the spans (i, u, offset, mult), one after another.

    A span shifts keys[i:u] by offset and multiplies weights[i:u] by mult.
    """
    i, u, offset, mult = spans
    out_keys = np.empty(int((u - i).sum()), dtype=keys.dtype)
    out_weights = np.empty(len(out_keys), dtype=weights.dtype)
    at = 0
    for i, u, offset, mult in zip(i.tolist(), u.tolist(), offset.tolist(), mult.tolist()):
        np.add(keys[i:u], offset, out=out_keys[at : at + u - i])
        np.multiply(weights[i:u], mult, out=out_weights[at : at + u - i])
        at += u - i
    return out_keys, out_weights


def _fill_words(keys, weights, spans, low: int, bits: int) -> np.ndarray:
    """The spans of `_fill` as packed words (key - low) << bits | weight, in one buffer."""
    i, u, offset, mult = spans
    words = np.empty(int((u - i).sum()), dtype=np.int64)
    at = 0
    for i, u, offset, mult in zip(i.tolist(), u.tolist(), offset.tolist(), mult.tolist()):
        part = words[at : at + u - i]
        np.add(keys[i:u], offset - low, out=part)
        part <<= bits
        part |= weights[i:u] * mult
        at += u - i
    return words


def _square_sum_of_words(words, bits: int) -> int:
    """Sum of the squared counts of sorted packed words key << bits | count, per key.

    Adjacent words share a key when they differ only in the count bits.
    The words are cut into slices of about a sixteenth of a band, each
    ended after the last word of a key, so no key spans two slices and
    every temporary is slice-sized.  A slice's counts are masked in place
    and their squares summed; each run of equal keys then has the square of
    its total put in place of the squares of its words.
    """
    mask = (1 << bits) - 1
    step = max(_CHUNK_PAIRS // 16, 1)
    total = 0
    for part in np.split(words, np.searchsorted(words, words[step - 1 :: step] | mask, side="right")):
        same = np.flatnonzero((part[1:] ^ part[:-1]) <= mask)  # words j and j + 1 share a key
        part &= mask
        total += exact_dot(part, part)
        if same.size:
            # a run of equal keys is a stretch of consecutive j in `same`, with
            # the word after its last j
            opens = np.concatenate(([0], np.flatnonzero(np.diff(same) != 1) + 1))
            heads = part[same]
            tails = part[same[np.append(opens[1:], len(same)) - 1] + 1]
            runs = np.add.reduceat(heads, opens) + tails
            total += exact_dot(runs, runs) - exact_dot(heads, heads) - exact_dot(tails, tails)
    return total


def _band(keys, weights, spans, low: int, high: int, bound: int, squares: bool):
    """One band of a step reduced: its (keys, counts), or with `squares` its sum of squared counts.

    The band is the spans (i, u, offset, mult) of `_fill`; its keys lie in
    [low, high] and its filled weights are at most `bound`.  An int64 band
    whose words (key - low) << b | weight, with b the bit length of bound,
    stay below 2^63 is filled as words (`_reduce_words`); object bands and
    wider words take `_fill` and `_reduce`.
    """
    bits = bound.bit_length()
    if keys.dtype == object or (high - low + 1) << bits >= 2**63:
        return _reduce(*_fill(keys, weights, spans), squares)
    return _reduce_words(_fill_words(keys, weights, spans, low, bits), low, bits, squares)


def _sum_runs(keys, weights, starts, runs, squares: bool = False):
    """Reduced keys and counts of the runs (i, u, group, offset, mult), in disjoint key bands.

    A run shifts keys[i:u] by offset and multiplies weights[i:u] by mult
    (`_fill`).  It lies in one group keys[starts[l]:starts[l + 1]], which is
    sorted, so the run is sorted too, and its keys below a cut K end at a
    searchsorted of K - offset in the group: one searchsorted over the
    `_flat` keys finds the end of every run.  A band starts at the smallest
    key no run has used and ends at a cut found by interpolation on the
    exact pair count below it: at most _CHUNK_PAIRS pairs, at least half as
    many unless the next key would pass that, and all of one key's pairs if
    that key alone holds more.  Each band is reduced once (`_band`) and
    appended in place; with `squares` its sum of squared counts is added
    instead and the band dropped, which is exact because no key falls in
    two bands, and the result is a `SquareSum`.  Consecutive runs that meet
    in `keys` with the same offset and mult fill one span.
    """
    lo, hi, group, offset, mult = runs
    top = int(keys.max()) + int(offset.max()) + 1
    total = int(hi.sum())
    formed, bands, sum_sq = total - int(lo.sum()), 0, 0

    def cutter():
        # ends(K) and the pairs below K
        flat, low, width = _flat(keys, starts)
        base, shift = group.astype(flat.dtype) * width, offset + low

        def ends(K):
            return np.clip(np.searchsorted(flat, np.clip(K - shift, 0, width - 1).astype(flat.dtype) + base), lo, hi)

        return ends, lambda K: int(ends(K).sum())

    start, cuts, out = lo, None, None
    heaviest = int(weights.max())
    while (live := np.flatnonzero(start < hi)).size:
        # the band's lowest key K0: each run is sorted, so its first unused key is its least
        low = int((keys[start[live]] + offset[live]).min())
        used = int(start.sum())
        if total - used <= _CHUNK_PAIRS:
            end = hi
        else:
            # a cut K1 in [K0 + 1, top) below which the band holds half to all
            # of _CHUNK_PAIRS pairs, or K0 + 1 when key K0 alone holds more:
            # interpolate toward three quarters of a band, and bisect after
            # each interpolation that does not land
            ends, below = cuts = cuts or cutter()
            cut = low + 1
            pairs, ceiling, over = below(cut) - used, top, total - used
            step = 0
            while pairs < _CHUNK_PAIRS // 2 and ceiling - cut > 1:
                if step % 2:
                    mid = (cut + ceiling) // 2
                else:
                    mid = cut + (ceiling - cut) * (3 * _CHUNK_PAIRS // 4 - pairs) // (over - pairs)
                mid = min(max(mid, cut + 1), ceiling - 1)
                step += 1
                if (inside := below(mid) - used) <= _CHUNK_PAIRS:
                    cut, pairs = mid, inside
                else:
                    ceiling, over = mid, inside
            end = ends(cut)
        live = np.flatnonzero(end > start)
        i, u, shifts, mults = start[live], end[live], offset[live], mult[live]
        apart = (i[1:] != u[:-1]) | (shifts[1:] != shifts[:-1]) | (mults[1:] != mults[:-1])
        first = np.concatenate(([0], np.flatnonzero(apart) + 1))
        last = np.concatenate((first[1:], [len(live)])) - 1
        # a merged span may cross groups, so the band's greatest key comes from its runs
        high = int((keys[u - 1] + shifts).max())
        band = _band(keys, weights, (i[first], u[last], shifts[first], mults[first]), low, high,
                     heaviest * int(mults.max()), squares)
        bands += 1
        if squares:
            sum_sq += band
        elif out is None:
            out = band
        else:
            # append in place: a realloc that can grow the buffer without copying it
            for whole, part in zip(out, band):
                whole.resize(len(whole) + len(part), refcheck=False)
                whole[len(whole) - len(part) :] = part
        start = end
    return SquareSum(sum_sq, formed, bands) if squares else out


def _with_diagonal(keys, weights, repeats, starts, g, c, t):
    """The tuples of length t - 1, then each with its last index l once more.

    Group l is keys[starts[l]:starts[l + 1]]; a tuple that holds l m times
    (`repeats`) comes to hold it m + 1 times, and its weight is multiplied
    by t c_l / (m + 1), applied as // ((m + 1) / d) * (t / d) with
    d = gcd(t, m + 1): exact, as the weight's multinomial factor holds
    (m + 1) / d, and no step passes the weight it ends at.  Both halves are
    written into one preallocated pair, with one temporary at a time: m < t,
    so the two factors are looked up in tables indexed by m.
    """
    size, lengths = len(keys), np.diff(starts)
    out_keys = np.empty(2 * size, dtype=keys.dtype)
    out_weights = np.empty(2 * size, dtype=weights.dtype)
    out_keys[:size] = keys
    out_weights[:size] = weights
    np.add(keys, np.repeat(g, lengths), out=out_keys[size:])
    held = np.arange(1, t + 1)
    div = np.gcd(held, t)
    diagonal = out_weights[size:]
    np.floor_divide(weights, (held // div)[repeats], out=diagonal)
    diagonal *= (t // div)[repeats]
    diagonal *= np.repeat(c, lengths)
    return out_keys, out_weights


def _flat(keys, starts, in_place: bool = False):
    """(flat, low, width): keys - low, with group l shifted up by l * width.

    Group l is keys[starts[l]:starts[l + 1]], and width, the key span plus
    2, leaves every group a key to spare below the next, so the flat keys
    are sorted wherever each group is.  With `in_place` they are written
    over `keys` when its dtype holds them.
    """
    low = int(keys.min())
    width = int(keys.max()) - low + 2
    groups = len(starts) - 1
    dtype = object if keys.dtype == object else dtype_for(groups * width)
    flat = keys if in_place and keys.dtype == dtype else keys.astype(dtype)
    flat -= low
    for l, (i, u) in enumerate(zip(starts[1:-1].tolist(), starts[2:].tolist()), 1):
        flat[i:u] += l * width
    return flat, low, width


def _sort_groups(keys, weights, starts):
    """Sort each group by key, adding up equal keys of a group: keys, weights, group starts.

    Sorts in the buffers of keys and weights, which the caller no longer needs.
    """
    dtype = keys.dtype
    flat, low, width = _flat(keys, starts, in_place=True)
    flat, weights = _reduce(flat, weights)
    # group l starts at the first flat key of at least l * width
    starts = np.searchsorted(flat, np.arange(len(starts), dtype=flat.dtype) * width)
    flat %= width
    flat += low
    return flat.astype(dtype, copy=False), weights, starts


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


@dataclass(frozen=True)
class SquareSum:
    """Sum of the squared counts of a fold's top ledger, with the key pairs and bands of its top step."""

    value: int
    pairs: int
    bands: int


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
        Each part's generators are raised to the power e (`_power`) and the
        powers are convolved in order.
        """
        return cls._fold(parts, budget, False)

    @classmethod
    def fold_sum_of_squares(cls, parts, budget: int) -> SquareSum:
        """The number of pairs of tuples with equal keys in `fold(parts, budget)`.

        The same fold with the same budget checks, but its top step adds up
        each band's squared counts and drops the band, so the top ledger is
        never built.  A fold of one part with e = 1 has no step: its sum
        comes from the reduced generators, with no pairs and no bands.
        """
        return cls._fold(parts, budget, True)

    @classmethod
    def _fold(cls, parts, budget: int, squares: bool):
        """`fold`, with `squares` passed to its last step only."""
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
        for at, (vectors, e) in enumerate(built):
            last = squares and at == len(built) - 1
            keys = np.array([sum(v * S for v, S in zip(vec, strides)) for vec in vectors], dtype=dtype)
            gens = cls(*_reduce(keys, np.ones(len(keys), dtype=dtype)), tuple(strides[:-1]))
            if out is None:
                out = gens._power(e, budget, last)
            else:
                out = out._convolve(gens._power(e, budget), budget, last)
        return out

    def _step(self, keys, weights, starts, runs, squares: bool):
        """This step's ledger from `_sum_runs`, or with `squares` its `SquareSum`."""
        out = _sum_runs(keys, weights, starts, runs, squares)
        return out if squares else Ledger(*out, self.strides)

    def _convolve(self, other: "Ledger", budget: int, squares: bool = False):
        """Ledger of the sums of one generator tuple from each of two ledgers.

        First the key pairs are checked against `budget`.  Each key of the
        shorter side shifts the other side's sorted keys into one run.
        """
        a, b = (other, self) if len(self.keys) > len(other.keys) else (self, other)
        check_budget(len(a.keys) * len(b.keys), budget, what="ledger key pairs")
        zero = np.zeros(len(a.keys), dtype=np.intp)
        runs = (zero, zero + len(b.keys), zero, a.keys, a.counts)
        return self._step(b.keys, b.counts, np.array([0, len(b.keys)]), runs, squares)

    def _multiset(self, e: int, budget: int, squares: bool = False):
        """e-fold self-convolution that forms each nondecreasing index tuple once.

        First its C(n + e - 1, e) key pairs are checked against `budget`.
        The tuples of length t < e are held unreduced, grouped by their last
        index l, with their weights and the times they hold l.  Appending
        each j >= l grows them by one: j > l shifts every group below j by
        g_j, and j = l is their diagonal copy (`_with_diagonal`).  The
        tuples of length e are summed in runs (`_sum_runs`): the diagonal
        copy, and for j > l, in a square the generators past l shifted by
        generator l, otherwise each group l, sorted by key, shifted by each
        generator past l.
        """
        g, c = self.keys, self.counts
        n = len(g)
        check_budget(math.comb(n + e - 1, e), budget, what="ledger key pairs")
        keys, weights, repeats, starts = g, c, np.ones(n, dtype=np.intp), np.arange(n + 1)
        for t in range(2, e + 1):
            size = len(keys)
            keys, weights = _with_diagonal(keys, weights, repeats, starts, g, c, t)
            if t == e:
                break
            # group j: every tuple of a group l < j, then group j's diagonal copy
            spans = ((np.zeros(n, dtype=np.intp), size + starts[:-1]), (starts[:-1], size + starts[1:]),
                     (g, np.zeros_like(g)), (t * c, np.ones_like(c)))
            keys, weights = _fill(keys, weights, [np.stack(pair, axis=1).ravel() for pair in spans])
            grown = np.ones(len(keys), dtype=np.intp)
            new_starts = np.concatenate(([0], np.cumsum(starts[1:])))
            grown[np.repeat(new_starts[:-1], np.diff(starts)) + np.arange(size)] = repeats + 1
            repeats, starts = grown, new_starts
            del grown  # so that `del repeats` below frees them
        del repeats  # the top step reads only keys and weights
        j = np.arange(n)
        if e == 2:
            # generator l shifts the generators past l, with weight 2 c_l;
            # the diagonal copy 2g is sorted, one more group
            runs = (np.append(j + 1, n), np.append(np.full(n, n), 2 * n), np.append(np.zeros(n, dtype=np.intp), 1),
                    np.append(g, 0), np.append(2 * c, 1))
            return self._step(keys, weights, np.array([0, n, 2 * n]), runs, squares)
        # group n + l is group l's diagonal copy
        keys, weights, starts = _sort_groups(keys, weights, np.concatenate((starts, size + starts[1:])))
        col = np.repeat(j, j)
        row = np.arange(len(col)) - np.repeat(j * (j - 1) // 2, j)
        runs = (np.concatenate((starts[row], starts[n:-1])), np.concatenate((starts[row + 1], starts[n + 1 :])),
                np.concatenate((row, n + j)), np.concatenate((g[col], np.zeros_like(g))),
                np.concatenate((e * c[col], np.ones_like(c))))
        return self._step(keys, weights, starts, runs, squares)

    def _power(self, e: int, budget: int, squares: bool = False):
        """e-fold self-convolution by whichever top step forms fewer key pairs.

        The lower power (half of e, or e - 1 for odd e) is built first; its
        square, or its product with the generators, competes with the
        multiset step's C(n + e - 1, e) pairs.  A tie goes to the multiset
        step, so a square is always one.  `squares` goes to the top step.
        """
        if e == 1:
            return SquareSum(exact_dot(self.counts, self.counts), 0, 0) if squares else self
        lower = self._power(e - 1 if e % 2 else e // 2, budget)
        n, m = len(self.keys), len(lower.keys)
        if (m * n if e % 2 else m * (m + 1) // 2) < math.comb(n + e - 1, e):
            return lower._convolve(self, budget, squares) if e % 2 else lower._multiset(2, budget, squares)
        return self._multiset(e, budget, squares)

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
