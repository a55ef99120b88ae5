import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from diagpair import ledger
from diagpair.budget import DEFAULT_LEDGER_BUDGET, BudgetError
from diagpair.ledger import Ledger
from diagpair.moments import moment_I, moment_T
from diagpair.oracles import brute_moment_T
from diagpair.solver import _negated_weights


def _dict_ledger(vectors) -> dict:
    out: dict = {}
    for v in vectors:
        out[v] = out.get(v, 0) + 1
    return out


def _dict_convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _dict_power(a: dict, e: int) -> dict:
    out = a
    for _ in range(e - 1):
        out = _dict_convolve(out, a)
    return out


def _decode(ledger: Ledger, bounds) -> dict:
    """Unpack balanced signed keys field by field, lowest stride first."""
    out = {}
    for key, count in zip(ledger.keys.tolist(), ledger.counts.tolist()):
        key, vec = int(key), []
        for B in bounds:
            v = (key + B) % (2 * B + 1) - B
            vec.append(v)
            key = (key - v) // (2 * B + 1)
        assert key == 0
        out[tuple(vec)] = int(count)
    return out


def _fold_bounds(parts) -> list:
    """|field j| over the whole fold is at most sum over parts of e max |v_j|."""
    return [sum(e * max(abs(v[j]) for v in vectors) for vectors, e in parts) for j in range(len(parts[0][0][0]))]


@st.composite
def _fold_parts(draw):
    # one part up to e = 5 (a square of a square, an odd split), or up to
    # three parts with different e, six generators each at most
    fields = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([3, 20, 10**12]))
    vec = st.tuples(*[st.integers(-scale, scale)] * fields)
    es = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(lambda es: sum(es) <= 6))
    return [(draw(st.lists(vec, min_size=1, max_size=6)), e) for e in es]


def _counted(parts) -> list:
    """Fold parts (n, vectors, e) that hand over their generators as one-pass iterators."""
    return [(len(vectors), iter(vectors), e) for vectors, e in parts]


def _check_against_dicts(parts):
    bounds = _fold_bounds(parts)
    want: dict = {(0,) * len(bounds): 1}
    for vectors, e in parts:
        want = _dict_convolve(want, _dict_power(_dict_ledger(vectors), e))
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        fold = Ledger.fold(_counted(parts), DEFAULT_LEDGER_BUDGET)
    strides = [math.prod(2 * B + 1 for B in bounds[:j]) for j in range(len(bounds))]
    assert fold.strides == tuple(strides)
    # int64 exactly while the key span and the tuple count stay below 2^62
    tuples = math.prod(len(vectors) ** e for vectors, e in parts)
    wide = max(strides[-1] * (2 * bounds[-1] + 1), tuples) >= 2**62
    assert (fold.keys.dtype == object) == wide
    if wide:
        assert argsort.called
    elif max(abs(x) for vectors, _ in parts for v in vectors for x in v) <= 20:
        # key spans below 2^24 and counts below 2^16 fit the packed word
        assert not argsort.called

    got = _decode(fold, bounds)  # in key order
    assert got == want
    assert list(zip(*[f.tolist() for f in fold.fields()])) == list(got)
    # the solver's r(-k) at every key by search, and by table for int64 keys of a small span
    negated = [want.get(tuple(-x for x in k), 0) for k in got]
    span = int(fold.keys[-1]) - int(fold.keys[0]) + 1
    for cap in (0, span) if span <= 2**16 and not wide else (0,):
        weights = _negated_weights(fold, int(fold.keys[0]), int(fold.keys[-1]), cap, object)
        assert weights(fold.keys).tolist() == negated
    _check_sum_of_squares(parts, want)


def _band_size(call) -> int:
    """Pairs of one `ledger._band` call: the lengths of its spans."""
    i, u, _, _ = call.args[2]
    return int((u - i).sum())


def _filled_keys(keys, spans) -> list:
    """The keys a band's spans (i, u, offset, mult) fill, one per pair."""
    return [int(k) + int(off) for i, u, off in zip(*spans[:3]) for k in keys[i:u].tolist()]


def _check_sum_of_squares(parts, want):
    """The banded top sum equals sum c^2 of the reference, and counts the pairs and bands it reduced."""
    with mock.patch.object(ledger, "check_budget", wraps=ledger.check_budget) as spy, \
            mock.patch.object(ledger, "_band", wraps=ledger._band) as band:
        top = Ledger.fold_sum_of_squares(_counted(parts), DEFAULT_LEDGER_BUDGET)
    assert top.value == sum(c * c for c in want.values())
    assert isinstance(top.value, int)
    # the top step's bands are the ones summed as squares
    bands = [_band_size(call) for call in band.call_args_list if call.args[-1]]
    assert (top.pairs, top.bands) == (sum(bands), len(bands))
    if len(parts) == 1 and parts[0][1] == 1:
        # the reduced generators are the top ledger: no step, no pairs
        assert top.bands == 0
    else:
        # at most the pairs the top step was checked for, the last check;
        # fewer where equal keys of a multiset step's groups were added up
        estimates = [call.args[0] for call in spy.call_args_list if call.kwargs["what"] == "ledger key pairs"]
        assert 1 <= top.bands <= top.pairs <= estimates[-1]
        if top.pairs <= ledger._CHUNK_PAIRS:
            assert top.bands == 1


@given(_fold_parts())
def test_ledger_matches_dict_reference(parts):
    _check_against_dicts(parts)


@pytest.mark.parametrize("chunk", [1, 2, 5])
@given(_fold_parts())
def test_ledger_matches_dict_reference_in_small_chunks(chunk, parts):
    # at most 6 generators a part never fill a default band: these cut
    # squares and products into many bands, some of one key
    with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk):
        _check_against_dicts(parts)


@st.composite
def _power_parts(draw):
    # one part of up to 6 draws from at most 4 distinct vectors, so vectors
    # repeat (counts > 1), raised to e <= 6: narrow vectors collide, and
    # some powers of them take binary splitting; wide ones take the
    # multiset step
    fields = draw(st.integers(1, 2))
    scale = draw(st.sampled_from([2, 10**12]))
    pool = draw(st.lists(st.tuples(*[st.integers(-scale, scale)] * fields), min_size=1, max_size=4, unique=True))
    return [(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)), draw(st.integers(1, 6)))]


@pytest.mark.parametrize("chunk", [1, 2, 5, ledger._CHUNK_PAIRS])
@given(_power_parts())
# binary splitting on top: the fifth power of {0, 1, 2, 3} takes its 13-key
# fourth power times the 4 generators (52 pairs against C(8, 5) = 56), and
# the sixth, with 3 repeated, the square of its 10-key cube (55 against 84)
@example([([(0,), (1,), (2,), (3,)], 5)])
@example([([(0,), (1,), (2,), (3,), (3,)], 6)])
def test_powers_match_dict_reference(chunk, parts):
    with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk):
        _check_against_dicts(parts)


@pytest.mark.parametrize("chunk", [1, ledger._CHUNK_PAIRS])
@pytest.mark.parametrize("scale", [3, 10**12])
@pytest.mark.parametrize("e", range(1, 7))
def test_sum_of_squares_of_each_power(e, scale, chunk):
    # six generators in two fields, two of them repeated: at scale 10^12 the
    # key span passes 2^62 and the fold takes object arrays
    gens = [(1, 2), (-3, 1), (2, -2), (1, 2), (0, 3), (-3, 1)]
    with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk):
        _check_against_dicts([([(scale * x, scale * y) for x, y in gens], e)])


@st.composite
def _colliding_parts(draw):
    # an arithmetic progression of 4 to 7 generators, with up to two more:
    # its e-fold sums repeat, so equal keys meet in runs of three or more
    # words inside one band
    fields = draw(st.integers(1, 2))
    scale = draw(st.sampled_from([1, 10**5]))
    small = st.tuples(*[st.integers(-3, 3)] * fields)
    a, d = draw(small), draw(small.filter(any))
    gens = [tuple(scale * (x + k * y) for x, y in zip(a, d)) for k in range(draw(st.integers(4, 7)))]
    gens += [tuple(scale * x for x in v) for v in draw(st.lists(small, max_size=2))]
    return [(gens, draw(st.integers(3, 4)))]


@pytest.mark.parametrize("chunk", [1, 7, ledger._CHUNK_PAIRS])
@given(_colliding_parts())
def test_runs_of_equal_keys_match_dict_reference(chunk, parts):
    runs, summed = [], ledger._square_sum_of_words

    def longest_run(words, bits):
        runs.append(int(np.unique(words >> bits, return_counts=True)[1].max()))
        return summed(words, bits)

    with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk), \
            mock.patch.object(ledger, "_square_sum_of_words", longest_run):
        _check_against_dicts(parts)
    assert max(runs) >= 3


@pytest.mark.parametrize("span", [1, 9, 40_000])
def test_square_sum_of_words_across_slices(span):
    # 3 * 2^16 + 5 words on `span` keys: runs of equal keys straddle the
    # nominal slice ends, and one key alone fills several slices
    rng = np.random.default_rng(span)
    keys = rng.integers(0, span, size=3 * 2**16 + 5)
    counts = rng.integers(1, 32, size=len(keys))
    totals = np.zeros(span, dtype=np.int64)
    np.add.at(totals, keys, counts)
    words = np.sort(keys << 5 | counts)
    assert ledger._square_sum_of_words(words, 5) == int(totals @ totals)


def test_band_bounds_come_from_its_runs():
    # the multiset step's top runs shift consecutive groups by one generator
    # and merge into spans that cross groups, so a span's first and last keys
    # are not its least and greatest; a band's lowest key taken from its
    # spans' first keys sets some words negative, and their XOR with the next
    # word reads as one key
    gens = [(3, 2), (-3, -3), (3, -3), (0, -3), (3, 3), (-1, -2)]
    parts = [([(10**6 * x, 10**6 * y) for x, y in gens], 3)]
    seen, band = [], ledger._band

    def bounds_are_tight(keys, weights, spans, low, high, *rest):
        filled = _filled_keys(keys, spans)
        seen.append((min(filled), max(filled)) == (low, high))
        return band(keys, weights, spans, low, high, *rest)

    with mock.patch.object(ledger, "_CHUNK_PAIRS", 7), mock.patch.object(ledger, "_band", bounds_are_tight):
        _check_against_dicts(parts)
    assert len(seen) > 2 and all(seen)


def _steps(count) -> list:
    """Key pairs of each step of a fold, read from its budget checks."""
    with mock.patch.object(ledger, "check_budget", wraps=ledger.check_budget) as spy:
        count()
    estimates = [call.args[0] for call in spy.call_args_list if call.kwargs["what"] == "ledger key pairs"]
    return estimates[1:]  # the first is check_fold's bound, formed by no step


def test_power_takes_the_step_of_fewer_pairs():
    # moment_I(8, 1, 10): 20 generators of (h, h, h) collide so much that
    # binary splitting's squares (4392 pairs) beat the 2220075 multisets
    # of the top step; moment_T(4, 80) takes the multiset step's
    # C(83, 4) pairs against 5250420 for the square of its 3240 pairs
    steps = _steps(lambda: moment_I(8, 1, 10))
    assert steps == [210, 861, 3321] and math.comb(27, 8) == 2220075
    assert _steps(lambda: moment_T(4, 80)) == [3240, math.comb(83, 4)] == [3240, 1837620]
    # at the top step every multiset of the 80 generators is one pair
    with mock.patch.object(ledger, "_reduce", wraps=ledger._reduce) as reduce, \
            mock.patch.object(ledger, "_band", wraps=ledger._band) as band:
        moment_T(4, 80)
    reduced = [len(call.args[0]) for call in reduce.call_args_list]
    bands = [_band_size(call) for call in band.call_args_list]
    # the generators and the groups of the cube's tuples with their diagonal
    # copy are sorted; the square (one band), then the top step's bands
    assert reduced[0] == 80 and len(reduced) == 2
    assert bands[0] == 3240 and sum(bands[1:]) == math.comb(83, 4)


@pytest.mark.parametrize("e", [61, 62])
def test_fold_dtype_follows_its_tuple_count(e):
    # 2^e tuples of two generators over a key span of e + 1: the counts are
    # binomial coefficients, and the fold turns object once 2^e reaches 2^62
    fold = Ledger.fold([(2, [(0,), (1,)], e)], DEFAULT_LEDGER_BUDGET)
    assert (fold.keys.dtype == object) == (e == 62)
    assert fold.keys.tolist() == list(range(e + 1))
    assert fold.counts.tolist() == [math.comb(e, k) for k in range(e + 1)]


@pytest.mark.parametrize("chunk", [1, 2**21])
def test_wide_int64_keys_take_the_argsort(chunk):
    # int64 keys spanning about 2^61, with counts of 4 or 8 (3 or 4 bits):
    # in one band of all the pairs the packed word would pass 2^63, so that
    # band takes the argsort; a one-key band (chunk 1) spans nothing and
    # packs, as do the generators' own reductions (count 1)
    a = [(0,), (0,), (1,), (1,)]
    b = [(-(2**60) + 1,)] * 2 + [(2**60 - 1,)] * 2
    c = [(-(2**59),)] * 2 + [(2**59,)] * 2
    with mock.patch.object(ledger, "_CHUNK_PAIRS", chunk), \
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        conv = Ledger.fold(_counted([(a, 1), (b, 1)]), DEFAULT_LEDGER_BUDGET)
        assert conv.keys.dtype == np.int64 and argsort.call_count == (chunk > 1)
        square = Ledger.fold(_counted([(c, 2)]), DEFAULT_LEDGER_BUDGET)
        assert argsort.call_count == 2 * (chunk > 1)
    assert conv.strides == square.strides == (1,)
    assert int(conv.keys[-1]) - int(conv.keys[0]) == 2**61 - 1 and max(conv.counts) == 4
    assert _decode(conv, [2**60]) == _dict_convolve(_dict_ledger(a), _dict_ledger(b))
    assert _decode(square, [2**60]) == _dict_convolve(_dict_ledger(c), _dict_ledger(c))


def test_bands_are_final_and_never_empty():
    # one pair per band: the square of {0, 1, 10^12} has 6 keys of one pair
    # each, and the cube, formed as its 10 nondecreasing index tuples, 10
    # keys of one tuple each; the keys from 10^12 up lie past a gap of about
    # 10^12 keys that no band may start in or step through
    gens = [(0,), (1,), (10**12,)]
    sorts, bands = [], []

    def sort_keys(keys, *rest):
        # a sort whose keys are already unique hands back its own buffer,
        # which the caller may then reuse, so record its keys now
        sorts.append(set(keys.tolist()))
        return reduce(keys, *rest)

    def band_keys(keys, weights, spans, *rest):
        bands.append(set(_filled_keys(keys, spans)))
        return band(keys, weights, spans, *rest)

    reduce, band = ledger._reduce, ledger._band
    with mock.patch.object(ledger, "_CHUNK_PAIRS", 1), mock.patch.object(ledger, "_reduce", sort_keys), \
            mock.patch.object(ledger, "_band", band_keys):
        fold = Ledger.fold(_counted([(gens, 3)]), DEFAULT_LEDGER_BUDGET)
    # the first sort reduces the three generators, and the second the cube's
    # 6 index pairs and their diagonal copy by (group, key); every band is
    # one key
    assert [len(keys) for keys in sorts] == [3, 12]
    assert all(len(keys) == 1 for keys in bands)
    assert len(bands) == 6 + 10
    assert np.all(np.diff(fold.keys) > 0)
    assert _decode(fold, [3 * 10**12]) == _dict_power(_dict_ledger(gens), 3)


def test_fold_checks_key_pairs_before_forming_them():
    # moment_T(3, 10): the square of 10 generators takes 55 pairs into 55
    # keys; those times the 10 generators would take 550, so the top step is
    # the multiset one, with C(12, 3) = 220 pairs, the most of the fold
    X = 10
    square = len({(x * x + y * y, x**3 + y**3) for x in range(1, X + 1) for y in range(x, X + 1)})
    pairs = math.comb(X + 2, 3)
    assert (square, pairs) == (55, 220)
    assert moment_T(3, X, budget=pairs).value == brute_moment_T(3, X)
    # the top step is refused on its own pairs; the first square is refused
    # on the generator count, before a generator is reduced
    for budget, refused, reduced in ((pairs - 1, pairs, X + 55), (54, 55, 0)):
        with mock.patch.object(ledger, "_reduce", wraps=ledger._reduce) as reduce, \
                mock.patch.object(ledger, "_band", wraps=ledger._band) as band, \
                pytest.raises(BudgetError) as exc:
            moment_T(3, X, budget=budget)
        assert (exc.value.what, exc.value.estimate, exc.value.cap) == ("ledger key pairs", refused, budget)
        # the generators and the admitted square's pairs were reduced, and
        # not one pair of the refused step
        sizes = [len(call.args[0]) for call in reduce.call_args_list] + [_band_size(call) for call in band.call_args_list]
        assert sum(sizes) == reduced


def _unread():
    raise AssertionError("the fold read a generator it refuses")
    yield


@pytest.mark.parametrize(
    "parts, what, estimate",
    [
        ([(10**6, 2)], "ledger key pairs", 10**6 * (10**6 + 1) // 2),
        ([(5, 1), (10**5, 3)], "ledger key pairs", 10**5 * (10**5 + 1) // 2),
        ([(2000, 1), (3000, 1), (1, 1)], "ledger key pairs", 6_000_000),
        ([(2, 1), (2, 1), (10**7, 1)], "ledger generators", 10**7),
    ],
    ids=["square", "later-square", "first-pair", "generators"],
)
def test_fold_refuses_before_reading_a_generator(parts, what, estimate):
    # the ledger and its banded sum of squares refuse alike
    for fold in (Ledger.fold, Ledger.fold_sum_of_squares):
        with pytest.raises(BudgetError) as exc:
            fold([(n, _unread(), e) for n, e in parts], 10**6)
        assert (exc.value.what, exc.value.estimate) == (what, estimate)


def test_fold_holds_a_part_to_its_count():
    with pytest.raises(ValueError, match="other than its n generators"):
        Ledger.fold([(3, [(1,), (2,)], 1)], DEFAULT_LEDGER_BUDGET)


_EDGE_KEYS = [-(2**63), -(2**62) - 1, -(2**62), -(2**62) + 3, 2**62 - 3, 2**62, 2**62 + 1, 2**63 - 1]


@pytest.mark.parametrize("path", ["table", "search"])
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=12),
       st.booleans(), st.data())
def test_lookup_matches_dict_reference(path, vectors, wide, data):
    # the solver's r(-k), by table or by search, against a dict of the vectors
    ledger = Ledger.fold([(len(vectors), vectors, 1)], DEFAULT_LEDGER_BUDGET)
    if wide:
        # the same ledger in object arrays, queried with int64 keys
        ledger = Ledger(ledger.keys.astype(object), ledger.counts.astype(object), ledger.strides)
    reference = Counter(x + ledger.strides[1] * y for x, y in vectors)
    lo, hi = -max(reference), -min(reference)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    if path == "table":
        # a table over [a, b], which may cut the negated keys and be narrower than their span
        a = data.draw(st.integers(lo - 20, hi + 20))
        b = data.draw(st.integers(a, hi + 21))
        forced, pool, cap = [a, b], np.arange(a, b + 1), b - a + 1
    else:
        # keys below -keys[-1], inside the span, above -keys[0], and near the int64 edges
        forced, pool, cap = [lo - 1, hi + 1] + _EDGE_KEYS, np.array(list(range(lo - 20, hi + 21)) + _EDGE_KEYS), 0
    size = data.draw(st.integers(1, 12))
    query = rng.permutation(np.concatenate((forced[:size], rng.choice(pool, size - len(forced[:size]))))).tolist()
    cols = data.draw(st.sampled_from([c for c in (1, 2, 3) if size % c == 0]))
    keys = np.array(query, dtype=np.int64).reshape(-1, cols)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        got = _negated_weights(ledger, min(query), max(query), cap, np.int64)(keys)
    assert search.called == (path == "search")
    assert got.shape == keys.shape
    assert got.ravel().tolist() == [reference.get(-k, 0) for k in query]


@pytest.mark.parametrize("edge", [2**62, -(2**62) + 4])
def test_lookup_at_the_packing_edge(edge):
    # int64 keys a few units from +-2^62, looked up negated by both routes;
    # the searches take queries out to the int64 ends
    ledger = Ledger(np.array([edge - 4, edge - 2, edge - 1]), np.array([3, 1, 2]), (1,))
    counts = dict(zip((edge - 4, edge - 2, edge - 1), (3, 1, 2)))
    near = list(range(-edge, -edge + 6))
    assert [counts.get(-k, 0) for k in near] == [0, 2, 1, 0, 3, 0]
    table = _negated_weights(ledger, near[0], near[-1], len(near), np.int64)
    search = _negated_weights(ledger, near[0], near[-1], 0, np.int64)
    for query, routes in ((near, (table, search)), (near + _EDGE_KEYS, (search,))):
        want = [counts.get(-k, 0) for k in query]
        for weights in routes:
            for cols in (1, 2):
                assert weights(np.array(query, dtype=np.int64).reshape(-1, cols)).ravel().tolist() == want
    assert search(np.array(near[:2], dtype=np.int64)).tolist() == [0, 2]
