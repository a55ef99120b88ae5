from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diagpair import Ledger


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


@st.composite
def _generator_sets(draw):
    fields = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([3, 20, 10**12]))
    vec = st.tuples(*[st.integers(-scale, scale)] * fields)
    a = draw(st.lists(vec, min_size=1, max_size=6))
    b = draw(st.lists(vec, min_size=1, max_size=6))
    return a, b


@given(_generator_sets(), st.integers(1, 3), st.booleans())
def test_ledger_matches_dict_reference(sets, e, huge_mass):
    a, b = sets
    fields = len(a[0])
    top = [max(abs(v[j]) for v in a) for j in range(fields)]
    bounds = [max(e * ta, ta + max(abs(v[j]) for v in b)) for j, ta in enumerate(top)]
    # an oversized mass bound is allowed and forces the object dtype
    mass = 2**62 if huge_mass else max(len(a) ** e, len(a) * len(b))
    La = Ledger.from_vectors(a, bounds, mass)
    Lb = Ledger.from_vectors(b, bounds, mass)
    ra, rb = _dict_ledger(a), _dict_ledger(b)

    conv = La.convolve(Lb)
    assert _decode(conv, bounds) == _dict_convolve(ra, rb)
    assert list(zip(*[f.tolist() for f in conv.fields()])) == list(_decode(conv, bounds))
    assert Lb.lookup(-La.keys).tolist() == [rb.get(tuple(-x for x in k), 0) for k in _decode(La, bounds)]
    power = _dict_power(ra, e)
    assert _decode(La.power(e), bounds) == power
    assert La.power(e).sum_of_squares() == sum(c * c for c in power.values())
    negated = sum(c * rb.get(tuple(-x for x in k), 0) for k, c in ra.items())
    assert La.matched_negated(Lb) == negated
    assert isinstance(La.matched_negated(Lb), int)


_EDGE_KEYS = [-(2**63), -(2**62) - 1, -(2**62), -(2**62) + 3, 2**62 - 3, 2**62, 2**62 + 1, 2**63 - 1]


@pytest.mark.parametrize("path", ["table", "search"])
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=12),
       st.booleans(), st.data())
def test_lookup_matches_dict_reference(path, vectors, huge_mass, data):
    bounds = [9, 9]
    # an oversized mass bound makes an object-dtype ledger, queried with int64 keys
    ledger = Ledger.from_vectors(vectors, bounds, 2**62 if huge_mass else len(vectors))
    reference = Counter(x + 19 * y for x, y in vectors)
    lo, hi = min(reference), max(reference)
    span = hi - lo + 1
    # the direct table needs a query at least as large as the key span
    size = span + data.draw(st.integers(0, 5)) if path == "table" else span - 1
    if size < 1:
        return
    # keys below keys[0], inside the span, above keys[-1], and near the int64 edges
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    forced = np.array(([lo - 1, hi + 1] + _EDGE_KEYS)[: size // 2], dtype=np.int64)
    pool = np.array(list(range(lo - 20, hi + 21)) + _EDGE_KEYS, dtype=np.int64)
    query = rng.permutation(np.concatenate((forced, rng.choice(pool, size - len(forced))))).tolist()
    cols = data.draw(st.sampled_from([c for c in (1, 2, 3) if size % c == 0]))
    keys = np.array(query, dtype=np.int64).reshape(-1, cols)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        got = ledger.lookup(keys)
    assert search.called == (path == "search" or huge_mass)
    assert got.shape == keys.shape
    assert got.ravel().tolist() == [reference.get(k, 0) for k in query]


@pytest.mark.parametrize("edge", [2**62, -(2**62) + 4])
def test_lookup_at_the_packing_edge(edge):
    # int64 keys a few units from +-2^62, with queries out to the int64 ends
    ledger = Ledger(np.array([edge - 4, edge - 2, edge - 1]), np.array([3, 1, 2]), (1,))
    query = [edge - 5, edge - 4, edge - 3, edge - 2, edge - 1, edge] + _EDGE_KEYS
    want = [0, 3, 0, 1, 2, 0] + [dict(zip((edge - 4, edge - 2, edge - 1), (3, 1, 2))).get(k, 0) for k in _EDGE_KEYS]
    for cols in (1, 2):
        assert ledger.lookup(np.array(query, dtype=np.int64).reshape(-1, cols)).ravel().tolist() == want
    assert ledger.lookup(np.array(query[:2], dtype=np.int64)).tolist() == want[:2]
