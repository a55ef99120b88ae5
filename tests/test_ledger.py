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
