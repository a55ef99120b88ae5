import numpy as np
import pytest
from hypothesis import given, strategies as st

from diagpair.smooth import primes_up_to
from diagpair.systems import (
    DiagonalSystem,
    SystemClass,
    check_conditions,
    classify,
    format_system,
    load_system,
    parse_system,
    phi_indefinite,
)

nonzero = st.integers(-9, 9).filter(lambda v: v != 0)


def coeff_tuples():
    shared = st.lists(nonzero, min_size=0, max_size=3)
    pure = st.lists(nonzero, min_size=0, max_size=3)
    return st.tuples(shared, pure, pure).filter(lambda t: len(t[0]) + len(t[1]) + len(t[2]) > 0)


def test_shape_counts(sample5, balanced11, ladder6):
    assert (sample5.l, sample5.m, sample5.n, sample5.s) == (2, 1, 2, 5)
    assert (balanced11.l, balanced11.m, balanced11.n, balanced11.s) == (6, 3, 2, 11)
    assert (ladder6.l, ladder6.m, ladder6.n, ladder6.s) == (0, 2, 4, 6)
    assert balanced11.t == 2


def test_coefficient_vectors(sample5):
    assert sample5.cubic_coeffs() == (1, -1, 1, 0, 0)
    assert sample5.quad_coeffs() == (1, 1, 0, 1, -1)


def test_eval_forms(sample5):
    theta, phi = sample5.eval_forms((1, 2, 3, 4, 5))
    assert theta == 1 - 8 + 27
    assert phi == 1 + 4 + 16 - 25
    with pytest.raises(ValueError):
        sample5.eval_forms((1, 2))


def test_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        DiagonalSystem(a=(1, 0), b=(1, 1))
    with pytest.raises(ValueError):
        DiagonalSystem(a=(1,), b=(1, 2))
    with pytest.raises(ValueError):
        DiagonalSystem(a=(), b=())


def test_classification(sample5, balanced11, ladder6, tiny2):
    assert classify(tiny2) is SystemClass.A
    assert classify(sample5) is SystemClass.A
    assert classify(balanced11) is SystemClass.A
    assert classify(DiagonalSystem(a=(1,), b=(1,), c=(1, -1))) is SystemClass.B
    assert classify(DiagonalSystem(a=(1,), b=(1,), d=(1, 1, -1))) is SystemClass.C
    assert classify(ladder6) is SystemClass.UNCLASSIFIED


def test_phi_indefinite(sample5, tiny2):
    assert phi_indefinite(sample5)
    assert phi_indefinite(tiny2)
    assert not phi_indefinite(DiagonalSystem(a=(1, -1), b=(1, 1)))


@pytest.fixture(scope="module")
def reports(balanced11, sample5):
    """One default `check_conditions` report per system: anchor and witnesses at every prime to 100."""
    return {name: check_conditions(sys, rng=np.random.default_rng(1234))
            for name, sys in (("balanced11", balanced11), ("sample5", sample5))}


def test_check_conditions_counts(reports):
    rep = reports["balanced11"]
    assert rep.indefinite_phi and rep.count_cubic_ok and rep.count_quad_ok and rep.total_ok
    rep5 = reports["sample5"]
    assert rep5.indefinite_phi
    assert not rep5.total_ok
    assert not (rep5.indefinite_phi and rep5.count_cubic_ok and rep5.count_quad_ok and rep5.total_ok)


def test_check_conditions_witnesses(reports):
    rep = reports["balanced11"]
    assert rep.real_solution is not None
    assert rep.real_solution.singular_values[1] > 1e-6  # Jacobian rank 2
    assert set(rep.padic_witnesses) == set(primes_up_to(100))
    assert all(w.found for w in rep.padic_witnesses.values())


@given(coeff_tuples())
def test_parse_format_roundtrip(blocks):
    shared, cubs, quads = blocks
    sys = DiagonalSystem(a=tuple(shared), b=tuple(reversed(shared)) or (), c=tuple(cubs), d=tuple(quads))
    assert parse_system(format_system(sys)) == sys


def test_parse_comments_and_blanks():
    sys = parse_system("# header\n\na = 1 -1\nb = 2 3  # trailing\n")
    assert sys == DiagonalSystem(a=(1, -1), b=(2, 3))


@pytest.mark.parametrize(
    "text",
    ["a = 1 x\nb = 1\n", "e = 1\n", "a = 1\na = 2\nb = 1\n", "just words\n"],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_system(text)


def test_load_system(tmp_path, sample5):
    p = tmp_path / "sys.txt"
    p.write_text(format_system(sample5))
    assert load_system(p) == sample5
