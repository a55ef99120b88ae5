import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagpair import local
from diagpair.budget import DEFAULT_LEDGER_BUDGET, BudgetError
from diagpair.local import chi_p_partial, count_congruences, padic_witness, singular_series
from diagpair.oracles import brute_count_congruences, direct_series_term, t_factor
from diagpair.smooth import smallest_prime_factors
from diagpair.systems import BUILTIN_SYSTEMS, DiagonalSystem

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# coefficients divisible by 2 and 3: at q = 2, 3, 4, 8, 9, 16 components
# fall to both-zero residues or to pure-quadratic or pure-cubic residues
DIV23 = DiagonalSystem(a=(2, 1), b=(3, 1), c=(4,), d=(6,))

# 7 divides coefficients and 7 = 1 mod 3: at q = 7, x_1 is pure-quadratic,
# x_2 pure-cubic and z_1 has both residues 0, so rows take every case
DIV7 = DiagonalSystem(a=(7, 1, 2), b=(3, 14, 1), c=(5,), d=(7, 2))


def component_table(q, A3, A2):
    # S[r2, r3] for one component, via the 2-D DFT of its phase histogram
    u = np.arange(1, q + 1, dtype=np.int64)
    j2 = (A2 % q) * (u * u % q) % q
    j3 = (A3 % q) * (u**3 % q) % q
    hist = np.zeros((q, q))
    np.add.at(hist, (j2, j3), 1.0)
    return q * q * np.fft.ifft2(hist)


def primitive_mask(q):
    # [r2, r3] is True where gcd(q, r2, r3) = 1
    r = np.arange(q)
    return np.gcd.outer(np.gcd(r, q), r) == 1


def direct_complete_sum(q, r2, r3, A3, A2):
    total = 0j
    for x in range(q):
        total += cmath.exp(2j * math.pi * (r3 * A3 * x**3 + r2 * A2 * x * x) / q)
    return total


def component_row(q, r3, A3, A2):
    # S(q; r2, r3) of one component at every r2, from `local._component_rows`
    return local._component_rows(q, np.array([(A3 % q, A2 % q)]), np.array([r3 % q]))[0, 0]


def per_cell_component_rows(q, key, r3):
    # `local._component_rows` with the cos and sin taken at every cell
    u = np.arange(q, dtype=np.int64)
    u2 = u * u % q
    u3 = u2 * u % q
    c3, c2 = key[:, 0, None, None], key[:, 1, None, None]
    phase = c3 * r3[:, None] % q * u3 % q
    slot = (np.arange(len(key) * len(r3)).reshape(len(key), len(r3), 1) * q + c2 * u2 % q).ravel()
    ang = (2.0 * math.pi * phase / q).ravel()
    size = len(key) * len(r3) * q
    w = np.bincount(slot, np.cos(ang), size) + 1j * np.bincount(slot, np.sin(ang), size)
    return q * np.fft.ifft(w.reshape(len(key), len(r3), q), axis=-1)


def test_component_rows_table_matches_per_cell_trig():
    # the e(j/q) table read at each phase gives every row bit for bit
    rng = np.random.default_rng(35)
    for q in range(1, 61):
        key = rng.integers(0, q, size=(int(rng.integers(1, 5)), 2))
        r3 = rng.integers(0, q, size=int(rng.integers(1, 6)))
        got = local._component_rows(q, key, r3)
        assert np.array_equal(got, per_cell_component_rows(q, key, r3))


# zeros allowed: A2 = 0 is a pure-cubic variable, A3 = 0 a pure-quadratic one
@given(st.integers(1, 30), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_complete_sum_matches_direct(q, A3, A2):
    row = component_row(q, q // 2, A3, A2)
    assert row.dtype == np.complex128 and row.shape == (q,)
    for r2 in range(q):
        want = direct_complete_sum(q, r2, q // 2, A3, A2)
        assert abs(row[r2] - want) <= 1e-9 * q


# and one prime past 10^4: only the budget caps the modulus
@pytest.mark.parametrize("p", [*ODD_PRIMES, 10_007])
def test_gauss_magnitude(p):
    # quadratic complete sum with p coprime to everything has magnitude sqrt(p) at every r2 != 0
    row = component_row(p, 0, 0, 1)
    assert np.abs(row[1:]) == pytest.approx(np.full(p - 1, math.sqrt(p)), rel=1e-12)


def test_complete_sum_residue_zero_is_count():
    assert component_row(12, 0, 1, 0)[5] == pytest.approx(12 + 0j)
    assert component_row(9, 2, 0, 1)[0] == pytest.approx(9 + 0j)


def test_t_factor_matches_direct(sample5):
    for q, r2, r3 in [(2, 1, 1), (3, 1, 2), (4, 3, 1), (5, 2, 3), (9, 4, 7)]:
        cubic = sample5.cubic_coeffs()
        quad = sample5.quad_coeffs()
        # q^-s sum over all residue tuples of e((r3 Theta + r2 Phi)/q),
        # factored per variable
        direct = 1 + 0j
        for A3, A2 in zip(cubic, quad):
            comp = sum(
                cmath.exp(2j * math.pi * ((r3 * A3 * x**3 + r2 * A2 * x * x) % q) / q)
                for x in range(q)
            )
            direct *= comp / q
        got = t_factor(sample5, q, r2, r3)
        assert abs(got - direct) <= 1e-10


@given(q1=st.integers(1, 10), q2=st.integers(1, 10))
@settings(max_examples=25)
def test_congruence_crt_multiplicativity(sample5, q1, q2):
    if math.gcd(q1, q2) != 1:
        return
    M1 = count_congruences(sample5, q1)
    M2 = count_congruences(sample5, q2)
    assert count_congruences(sample5, q1 * q2) == M1 * M2


@given(q=st.integers(1, 12))
def test_congruences_match_brute(tiny2, q):
    assert count_congruences(tiny2, q) == brute_count_congruences(tiny2, q)


def test_congruences_match_brute_s5(sample5):
    for q in (4, 9):
        assert count_congruences(sample5, q) == brute_count_congruences(sample5, q)


def test_congruences_object_path():
    # mod 2 both forms reduce to x_1 + ... + x_124, so M(2) = 2^123; the
    # fold crosses from int64 to object dtype at its 63rd variable
    big = DiagonalSystem(a=(1,) * 124, b=(1,) * 124)
    M = count_congruences(big, 2)
    assert type(M) is int and M == 2**123


def test_congruences_pinned():
    # recorded at the commit that met two half ledgers; M(128) passes 2^63
    balanced11 = BUILTIN_SYSTEMS["balanced11"]
    assert count_congruences(balanced11, 100) == 993817088000000000
    assert count_congruences(balanced11, 128) == 9406330771716702208


def test_fold_vars_turns_object_only_when_max_times_q_reaches_2_62():
    # a fold adds q shifted copies, so int64 holds while max * q < 2^62.
    # mod 2, x_1 + ... + x_k puts 2^(k-1) at two residues: the 63rd fold
    # starts from max * q = 2^62 and is the first on object dtype
    assert local._fold_vars(2, [(1, 1)] * 62).dtype == np.int64
    folded = local._fold_vars(2, [(1, 1)] * 63)
    assert folded.dtype == object and folded[0, 0] == 2**62
    balanced11 = BUILTIN_SYSTEMS["balanced11"]
    comps = list(zip(balanced11.cubic_coeffs(), balanced11.quad_coeffs()))
    assert local._fold_vars(100, comps).dtype == np.int64
    assert local._fold_vars(2, [(1, 1)] * 124).dtype == object


def test_congruence_budget():
    big = DiagonalSystem(a=(1,) * 6, b=(1,) * 6)
    with pytest.raises(BudgetError):
        count_congruences(big, 10_000, budget=10**6)


# composite prime powers up to 2^6, 3^4, 5^2 and 7^2, where the series side
# sums orbit rows over r3 = p^j v; the count side folds residues and uses no rows
CHI_DEPTHS = [(2, 3), (3, 2), (5, 1), (7, 1), (2, 6), (3, 4), (5, 2), (7, 2)]
CHI_SYSTEMS = {
    "sample5": BUILTIN_SYSTEMS["sample5"],
    "balanced11": BUILTIN_SYSTEMS["balanced11"],
    "div23": DIV23,
    "div7": DIV7,
}


@pytest.mark.parametrize(
    "sysd,p,t",
    [
        pytest.param(sysd, p, t, id=f"{p}-{t}" if name == "sample5" else f"{name}-{p}-{t}")
        for name, sysd in CHI_SYSTEMS.items()
        for p, t in CHI_DEPTHS
    ],
)
def test_chi_identity(sysd, p, t):
    part = chi_p_partial(sysd, p, t)
    assert part.relative_gap <= 1e-9
    assert part.M == count_congruences(sysd, p**t)


def test_chi_refuses_before_any_table(sample5, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a series row was built before the budget check")

    monkeypatch.setattr(local, "_orbit_term", no_rows)
    with pytest.raises(BudgetError) as info:
        chi_p_partial(sample5, 3, 6, budget=1000)
    assert (info.value.what, info.value.cap) == ("congruence ledger", 1000)


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_padic_functions_reject_a_non_prime(sample5, p):
    # p = 0 and 1 once looped forever in padic_witness, and p = 4 reported
    # a "4-adic" witness and a failed chi identity
    with pytest.raises(ValueError, match="prime"):
        padic_witness(sample5, p)
    with pytest.raises(ValueError, match="prime"):
        chi_p_partial(sample5, p, 2)


def test_padic_witness_refuses_an_empty_search(sample5, monkeypatch):
    # past p^1 = 2000 no depth is tried, so p = 2003 is refused at any
    # budget, before M(p) is counted
    def no_count(*args, **kwargs):
        raise AssertionError("M(p) counted for a refused p")

    monkeypatch.setattr(local, "count_congruences", no_count)
    for budget in (DEFAULT_LEDGER_BUDGET, 5 * 2003**3):
        with pytest.raises(ValueError, match="p = 2003 .* cap 2000"):
            padic_witness(sample5, 2003, budget=budget)
    monkeypatch.undo()
    wit = padic_witness(sample5, 1999)
    assert (wit.found, wit.k, wit.t_checked) == (True, 1, ())


def test_chi_depth_zero(sample5):
    part = chi_p_partial(sample5, 3, 0)
    assert part.series_side == 1.0
    assert part.count_side == 1.0


def test_singular_series_partials(balanced11):
    res = singular_series(balanced11, 40)
    assert res.value == pytest.approx(res.partials[-1])
    assert abs(res.imag) <= 1e-9
    assert set(res.A) == set(range(1, 41))
    assert res.A[1] == 1.0 and res.B[1] == 1.0
    # A is the primitive absolute mass, so it dominates B
    assert all(res.A[q] >= abs(res.B[q]) - 1e-12 for q in res.A)


def test_singular_series_height_cap(balanced11):
    # the prime 17257 = 1 mod 3 takes 4 rows, so the work through 17256 is
    # 4 * 17257 cells less and fits
    with pytest.raises(BudgetError) as info:
        singular_series(balanced11, 17257)
    assert info.value.estimate - 4 * 17257 <= DEFAULT_LEDGER_BUDGET < info.value.estimate


def test_singular_series_budget(sample5):
    # (g + 1) p orbit rows at the 12 primes q <= 40 hold 608 cells, and the
    # rows at the 7 composite prime powers 652 more: 1260
    res = singular_series(sample5, 40, budget=1260)
    assert (res.rows, res.cells) == (68, 1260)
    with pytest.raises(BudgetError) as info:
        singular_series(sample5, 40, budget=1259)
    assert info.value.estimate == 1260
    assert info.value.what == "singular series row cells"


@pytest.mark.parametrize(
    "sysd,Q,rows,cells",
    [
        pytest.param(BUILTIN_SYSTEMS["balanced11"], 12, 24, 159, id="balanced11"),
        pytest.param(BUILTIN_SYSTEMS["sample5"], 24, 41, 447, id="sample5"),
        pytest.param(DIV23, 18, 35, 325, id="div23"),
    ],
)
def test_singular_series_matches_direct(sysd, Q, rows, cells):
    res = singular_series(sysd, Q)
    # B(q) can cancel to zero (every sum mod 2 here does), hence the 1e-14 floor
    running = 0.0
    for q in range(1, Q + 1):
        A, B = direct_series_term(sysd, q)
        assert res.A[q] == pytest.approx(A, rel=1e-12, abs=1e-14)
        assert res.B[q] == pytest.approx(B.real, rel=1e-12, abs=1e-14)
        running += B.real
        assert res.partials[q - 1] == pytest.approx(running, rel=1e-12, abs=1e-14)
    # 1 + sum of g_e rows of length p^k at each prime power p^k
    assert (res.rows, res.cells) == (rows, cells)


@pytest.mark.parametrize(
    "sysd",
    [BUILTIN_SYSTEMS["balanced11"], BUILTIN_SYSTEMS["sample5"], BUILTIN_SYSTEMS["ladder6"], DIV23, DIV7],
    ids=["balanced11", "sample5", "ladder6", "div23", "div7"],
)
def test_orbit_rows_match_tables(sysd):
    # every prime power q = p^k <= 200 against the full q x q table of T
    # over the primitive pairs
    spf = smallest_prime_factors(200)
    for p in [q for q in range(2, 201) if spf[q] == q]:
        q, k = p, 1
        while q <= 200:
            table = np.full((q, q), float(q) ** -sysd.s, dtype=complex)
            for A3, A2 in zip(sysd.cubic_coeffs(), sysd.quad_coeffs()):
                table *= component_table(q, A3, A2)
            vals = table[primitive_mask(q)]
            A, B = local._orbit_term(sysd, p, k)
            assert A == pytest.approx(float(np.abs(vals).sum()), rel=1e-12, abs=1e-14)
            assert B == pytest.approx(complex(vals.sum()), rel=1e-12, abs=1e-14)
            q, k = q * p, k + 1


def test_cube_coset_reps_partition_units():
    # the cosets of the reps tile the units mod m once each, each led by its least member
    for m in range(1, 201):
        units = [v for v in range(m) if math.gcd(v, m) == 1]
        cubes = {pow(v, 3, m) for v in units}
        reps, size = local._cube_coset_reps(m)
        cosets = [sorted({c * k % m for k in cubes}) for c in reps]
        assert sorted(v for coset in cosets for v in coset) == units
        assert [coset[0] for coset in cosets] == reps
        assert {len(coset) for coset in cosets} == {size}


def test_orbits_partition_residues():
    # the scaling orbits of the rows tile Z/q once each, at their sizes, and each
    # mask row is True exactly at the r2 with gcd(q, r2, r3) = 1
    for q in range(1, 201):
        cubes = {pow(v, 3, q) for v in range(q) if math.gcd(v, q) == 1}
        r3, size, mask = local._orbits(q)
        orbits = [{r * c % q for c in cubes} for r in r3.tolist()]
        assert sorted(r for orbit in orbits for r in orbit) == list(range(q))
        assert [len(orbit) for orbit in orbits] == size
        assert r3[0] == 0 and (mask == primitive_mask(q).T[r3]).all()


# recorded before `_orbit_term` and `_primitive_max` shared `_orbits`: the
# sums must keep every bit, not only agree to a tolerance
def test_singular_series_pinned():
    res = singular_series(BUILTIN_SYSTEMS["balanced11"], 400)
    assert (res.value, res.imag) == (1.237258091878583, -2.8468317437506655e-16)
    assert (res.A[343], res.A[400], res.B[243]) == (2.01755456695003e-05, 7.0936952288634455e-06, 0.0002800213284537975)
    vals = np.array([[res.A[q], res.B[q]] for q in range(1, 401)])
    digest = hashlib.sha256(vals.tobytes() + res.partials.tobytes()).hexdigest()
    assert digest == "1420293996361cf703e7a0e065f2f45afbcfa34137e590012e777248c33398fd"


def test_primitive_max_pinned():
    maxima = np.array([local._primitive_max(q, [(1, 1), (1, -1), (2, 3), (3, 0)]) for q in range(1, 201)])
    assert maxima.max(axis=0).tolist() == [89.42511506975309, 89.42511506975309, 89.42511506975308, 200.0]
    digest = hashlib.sha256(maxima.tobytes()).hexdigest()
    assert digest == "fb8017ad6eab2f13418a7275cbe05029fc99a77c45306d18b251586e15db26ee"


def test_primitive_max_matches_tables():
    # criterion 7's orbit-row maxima against the full q x q table over the primitive pairs
    comps = [(1, 1), (1, -1), (2, 3), (3, 0)]
    for q in range(1, 101):
        mask = primitive_mask(q)
        want = [float(np.abs(component_table(q, A3, A2))[mask].max()) for A3, A2 in comps]
        assert local._primitive_max(q, comps) == pytest.approx(want, rel=1e-12)


def test_padic_witness_found(balanced11, rng):
    wit = padic_witness(balanced11, 7, rng=rng)
    assert wit.found
    assert wit.solution is not None
    theta, phi = balanced11.eval_forms(wit.solution)
    assert theta % 7 ** wit.k == 0 and phi % 7 ** wit.k == 0
    assert wit.minor_valuation is not None and wit.minor_valuation < wit.k
    assert wit.inequality_ok


def test_padic_witness_absent(rng):
    # x^3 + y^3 = x^2 + y^2 = 0 mod 7 forces x = y = 0 (since -1 is not
    # a square mod 7), so every candidate has vanishing Jacobian minors
    blocked = DiagonalSystem(a=(1, 1), b=(1, 1))
    wit = padic_witness(blocked, 7, rng=rng)
    assert not wit.found
    assert wit.solution is None
