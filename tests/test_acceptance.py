"""Gate tests: every acceptance criterion at desk scale, one test each.

The desk profile is computed once per session and shared; each test then
asserts its criterion's pass flag, so the pytest output carries one
pass/fail line per criterion.  Criterion 11 is a strict expected failure:
its middle clause compares a finite smooth-number density at X = 1e5
against the asymptotic limit, and the finite-size excess (about 0.05
here, decaying like 1/log X) exceeds the 0.02 tolerance for every
computationally reachable X.
"""

import pytest

from diagpair import acceptance
from diagpair.acceptance import format_results, run_all

NAMES = [
    "diagonal moment T_3 limit",
    "T_4 growth exponent",
    "oracle equivalence",
    "shifted-block structure identity",
    "Vinogradov cubic ratio",
    "local identity",
    "complete-sum magnitudes",
    "singular series convergence",
    "singular integral vs volume",
    "solution-count growth",
    "smooth numbers and Dickman",
    "transference bound report",
]
# the tags that end a smoke run's details, by criterion
SMOKE_TAGS = {1: "(smoke grid)", 3: "(smoke subset)", 4: "(smoke grid)", 7: "(smoke grid)", 8: "(smoke heights)",
              9: "(smoke sizes)", 12: "(smoke grid)"}


@pytest.fixture(scope="module")
def desk():
    results = run_all("desk")
    return {r.index: r for r in results}


def _check(desk, idx):
    res = desk[idx]
    assert res.passed, f"criterion {idx} [{res.name}]: {res.detail}"


def test_criterion_01_diagonal_moment_limit(desk):
    _check(desk, 1)


def test_criterion_02_growth_exponent(desk):
    _check(desk, 2)


def test_criterion_03_oracle_equivalence(desk):
    _check(desk, 3)


def test_criterion_04_shifted_block_identity(desk):
    _check(desk, 4)


def test_criterion_05_cubic_moment_ratio(desk):
    _check(desk, 5)


def test_criterion_06_local_identity(desk):
    _check(desk, 6)


def test_criterion_07_complete_sum_magnitudes(desk):
    _check(desk, 7)


def test_criterion_08_series_convergence(desk):
    _check(desk, 8)


def test_criterion_09_integral_vs_volume(desk):
    _check(desk, 9)


def test_criterion_10_count_growth(desk):
    _check(desk, 10)


@pytest.mark.xfail(
    strict=True,
    reason="finite-size smooth density excess at X=1e5 is ~0.05, above the "
    "0.02 tolerance; it decays like 1/log X and would need X near 1e18",
)
def test_criterion_11_smooth_density(desk):
    _check(desk, 11)


def test_criterion_12_transference_report(desk):
    _check(desk, 12)


def test_report_covers_all_criteria(desk):
    text = format_results(list(desk.values()))
    lines = text.strip().splitlines()
    assert len(lines) == 13
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].endswith("criteria passed")


def test_run_all_is_serial():
    with pytest.raises(ValueError):
        run_all("smoke", jobs=2)


def test_registry_order_names_and_smoke_tags(desk):
    assert acceptance._CRITERIA == [getattr(acceptance, f"criterion_{k}") for k in range(1, 13)]
    assert [(r.index, r.name) for r in desk.values()] == list(enumerate(NAMES, 1))
    smoke = run_all("smoke")
    assert [(r.index, r.name) for r in smoke] == list(enumerate(NAMES, 1))
    for r in smoke:
        tagged = [tag for tag in set(SMOKE_TAGS.values()) if r.detail.endswith(" " + tag)]
        assert tagged == ([SMOKE_TAGS[r.index]] if r.index in SMOKE_TAGS else []), r.detail
        assert r.detail.count("(smoke") == len(tagged)


def test_registered_criterion_is_numbered_timed_and_never_raises(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", list(acceptance._CRITERIA))

    @acceptance._criterion("crashes", " (smoke tag)")
    def criterion_13(desk):
        """Raises on desk, passes on smoke."""
        if desk:
            raise ZeroDivisionError("desk")
        return True, "ok"

    assert acceptance._CRITERIA[-1] is criterion_13
    assert (criterion_13.__name__, criterion_13.__doc__) == ("criterion_13", "Raises on desk, passes on smoke.")
    desk, smoke = criterion_13("desk"), criterion_13("smoke")
    assert (desk.index, desk.name, desk.passed, desk.detail) == (13, "crashes", False, "raised ZeroDivisionError: desk")
    assert (smoke.index, smoke.passed, smoke.detail) == (13, True, "ok (smoke tag)")
    assert desk.elapsed >= 0
