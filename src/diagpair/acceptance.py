"""Gate checks tying the whole pipeline together, with smoke/desk tiers.

Each criterion is a body registered with `_criterion`, which numbers it
by its place in `_CRITERIA`, times it, turns a crash into a failure, and
in the smoke tier appends the criterion's smoke tag to the detail string.
A body takes `desk` (True for the full grids, False for the smoke tier's
smaller ones) and returns (passed, detail).  Every `criterion_k(profile)`
returns a CriterionResult and never raises; run_all collects all twelve so
a report always shows one line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import transfer_grid, transfer_lambda
from .archimedean import extrapolate_ladder, singular_integral, volume_constant
from .expsums import BoxSumSpec
from .local import (
    _component_rows,
    _primitive_max,
    chi_p_partial,
    count_congruences,
    singular_series,
)
from .moments import (
    classify_I2,
    count_J1,
    fit_exponent,
    mixed_moment,
    moment_I,
    moment_J,
    moment_T,
)
from .oracles import (
    brute_count_congruences,
    brute_count_J1,
    brute_count_solutions,
    brute_mixed_moment,
    brute_moment_I,
    brute_moment_J,
    brute_moment_T,
    direct_series_term,
)
from .smooth import dickman_rho, smooth_mask, smooth_set
from .solver import count_solutions, verify_solution
from .systems import BUILTIN_SYSTEMS, DiagonalSystem

BALANCED11 = BUILTIN_SYSTEMS["balanced11"]
SAMPLE5 = BUILTIN_SYSTEMS["sample5"]
LADDER6 = BUILTIN_SYSTEMS["ladder6"]
LADDER6_THETA = (0.3, 0.3, 0.25, 0.25, 0.35, 0.35)

# frozen empirical ceilings, each read off its criterion's desk detail line
WEYL_RATIO_CONST = 2.394  # max |S_f| q^(-2/3-0.05) over q <= 200, measured 2.3931
TRANSFER_C2_CEILING = 4.0  # observed max 2.0813 on the desk grid, seed 12


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


_CRITERIA: list = []


def _criterion(name: str, smoke_tag: str = ""):
    """Register `body(desk)` as the next criterion, numbered by its place in `_CRITERIA`."""

    def register(body):
        index = len(_CRITERIA) + 1

        def criterion(profile: str = "desk") -> CriterionResult:
            start = time.time()
            try:
                passed, detail = body(profile == "desk")
            except Exception as exc:  # noqa: BLE001 - a crashed criterion is a failed criterion
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            if profile != "desk":
                detail += smoke_tag
            return CriterionResult(index, name, passed, detail, time.time() - start)

        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        _CRITERIA.append(criterion)
        return criterion

    return register


@_criterion("diagonal moment T_3 limit", " (smoke grid)")
def criterion_1(desk: bool) -> tuple[bool, str]:
    """T_3(X)/X^3 approaches 6 with deviation inside 30 X^(-2/3), shrinking."""
    xs = [60, 90, 120] if desk else [30, 60]
    devs = []
    for X in xs:
        t3 = int(moment_T(3, X))
        dev = abs(t3 / X**3 - 6.0)
        if dev > 5 * 6 * X ** (-2 / 3):
            return False, f"X={X}: deviation {dev:.4f} exceeds bound"
        devs.append(dev)
    mono = all(a > b for a, b in zip(devs, devs[1:]))
    return mono, f"deviations {[round(d, 4) for d in devs]} monotone={mono}"


@_criterion("T_4 growth exponent")
def criterion_2(desk: bool) -> tuple[bool, str]:
    """log T_4 against log X fits a slope in [3.8, 4.7]."""
    xs = [20, 30, 40, 60] if desk else [20, 30, 40]
    series = [(X, int(moment_T(4, X))) for X in xs]
    slope, resid = fit_exponent(series)
    ok = 3.8 <= slope <= 4.7
    return ok, f"slope {slope:.4f} resid {resid:.4f} over X={xs}"


_TINY2 = BUILTIN_SYSTEMS["tiny2"]
_SMALL4 = DiagonalSystem(a=(1, -1), b=(1, -1), c=(), d=(1, -1))
_SMALL3 = DiagonalSystem(a=(1, 1), b=(1, -1), c=(1,), d=())


def _oracle_instances(desk: bool):
    f_spec = BoxSumSpec(theta=0.3, P=8.0, cubic=1, quad=1)
    h_spec = BoxSumSpec(theta=0.4, P=8.0, quad=1)
    g_spec = BoxSumSpec(theta=0.3, P=10.0, cubic=1)
    g_smooth = BoxSumSpec(theta=0.3, P=12.0, cubic=1, smooth_R=3)
    inst = [
        ("moment_T(1,5)", lambda: int(moment_T(1, 5)), lambda: brute_moment_T(1, 5)),
        ("moment_T(2,10)", lambda: int(moment_T(2, 10)), lambda: brute_moment_T(2, 10)),
        ("moment_T(3,8)", lambda: int(moment_T(3, 8)), lambda: brute_moment_T(3, 8)),
        ("moment_I(2,3,3)", lambda: int(moment_I(2, 3, 3)), lambda: brute_moment_I(2, 3, 3)),
        ("moment_I(3,2,2)", lambda: int(moment_I(3, 2, 2)), lambda: brute_moment_I(3, 2, 2)),
        ("moment_J(2,8)", lambda: int(moment_J(2, 8)), lambda: brute_moment_J(2, 8)),
        ("count_J1(3,3)", lambda: int(count_J1(3, 3)), lambda: brute_count_J1(3, 3)),
        ("mixed f^2", lambda: int(mixed_moment([f_spec], [2])), lambda: brute_mixed_moment([f_spec], [2])),
        ("count_solutions s2 B=10", lambda: count_solutions(_TINY2, 10).count, lambda: brute_count_solutions(_TINY2, 10)),
        ("count_congruences q=4", lambda: count_congruences(SAMPLE5, 4), lambda: brute_count_congruences(SAMPLE5, 4)),
        ("count_congruences s2 q=3", lambda: count_congruences(_TINY2, 3), lambda: brute_count_congruences(_TINY2, 3)),
        ("moment_I(1,5,4)", lambda: int(moment_I(1, 5, 4)), lambda: brute_moment_I(1, 5, 4)),
        ("moment_J(3,6)", lambda: int(moment_J(3, 6)), lambda: brute_moment_J(3, 6)),
        ("count_J1(2,2)", lambda: int(count_J1(2, 2)), lambda: brute_count_J1(2, 2)),
    ]
    if not desk:
        return inst
    inst += [
        ("moment_T(2,25)", lambda: int(moment_T(2, 25)), lambda: brute_moment_T(2, 25)),
        ("moment_T(2,40)", lambda: int(moment_T(2, 40)), lambda: brute_moment_T(2, 40)),
        ("moment_I(2,4,2)", lambda: int(moment_I(2, 4, 2)), lambda: brute_moment_I(2, 4, 2)),
        ("moment_J(2,14)", lambda: int(moment_J(2, 14)), lambda: brute_moment_J(2, 14)),
        ("count_J1(4,4)", lambda: int(count_J1(4, 4)), lambda: brute_count_J1(4, 4)),
        ("mixed f^2 h^2", lambda: int(mixed_moment([f_spec, h_spec], [2, 2])), lambda: brute_mixed_moment([f_spec, h_spec], [2, 2])),
        ("mixed g^4", lambda: int(mixed_moment([g_spec], [4])), lambda: brute_mixed_moment([g_spec], [4])),
        ("mixed smooth g^2", lambda: int(mixed_moment([g_smooth], [2])), lambda: brute_mixed_moment([g_smooth], [2])),
        ("count_solutions s4 B=6", lambda: count_solutions(_SMALL4, 6).count, lambda: brute_count_solutions(_SMALL4, 6)),
        ("count_solutions s3 B=8", lambda: count_solutions(_SMALL3, 8).count, lambda: brute_count_solutions(_SMALL3, 8)),
        ("count_solutions s4 B=9", lambda: count_solutions(_SMALL4, 9).count, lambda: brute_count_solutions(_SMALL4, 9)),
        ("count_congruences q=9", lambda: count_congruences(SAMPLE5, 9), lambda: brute_count_congruences(SAMPLE5, 9)),
        ("count_congruences q=12", lambda: count_congruences(SAMPLE5, 12), lambda: brute_count_congruences(SAMPLE5, 12)),
    ]
    return inst


@_criterion("oracle equivalence", " (smoke subset)")
def criterion_3(desk: bool) -> tuple[bool, str]:
    """Every counting path agrees exactly with nested-loop brute force."""
    inst = _oracle_instances(desk)
    for name, fast, brute in inst:
        got, want = fast(), brute()
        if got != want:
            return False, f"{name}: ledger {got} != brute {want}"
    return True, f"{len(inst)} instances exact"


@_criterion("shifted-block structure identity", " (smoke grid)")
def criterion_4(desk: bool) -> tuple[bool, str]:
    """Product identity holds on every I_2 solution; I_2 under its bound."""
    top = 6 if desk else 4
    worst = 0.0
    for Y in range(1, top + 1):
        for H in range(1, top + 1):
            cls = classify_I2(Y, H)
            if cls.identity_violations:
                return False, f"(Y,H)=({Y},{H}): {cls.identity_violations} identity violations"
            if cls.total != int(moment_I(2, Y, H)):
                return False, f"(Y,H)=({Y},{H}): bucket total {cls.total} != I_2"
            bound = 10 * (H**3 * Y + (H * Y) ** 2 * (1 + math.log(H * Y)) ** 2)
            worst = max(worst, cls.total / bound)
            if cls.total > bound:
                return False, f"(Y,H)=({Y},{H}): I_2 {cls.total} above bound {bound:.0f}"
    return True, f"grid <= {top}: identity exact, worst I_2/bound {worst:.3f}"


@_criterion("Vinogradov cubic ratio")
def criterion_5(desk: bool) -> tuple[bool, str]:
    """Cubic Vinogradov ratio J_{3,3}(X)/X^3 stays under 40."""
    xs = [20, 40, 60, 80, 100] if desk else [20, 40, 60]
    ratios = []
    for X in xs:
        r = int(moment_J(3, X)) / X**3
        if r > 40:
            return False, f"X={X}: ratio {r:.2f} > 40"
        ratios.append(round(r, 3))
    return True, f"ratios {ratios}"


@_criterion("local identity")
def criterion_6(desk: bool) -> tuple[bool, str]:
    """Sum of complete sums at p^h equals the normalized congruence count."""
    worst = 0.0
    for p, t in [(2, 2), (3, 2), (5, 1)]:
        part = chi_p_partial(SAMPLE5, p, t)
        worst = max(worst, part.relative_gap)
        if part.relative_gap > 1e-8:
            return False, f"(p,t)=({p},{t}): relative gap {part.relative_gap:.2e}"
    return True, f"worst relative gap {worst:.2e}"


@_criterion("complete-sum magnitudes", " (smoke grid)")
def criterion_7(desk: bool) -> tuple[bool, str]:
    """Gauss magnitudes, the trivial bound, and the recorded Weyl-ratio ceiling.

    Every complete sum is read from the DFT rows of `local._component_rows`:
    one row per (p, dk) holds S(p; r2, 0) of the Gauss check at every r2.
    The Weyl ratio is max |S(q; r)| q^(-2/3-0.05) over the primitive r mod
    q <= q_top for (A3, A2) = (1, 1) and (1, -1), each maximum read from
    one scaling-orbit row per orbit of r3 (`local._primitive_max`), not
    from the q x q table.
    """
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for dk in (1, -1, 2):
            if dk % p == 0:
                continue
            row = np.abs(_component_rows(p, np.array([(0, dk % p)]), np.array([0]))[0, 0])
            for r2 in range(1, p):
                if abs(row[r2] - math.sqrt(p)) > 1e-8:
                    return False, f"|S({p}, r2={r2}; 0, {dk})| = {row[r2]:.8f} != sqrt({p})"
    rng = np.random.default_rng(3)
    key = [(1, -2), (3, 0), (0, -1)]
    cells, r3s = [], {}
    for _ in range(200):
        q = int(rng.integers(1, 60))
        r2, r3 = int(rng.integers(0, q + 1)), int(rng.integers(0, q + 1))
        cells.append((q, r2))
        r3s.setdefault(q, []).append(r3)
    # one call per q, its rows the r3 drawn at that q, read back in draw order
    rows = {q: iter(_component_rows(q, np.array(key) % q, np.array(r)).transpose(1, 0, 2)) for q, r in r3s.items()}
    for q, r2 in cells:
        for (A3, A2), S in zip(key, next(rows[q])[:, r2 % q]):
            if abs(S) > q + 1e-9:
                return False, f"|S({q}; {A3}, {A2})| above trivial bound"
    q_top = 200 if desk else 100
    ratio = 0.0
    for q in range(1, q_top + 1):
        for mag in _primitive_max(q, ((1, 1), (1, -1))):
            ratio = max(ratio, mag * q ** (-2 / 3 - 0.05))
    if ratio > WEYL_RATIO_CONST:
        return False, f"Weyl ratio {ratio:.4f} exceeds recorded {WEYL_RATIO_CONST}"
    return True, f"gauss exact, trivial bound held, Weyl ratio {ratio:.4f} <= {WEYL_RATIO_CONST}"


@_criterion("singular series convergence", " (smoke heights)")
def criterion_8(desk: bool) -> tuple[bool, str]:
    """Singular series tails shrink and A(q) is exactly multiplicative."""
    heights = [50, 100, 200, 400] if desk else [50, 100, 200]
    res = singular_series(BALANCED11, heights[-1])
    partials = [float(res.partials[Q - 1]) for Q in heights]
    diffs = [abs(b - a) for a, b in zip(partials, partials[1:])]
    if not all(a > b for a, b in zip(diffs, diffs[1:])):
        return False, f"differences not decreasing: {diffs}"
    if partials[-1] <= 0:
        return False, f"final partial {partials[-1]:.6f} <= 0"
    # res.A at composite q is built as a product, so the left side of the
    # identity comes from direct complete sums, which every res.A[q] matches;
    # q = 15 is the first composite where balanced11's A(q) is not 0
    direct = {q: direct_series_term(BALANCED11, q)[0] for q in range(2, 16)}
    for q, a in direct.items():
        if abs(res.A[q] - a) > 1e-9 * max(1.0, abs(a)):
            return False, f"A({q}) != direct A({q})"
    for q1 in range(2, 16):
        for q2 in range(2, 16):
            if q1 * q2 > 15 or math.gcd(q1, q2) != 1:
                continue
            lhs, rhs = direct[q1 * q2], res.A[q1] * res.A[q2]
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
                return False, f"A({q1 * q2}) != A({q1})A({q2})"
    return True, f"partials {[round(p, 6) for p in partials]}, A multiplicative"


@_criterion("singular integral vs volume", " (smoke sizes)")
def criterion_9(desk: bool) -> tuple[bool, str]:
    """Dyadic W(Q) tails decay in the expected band; the coarea MC density matches the limit."""
    heights = [16, 32, 64, 128] if desk else [16, 32, 64]
    _, diag = singular_integral(LADDER6, heights[-1], 1.0, LADDER6_THETA, heights=heights)
    ratios = diag["tail_ratios"]
    for r in ratios:
        if not 0.25 <= r <= 0.75:
            return False, f"tail ratio {r:.3f} outside [0.25, 0.75] (ratios {ratios})"
    limit, err = extrapolate_ladder([diag["ladder"][h] for h in heights])
    samples = 400_000 if desk else 100_000
    c, sigma = volume_constant(LADDER6, LADDER6_THETA, samples=samples)
    gap = abs(limit - c)
    window = 3 * math.hypot(err, sigma)
    ok = gap <= window
    return ok, (
        f"ratios {[round(r, 3) for r in ratios]}, limit {limit:.5f}+-{err:.1e}, "
        f"MC {c:.5f}+-{sigma:.1e}, gap {gap:.2e} vs {window:.2e}"
    )


@_criterion("solution-count growth")
def criterion_10(desk: bool) -> tuple[bool, str]:
    """Meet-in-middle N(B) grows like B^6 on the balanced system, with a witness."""
    start = time.time()
    r6 = count_solutions(BALANCED11, 6)
    r12 = count_solutions(BALANCED11, 12)
    ratio = r12.count / r6.count
    if not 32 <= ratio <= 128:
        return False, f"N(12)/N(6) = {ratio:.2f} outside [32, 128]"
    if not r6.witnesses:
        return False, "no nonzero witness found"
    w = r6.witnesses[0]
    if not verify_solution(BALANCED11, w):
        return False, f"witness {w} fails exact verification"
    elapsed = time.time() - start
    if elapsed > 600:
        return False, f"runtime {elapsed:.0f}s over 10 min"
    return True, f"N(6)={r6.count}, N(12)={r12.count}, ratio {ratio:.2f}, witness {w}"


@_criterion("smooth numbers and Dickman")
def criterion_11(desk: bool) -> tuple[bool, str]:
    """Dickman value, smooth-count density, and the exact small set."""
    rho_err = abs(dickman_rho(2.0) - (1 - math.log(2)))
    if rho_err > 1e-6:
        return False, f"rho(2) off by {rho_err:.2e}"
    X = 10**5
    dens = np.count_nonzero(smooth_mask(X, math.isqrt(X))) / X
    gap = abs(dens - (1 - math.log(2)))
    small = smooth_set(10, 3)
    if small != [1, 2, 3, 4, 6, 8, 9]:
        return False, f"A(10,3) = {small}"
    if gap > 0.02:
        return False, (
            f"rho(2) exact to {rho_err:.1e} and A(10,3) exact, but "
            f"|A(1e5,316)|/1e5 = {dens:.5f} is {gap:.4f} from rho(2); the "
            f"finite-size excess decays like 1/log X and is ~0.05 at this X"
        )
    return True, f"rho(2) err {rho_err:.1e}, density gap {gap:.4f}, A(10,3) exact"


@_criterion("transference bound report", " (smoke grid)")
def criterion_12(desk: bool) -> tuple[bool, str]:
    """Transference arithmetic exact; block-sum bound constants bounded on the grid."""
    if transfer_lambda(Fraction(1, 3), 1, 3, 10) != 3:
        return False, "lambda(1/3; 1,3) != 3"
    if transfer_lambda(Fraction(51, 100), 1, 2, 100) != 4:
        return False, "lambda(0.51; 1,2, Z=100) != 4"
    if transfer_lambda(Fraction(2, 7), 1, 3, 14) != 5:
        return False, "lambda(2/7; 1,3, Z=14) != 5"
    lo, hi = (4, 13) if desk else (4, 9)
    cells = [(H, Y) for H in range(lo, hi) for Y in range(lo, hi)]
    grid = transfer_grid(cells, np.random.default_rng(12))
    vals = [rep["C2_observed"] for rep in grid.values()]
    if not all(math.isfinite(v) for v in vals):
        return False, "non-finite C2 on the grid"
    if max(vals) > TRANSFER_C2_CEILING:
        return False, f"C2 max {max(vals):.4f} exceeds recorded {TRANSFER_C2_CEILING}"
    return True, f"lambda exact; C2 in [{min(vals):.3f}, {max(vals):.3f}]"


def run_all(profile: str = "desk", jobs: int = 1) -> list[CriterionResult]:
    """Run every criterion in order, serially.

    `jobs` is kept only because perfbench/workloads.py passes `jobs=1`;
    any other value raises ValueError.
    """
    if profile not in ("smoke", "desk"):
        raise ValueError("profile must be 'smoke' or 'desk'")
    if jobs != 1:
        raise ValueError("criteria run serially; jobs must be 1")
    return [f(profile) for f in _CRITERIA]


def format_results(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} criterion {r.index:2d} [{r.name}] ({r.elapsed:.1f}s): {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
