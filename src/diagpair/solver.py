"""Real anchors, exact solution counting, and the predicted-count comparison.

Counting uses the block structure Theta = Theta_x + Theta_y and
Phi = Phi_x + Phi_z.  The pure-cubic y-block folds into a 1-D `Ledger` r_y
over Theta and the pure-quadratic z-block into a 1-D `Ledger` r_z over Phi.
The shared x-block splits into halves A (its first l // 2 variables) and B,
each folded into a `Ledger` over (Phi, Theta).  The count is then

    R = sum over key pairs (a, b) of n_a n_b r_y(-Theta_a - Theta_b) r_z(-Phi_a - Phi_b),

evaluated chunk by chunk over the |A| |B| pairs.  `--budget` caps the tuples
of each fold and the number of key pairs.  All counts are exact integers.

Witness enumeration orders each coordinate 0, 1, -1, 2, -2, ... so the
first solution found is the smallest in that by-magnitude ordering; plain
integer lexicographic order would just return the all-negative corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget
from .ledger import _CHUNK_PAIRS, Ledger
from .smooth import smooth_set
from .systems import DiagonalSystem


class AnchorError(RuntimeError):
    pass


@dataclass(frozen=True)
class RealAnchor:
    theta: tuple[float, ...]
    residuals: tuple[float, float]
    jacobian_rank: int
    singular_values: tuple[float, float]
    flips: tuple[int, ...]
    system: DiagonalSystem  # sign-normalized so that theta > 0 solves it

    @property
    def s(self) -> int:
        return len(self.theta)


def _forms_and_jacobian(sys: DiagonalSystem, x: np.ndarray):
    cubic = np.array(sys.cubic_coeffs(), dtype=float)
    quad = np.array(sys.quad_coeffs(), dtype=float)
    F = np.array([np.dot(cubic, x**3), np.dot(quad, x * x)])
    J = np.vstack([3.0 * cubic * x * x, 2.0 * quad * x])
    return F, J


def _newton_polish(sys: DiagonalSystem, x0: np.ndarray, steps: int = 80) -> np.ndarray:
    x = x0.copy()
    for _ in range(steps):
        F, J = _forms_and_jacobian(sys, x)
        res = abs(F[0]) + abs(F[1])
        if res < 1e-14:
            break
        G = J @ J.T + 1e-14 * np.eye(2)
        try:
            lam = np.linalg.solve(G, F)
        except np.linalg.LinAlgError:
            break
        step = -J.T @ lam
        scale = 1.0
        for _ in range(12):
            x_new = np.clip(x + scale * step, -0.499, 0.499)
            small = np.abs(x_new) < 1e-3
            x_new[small] = np.where(x_new[small] < 0, -1e-3, 1e-3)
            F_new, _ = _forms_and_jacobian(sys, x_new)
            if abs(F_new[0]) + abs(F_new[1]) < res:
                x = x_new
                break
            scale /= 2.0
        else:
            break
    return x


def _normalize_signs(sys: DiagonalSystem, x: np.ndarray):
    flips = tuple(-1 if v < 0 else 1 for v in x)
    a = tuple(ai * f for ai, f in zip(sys.a, flips[: sys.l]))
    c = tuple(cj * f for cj, f in zip(sys.c, flips[sys.l : sys.l + sys.m]))
    normalized = DiagonalSystem(a=a, b=sys.b, c=c, d=sys.d)
    return np.abs(x), flips, normalized


def find_real_anchor(
    sys: DiagonalSystem,
    rng: Optional[np.random.Generator] = None,
    starts: int = 200,
    require_rank2: bool = True,
) -> RealAnchor:
    """Multi-start damped Newton search for Theta = Phi = 0 in (0, 1/2)^s.

    Starts are random sign/magnitude draws, then a deterministic sweep over
    sign patterns as fallback.  The returned anchor is sign-normalized: the
    flipped system has the same counts and all theta_i positive.
    """
    rng = rng if rng is not None else np.random.default_rng(2023)
    s = sys.s

    def random_starts():
        for _ in range(starts):
            mag = rng.uniform(0.05, 0.45, size=s)
            sign = rng.choice([-1.0, 1.0], size=s)
            yield mag * sign

    def grid_starts():
        for idx in range(min(2**s, 4096)):
            sign = np.array([1.0 if (idx >> i) & 1 else -1.0 for i in range(s)])
            yield 0.3 * sign

    def polish(x0):
        x = _newton_polish(sys, x0)
        F, J = _forms_and_jacobian(sys, x)
        if abs(F[0]) > 1e-10 or abs(F[1]) > 1e-10:
            return None
        if np.any(np.abs(x) < 5e-3) or np.any(np.abs(x) >= 0.5):
            return None
        sv = np.linalg.svd(J, compute_uv=False)
        return x, F, sv, int(np.sum(sv > 1e-6))

    def pack(x, F, sv, rank) -> RealAnchor:
        theta, flips, normalized = _normalize_signs(sys, x)
        return RealAnchor(
            tuple(float(t) for t in theta),
            (float(abs(F[0])), float(abs(F[1]))),
            rank,
            (float(sv[0]), float(sv[1])),
            flips,
            normalized,
        )

    # among rank-2 solutions prefer the most interior one (largest smallest
    # coordinate): downstream box integrals degrade when any theta_i is tiny
    best = None
    best_score = -1.0
    fallback = None
    for x0 in random_starts():
        hit = polish(x0)
        if hit is None:
            continue
        x, F, sv, rank = hit
        if rank == 2:
            score = float(np.min(np.abs(x)))
            if score > best_score:
                best, best_score = (x, F, sv), score
        elif fallback is None:
            fallback = pack(x, F, sv, rank)
    if best is None:
        for x0 in grid_starts():
            hit = polish(x0)
            if hit is None:
                continue
            x, F, sv, rank = hit
            if rank == 2:
                best = (x, F, sv)
                break
            if fallback is None:
                fallback = pack(x, F, sv, rank)
    if best is not None:
        x, F, sv = best
        return pack(x, F, sv, 2)
    if not require_rank2 and fallback is not None:
        return fallback
    raise AnchorError(
        "no nonsingular real solution found in (0, 1/2)^s; "
        "the system may fail the real solubility condition"
    )


# -- exact counting ------------------------------------------------------

_WitnessRanges = Sequence[Sequence[int]]


def _ordered_values(rng: Sequence[int]) -> list[int]:
    return sorted(rng, key=lambda v: (abs(v), v < 0))


def _count_via_ledgers(sys: DiagonalSystem, ranges: _WitnessRanges, budget: int) -> int:
    """Exact count of points in the ranges where Theta = Phi = 0.

    Sums n_a n_b r_y(-Theta_a - Theta_b) r_z(-Phi_a - Phi_b) over the key
    pairs (a, b) of the two x-half ledgers, in chunks of _CHUNK_PAIRS pairs.
    """
    cubic = sys.cubic_coeffs()
    quad = sys.quad_coeffs()
    l, m = sys.l, sys.m
    blocks = (range(l // 2), range(l // 2, l), range(l, l + m), range(l + m, sys.s))
    check_budget(max(math.prod(len(ranges[i]) for i in idx) for idx in blocks), budget, what="count fold tuples")
    # Every product of counts below is at most the total mass, so the folds
    # stay int64 while it is below 2^62 and are object arrays past that.
    mass = math.prod(len(r) for r in ranges)

    def fold(idx, forms) -> Ledger:
        """Ledger over the values of the given (coefficients, exponent) forms."""
        bounds = [sum(abs(c[i]) * max(abs(v) ** e for v in ranges[i]) for i in idx) for c, e in forms]
        out = Ledger.from_vectors([(0,) * len(forms)], bounds, mass)
        for i in idx:
            gen = [tuple(c[i] * v**e for c, e in forms) for v in ranges[i]]
            out = out.convolve(Ledger.from_vectors(gen, bounds, mass))
        return out

    half_a, half_b = (fold(idx, ((quad, 2), (cubic, 3))) for idx in blocks[:2])
    r_y = fold(blocks[2], ((cubic, 3),))
    r_z = fold(blocks[3], ((quad, 2),))
    check_budget(len(half_a.keys) * len(half_b.keys), budget, what="count key pairs")
    (phi_a, theta_a), (phi_b, theta_b) = half_a.fields(), half_b.fields()
    rows = max(1, _CHUNK_PAIRS // len(half_b.keys))
    total = 0
    for i in range(0, len(half_a.keys), rows):
        chunk = slice(i, i + rows)
        weight = r_y.lookup(-(theta_a[chunk, None] + theta_b)) * r_z.lookup(-(phi_a[chunk, None] + phi_b))
        total += int((half_a.counts[chunk, None] * half_b.counts * weight).sum())
    return total


_WITNESS_NODE_CAP = 2_000_000


def _witness_scan(
    sys: DiagonalSystem, ranges: _WitnessRanges, limit: int
) -> tuple[list[tuple[int, ...]], int]:
    """DFS in by-magnitude order with interval pruning; skips the zero tuple.

    Returns the solutions found and the nodes visited.  The scan gives up
    once it has visited more than _WITNESS_NODE_CAP nodes.
    """
    cubic = sys.cubic_coeffs()
    quad = sys.quad_coeffs()
    s = sys.s
    ordered = [_ordered_values(r) for r in ranges]
    suf3_lo = [0] * (s + 1)
    suf3_hi = [0] * (s + 1)
    suf2_lo = [0] * (s + 1)
    suf2_hi = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        v3 = [cubic[i] * v**3 for v in ordered[i]]
        v2 = [quad[i] * v * v for v in ordered[i]]
        suf3_lo[i] = suf3_lo[i + 1] + min(v3)
        suf3_hi[i] = suf3_hi[i + 1] + max(v3)
        suf2_lo[i] = suf2_lo[i + 1] + min(v2)
        suf2_hi[i] = suf2_hi[i + 1] + max(v2)
    found: list[tuple[int, ...]] = []
    visited = 0
    stack_vals: list[int] = []

    def dfs(i: int, t: int, f: int) -> bool:
        nonlocal visited
        visited += 1
        if visited > _WITNESS_NODE_CAP:
            return True
        if i == s:
            point = tuple(stack_vals)
            if t == 0 and f == 0 and any(point):
                found.append(point)
                return len(found) >= limit
            return False
        if not (suf3_lo[i] <= -t <= suf3_hi[i] and suf2_lo[i] <= -f <= suf2_hi[i]):
            return False
        for v in ordered[i]:
            stack_vals.append(v)
            stop = dfs(i + 1, t + cubic[i] * v**3, f + quad[i] * v * v)
            stack_vals.pop()
            if stop:
                return True
        return False

    dfs(0, 0, 0)
    return found, visited


@dataclass(frozen=True)
class SolutionCount:
    bound: object
    count: int
    restriction: str
    witnesses: tuple[tuple[int, ...], ...]
    witnesses_truncated: bool  # the witness scan gave up before witness_limit hits


def _build_ranges(
    sys: DiagonalSystem,
    bounds: Union[int, tuple],
    restriction: str,
    R: Optional[int],
) -> tuple[_WitnessRanges, str]:
    if isinstance(bounds, int):
        if bounds < 0:
            raise ValueError("B must be >= 0")
        if restriction != "none":
            raise ValueError("smooth restrictions apply to box counts, not |x| <= B counts")
        return [range(-bounds, bounds + 1)] * sys.s, "N"
    P, theta = bounds
    if len(theta) != sys.s:
        raise ValueError("need one box anchor per variable")
    ranges = []
    for i, th in enumerate(theta):
        lo = math.floor(th * P / 2) + 1
        hi = math.floor(2 * th * P)
        if hi < lo:
            raise ValueError(f"box for variable {i} is empty at P={P}")
        ranges.append(range(lo, hi + 1))
    if restriction == "none":
        return ranges, "R"
    if R is None:
        raise ValueError("smooth restriction needs R")
    allowed = set(smooth_set(max(r.stop for r in ranges), R))
    if restriction == "smooth-y":
        idx = range(sys.l, sys.l + sys.m)
    elif restriction == "smooth-xl":
        if sys.l == 0:
            raise ValueError("no shared variables to restrict")
        idx = [sys.l - 1]
    else:
        raise ValueError(f"unknown restriction {restriction!r}")
    out: list[Sequence[int]] = list(ranges)
    for i in idx:
        vals = [v for v in ranges[i] if v in allowed]
        if not vals:
            raise ValueError(f"smooth restriction empties the box of variable {i}")
        out[i] = vals
    return out, "R"


def count_solutions(
    sys: DiagonalSystem,
    bounds: Union[int, tuple],
    restriction: str = "none",
    R: Optional[int] = None,
    budget: int = DEFAULT_LEDGER_BUDGET,
    witness_limit: int = 10,
) -> SolutionCount:
    """Exact number of solutions in the given ranges, with a few witnesses.

    bounds is either an integer B (count |x_i| <= B, zero tuple included)
    or a pair (P, theta) for the boxes (theta_i P/2, 2 theta_i P].
    Restrictions: "smooth-y" intersects the pure-cubic block with the
    R-smooth set, "smooth-xl" restricts the last shared variable.
    """
    ranges, style = _build_ranges(sys, bounds, restriction, R)
    count = _count_via_ledgers(sys, ranges, budget)
    witnesses, visited = _witness_scan(sys, ranges, witness_limit)
    return SolutionCount(bounds, count, restriction, tuple(witnesses), visited > _WITNESS_NODE_CAP)


def search_witness(sys: DiagonalSystem, B: int) -> Optional[tuple[int, ...]]:
    """Smallest nonzero solution with |x_i| <= B in by-magnitude order.

    Returns None when the box holds no nonzero solution, and raises
    BudgetError when the scan gives up before finding one.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    hits, visited = _witness_scan(sys, [range(-B, B + 1)] * sys.s, limit=1)
    if hits:
        return hits[0]
    check_budget(visited, _WITNESS_NODE_CAP, what="witness search nodes")
    return None


def verify_solution(sys: DiagonalSystem, point: Sequence[int]) -> bool:
    theta, phi = sys.eval_forms(point)
    return theta == 0 and phi == 0


def predict_and_compare(
    sys: DiagonalSystem,
    P: float,
    Q: int = 100,
    eta: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    mc_samples: int = 400_000,
    budget: int = DEFAULT_LEDGER_BUDGET,
) -> dict:
    """Compare exact box counts R(P) against the predicted C * S(Q) * P^(s-5).

    `budget` caps the singular series tables and every exact count.
    With eta given, also forms the smooth-restricted predictions: the
    smooth-y count carries one Dickman factor per pure-cubic variable and
    the smooth-x_l count carries a single factor.
    """
    from .archimedean import volume_constant
    from .local import singular_series
    from .smooth import c_eta

    anchor = find_real_anchor(sys, rng=rng)
    series = singular_series(anchor.system, Q, budget=budget)
    C, C_err = volume_constant(anchor.system, anchor.theta, rng=rng, samples=mc_samples)
    prediction = C * series.value * P ** (sys.s - 5)
    exact = count_solutions(anchor.system, (P, anchor.theta), budget=budget)
    report = {
        "P": P,
        "Q": Q,
        "series": series.value,
        "C": C,
        "C_stderr": C_err,
        "prediction": prediction,
        "count": exact.count,
        "ratio": exact.count / prediction if prediction else math.inf,
        "anchor_theta": anchor.theta,
        "witnesses": exact.witnesses[:3],
        "witnesses_truncated": exact.witnesses_truncated,
    }
    if eta is not None:
        R = max(2, math.floor(P**eta))
        ce = c_eta(eta)
        variants = {}
        smooth_y = count_solutions(anchor.system, (P, anchor.theta), "smooth-y", R=R, budget=budget)
        variants["smooth-y"] = {
            "count": smooth_y.count,
            "prediction": ce**sys.m * prediction,
            "R": R,
        }
        if sys.l > 0:
            smooth_xl = count_solutions(anchor.system, (P, anchor.theta), "smooth-xl", R=R, budget=budget)
            variants["smooth-xl"] = {
                "count": smooth_xl.count,
                "prediction": ce * prediction,
                "R": R,
            }
        report["variants"] = variants
    return report
