"""Real anchors, exact solution counting, and the predicted-count comparison.

Counting uses the block structure Theta = Theta_x + Theta_y and
Phi = Phi_x + Phi_z.  The pure-cubic y-block folds into a 1-D `Ledger` r_y
over Theta and the pure-quadratic z-block into a 1-D `Ledger` r_z over Phi.
The shared x-block splits into halves A (its first l // 2 variables) and B,
each folded into a `Ledger` over (Theta, Phi), so that A's keys run in
order of Phi_a.  The count is then

    R = sum over Phi-runs u of A, over keys a with Phi_a = u, and over keys b
        with r_z(-u - Phi_b) != 0, of n_a n_b r_y(-Theta_a - Theta_b) r_z(-u - Phi_b),

evaluated chunk by chunk.  Only the pairs that the z-block can close are
formed, at most the |A| |B| that `count key pairs` checks.  r_y and r_z are
each scattered once into a table when the x-halves' keys are int64 and the
span of their sums is no larger than |A| |B|, and searched per chunk
otherwise (`_negated_weights`).  `--budget` caps each variable's range,
the key pairs of each fold's convolutions and of the sum, and the nodes of
the witness scan; every block's fold is checked on its generator counts
(`check_fold`) before any block is built.  All counts are exact integers.

Witness enumeration orders each coordinate 0, 1, -1, 2, -2, ... so the
first solution found is the smallest in that by-magnitude ordering; plain
integer lexicographic order would just return the all-negative corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import ledger
from .budget import DEFAULT_LEDGER_BUDGET, check_budget
from .expsums import BoxSumSpec
from .ledger import Ledger, check_fold, dtype_for, form_values
from .systems import AnchorError, DiagonalSystem


@dataclass(frozen=True)
class RealAnchor:
    theta: tuple[float, ...]
    residuals: tuple[float, float]
    singular_values: tuple[float, float]
    flips: tuple[int, ...]
    system: DiagonalSystem  # sign-normalized so that theta > 0 solves it


def _forms_and_jacobian(sys: DiagonalSystem, x: np.ndarray):
    cubic = np.array(sys.cubic_coeffs(), dtype=float)
    quad = np.array(sys.quad_coeffs(), dtype=float)
    F = np.array([np.dot(cubic, x**3), np.dot(quad, x * x)])
    J = np.vstack([3.0 * cubic * x * x, 2.0 * quad * x])
    return F, J


def _newton_polish(sys: DiagonalSystem, x0: np.ndarray) -> np.ndarray:
    x = x0.copy()
    for _ in range(80):
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


# find_real_anchor's random Newton starts, each polished once
_RANDOM_STARTS = 200


def find_real_anchor(sys: DiagonalSystem, rng: Optional[np.random.Generator] = None) -> RealAnchor:
    """Multi-start damped Newton search for Theta = Phi = 0 in (0, 1/2)^s.

    The starts are _RANDOM_STARTS random sign/magnitude draws, with no
    fallback.  The returned anchor is sign-normalized: the flipped system
    has the same counts and all theta_i positive.
    """
    rng = rng if rng is not None else np.random.default_rng(2023)
    # among rank-2 solutions prefer the most interior one (largest smallest
    # coordinate): downstream box integrals degrade when any theta_i is tiny
    best, best_score = None, -1.0
    for _ in range(_RANDOM_STARTS):
        mag = rng.uniform(0.05, 0.45, size=sys.s)
        x = _newton_polish(sys, mag * rng.choice([-1.0, 1.0], size=sys.s))
        F, J = _forms_and_jacobian(sys, x)
        if abs(F[0]) > 1e-10 or abs(F[1]) > 1e-10:
            continue
        if np.any(np.abs(x) < 5e-3) or np.any(np.abs(x) >= 0.5):
            continue
        sv = np.linalg.svd(J, compute_uv=False)
        if np.sum(sv > 1e-6) < 2:  # Jacobian rank below 2
            continue
        score = float(np.min(np.abs(x)))
        if score > best_score:
            best, best_score = (x, F, sv), score
    if best is None:
        raise AnchorError(
            "no nonsingular real solution found in (0, 1/2)^s; "
            "the system may fail the real solubility condition"
        )
    x, F, sv = best
    theta, flips, normalized = _normalize_signs(sys, x)
    return RealAnchor(
        tuple(float(t) for t in theta),
        (float(abs(F[0])), float(abs(F[1]))),
        (float(sv[0]), float(sv[1])),
        flips,
        normalized,
    )


# -- exact counting ------------------------------------------------------

_WitnessRanges = Sequence[Sequence[int]]


def _ordered_values(rng: Sequence[int]) -> list[int]:
    return sorted(rng, key=lambda v: (abs(v), v < 0))


def _negated_weights(r: Ledger, lo: int, hi: int, table_cap: int, dtype):
    """k -> r(-k), as `dtype`, for key arrays k with values in [lo, hi].

    When the span hi - lo + 1 is at most `table_cap`, r's counts at its keys
    in [-hi, -lo] are scattered into a table over [lo, hi]; otherwise every
    call finds its keys among r's negated keys by one searchsorted.
    """
    keys, counts = -r.keys[::-1], r.counts[::-1]
    if hi - lo + 1 <= table_cap:
        inside = (keys >= lo) & (keys <= hi)
        table = np.zeros(hi - lo + 1, dtype=counts.dtype)
        table[(keys[inside] - lo).astype(np.intp)] = counts[inside]
        return lambda k: table[k - lo].astype(dtype, copy=False)

    def weights(k):
        idx = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return np.where(keys[idx] == k, counts[idx], 0).astype(dtype, copy=False)

    return weights


def _count_via_ledgers(sys: DiagonalSystem, ranges: _WitnessRanges, budget: int) -> tuple[int, int]:
    """Exact count of points in the ranges where Theta = Phi = 0, and its pairs.

    The x-halves pack (Theta, Phi), so the keys of half A run in order of
    Phi_a.  For each run of one Phi_a = u, only the keys b with
    r_z(-u - Phi_b) != 0 pair with the run; the sum adds
    n_a n_b r_y(-Theta_a - Theta_b) r_z(-u - Phi_b) over those pairs, at most
    ledger._CHUNK_PAIRS of them at a time.  Returns the count and the pairs
    formed, at most the |A| |B| that `budget` caps.
    """
    cubic = sys.cubic_coeffs()
    quad = sys.quad_coeffs()
    l, m = sys.l, sys.m
    blocks = (range(l // 2), range(l // 2, l), range(l, l + m), range(l + m, sys.s))
    forms = (((cubic, 3), (quad, 2)),) * 2 + (((cubic, 3),), ((quad, 2),))
    # one part per variable; an empty block holds the empty tuple
    folds = [
        [(len(ranges[i]), form_values(ranges[i], [(c[i], e) for c, e in f]), 1) for i in idx]
        or [(1, [(0,) * len(f)], 1)]
        for idx, f in zip(blocks, forms)
    ]
    for parts in folds:
        check_fold(parts, budget)
    half_a, half_b, r_y, r_z = (Ledger.fold(parts, budget) for parts in folds)
    bound = len(half_a.keys) * len(half_b.keys)
    check_budget(bound, budget, what="count key pairs")
    (theta_a, phi_a), (theta_b, phi_b) = half_a.fields(), half_b.fields()
    # Folds pick their own dtypes.  A chunk's two products add at most max(_CHUNK_PAIRS, |B|)
    # nonnegative pair terms, each at most the product of the four ledgers' largest counts.
    largest = math.prod(int(r.counts.max()) for r in (half_a, half_b, r_y, r_z))
    dtype = dtype_for(largest * max(ledger._CHUNK_PAIRS, len(phi_b)))
    n_a, n_b = half_a.counts.astype(dtype, copy=False), half_b.counts.astype(dtype, copy=False)
    # a table no larger than the sum's key pairs; object keys take no table.
    # One half may be int64 and the other object, so bounds add as Python
    # ints and keys as arrays.  Phi is the high field, so phi_a and phi_b
    # are sorted.
    table_cap = bound if object not in (half_a.keys.dtype, half_b.keys.dtype) else 0
    w_z = _negated_weights(r_z, int(phi_a[0]) + int(phi_b[0]), int(phi_a[-1]) + int(phi_b[-1]), table_cap, dtype)
    w_y = _negated_weights(r_y, int(theta_a.min()) + int(theta_b.min()), int(theta_a.max()) + int(theta_b.max()), table_cap, dtype)
    total = pairs = i = 0
    while i < len(phi_a):
        run_end = int(np.searchsorted(phi_a, phi_a[i], side="right"))
        wz = w_z(phi_a[i : i + 1] + phi_b)
        nz = np.flatnonzero(wz)
        if not nz.size:
            i = run_end
            continue
        end = min(run_end, i + max(1, ledger._CHUNK_PAIRS // nz.size))
        weight = w_y(theta_a[i:end, None] + theta_b[nz])
        total += int(n_a[i:end] @ (weight @ (n_b[nz] * wz[nz])))
        pairs += (end - i) * nz.size
        i = end
    return total, pairs


def _witness_scan(
    sys: DiagonalSystem, ranges: _WitnessRanges, limit: int, budget: int
) -> tuple[list[tuple[int, ...]], int]:
    """DFS in by-magnitude order with interval pruning; skips the zero tuple.

    Returns the solutions found and the nodes visited.  The scan gives up
    once it has visited more than `budget` nodes.
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
        if visited > budget:
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
    count: int
    witnesses: tuple[tuple[int, ...], ...]
    witnesses_truncated: bool  # the witness scan gave up before witness_limit hits
    pairs: int  # x-half key pairs the count formed, at most its `count key pairs`


def _build_ranges(sys: DiagonalSystem, bounds: Union[int, tuple]) -> _WitnessRanges:
    if isinstance(bounds, int):
        if bounds < 0:
            raise ValueError("B must be >= 0")
        return [range(-bounds, bounds + 1)] * sys.s
    P, theta = bounds
    if len(theta) != sys.s:
        raise ValueError("need one box anchor per variable")
    out: list[Sequence[int]] = []
    for i, (A3, A2, th) in enumerate(zip(sys.cubic_coeffs(), sys.quad_coeffs(), theta)):
        lo, hi = BoxSumSpec(th, P, cubic=A3, quad=A2).range_bounds()
        if hi < lo:
            raise ValueError(f"box for variable {i} is empty at P={P}")
        out.append(range(lo, hi + 1))
    return out


def count_solutions(
    sys: DiagonalSystem,
    bounds: Union[int, tuple],
    budget: int = DEFAULT_LEDGER_BUDGET,
    witness_limit: int = 10,
) -> SolutionCount:
    """Exact number of solutions in the given ranges, with a few witnesses.

    bounds is either an integer B (count |x_i| <= B, zero tuple included)
    or a pair (P, theta) for the boxes (theta_i P/2, 2 theta_i P].
    `budget` caps the count's generators and key pairs and the witness
    scan's nodes; witness_limit = 0 skips the witness scan, and so does a
    count that the zero tuple alone makes up.
    """
    if witness_limit < 0:
        raise ValueError("witness_limit must be >= 0")
    ranges = _build_ranges(sys, bounds)
    count, pairs = _count_via_ledgers(sys, ranges, budget)
    nonzero = count - all(0 in r for r in ranges)  # the zero tuple counts when every range holds 0
    if witness_limit == 0 or nonzero == 0:
        return SolutionCount(count, (), False, pairs)
    witnesses, visited = _witness_scan(sys, ranges, witness_limit, budget)
    return SolutionCount(count, tuple(witnesses), visited > budget, pairs)


def search_witness(sys: DiagonalSystem, B: int, budget: int = DEFAULT_LEDGER_BUDGET) -> Optional[tuple[int, ...]]:
    """Smallest nonzero solution with |x_i| <= B in by-magnitude order.

    Returns None when the box holds no nonzero solution, and raises
    BudgetError when the scan visits more than `budget` nodes before
    finding one.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    hits, visited = _witness_scan(sys, [range(-B, B + 1)] * sys.s, 1, budget)
    if hits:
        return hits[0]
    check_budget(visited, budget, what="witness search nodes")
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

    `budget` caps the singular series rows, every exact count, the smooth
    table and the witness scan.  With eta given, also forms the
    smooth-restricted predictions at R = max(2, floor(P^eta)): the smooth-y
    count keeps the R-smooth values of every pure-cubic variable and carries
    one Dickman factor per variable, and the smooth-xl count keeps those of
    the last shared variable and carries a single factor.  Both filter the
    box ranges through one smooth table and report counts only, so they
    skip the witness scan.
    """
    from .archimedean import volume_constant
    from .local import singular_series
    from .smooth import c_eta, smooth_mask

    if not 0 < P < math.inf:
        raise ValueError("P must be finite and positive")
    if eta is not None and not 0 < eta < math.inf:
        raise ValueError("eta must be finite and positive")
    anchor = find_real_anchor(sys, rng=rng)
    series = singular_series(anchor.system, Q, budget=budget)
    C, C_err = volume_constant(anchor.system, anchor.theta, rng=rng, samples=mc_samples)
    prediction = C * series.value * P ** (sys.s - 5)
    box = (P, anchor.theta)
    exact = count_solutions(anchor.system, box, budget=budget)
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
        restricted = {"smooth-y": (range(sys.l, sys.l + sys.m), ce**sys.m)}
        if sys.l > 0:
            restricted["smooth-xl"] = ([sys.l - 1], ce)
        ranges = _build_ranges(anchor.system, box)
        mask = smooth_mask(max(ranges[i][-1] for idx, _ in restricted.values() for i in idx), R, budget)
        report["variants"] = {}
        for name, (idx, factor) in restricted.items():
            kept = [[x for x in r if mask[x]] if i in idx else r for i, r in enumerate(ranges)]
            if empty := [i for i in idx if not kept[i]]:
                raise ValueError(f"smooth restriction empties the box of variable {empty[0]}")
            count = _count_via_ledgers(anchor.system, kept, budget)[0]
            report["variants"][name] = {"count": count, "prediction": factor * prediction, "R": R}
    return report
