"""Oscillatory integrals, the truncated singular integral, and the volume constant.

The box integrals v(beta) rescale exactly: substituting gamma = P*g and
(beta_2, beta_3) = (b_2 P^-2, b_3 P^-3) turns the height-Q truncated
integral of V over the beta box into P^(s-5) times a P-free double
integral W(Q) over |b_i| <= Q at unit scale.  Everything here computes
W(Q) and friends at unit scale; the only place P reappears is the final
P^(s-5) factor and the v values themselves.  A variable enters through its
(cubic, quadratic) coefficient pair (A3, A2), with A2 = 0 on the y-block and
A3 = 0 on the z-block.

Quadrature is plain Gauss-Legendre on equal panels: node i of panel p is
mid_p + h x_i, with one half-width h per grid and the 12 Legendre nodes x_i.
By e(u + v) = e(u) e(v), a W(Q) phase table e(c g b) over gamma nodes g and
b nodes is the product of a per-panel factor e(c g mid_p) and a per-node
factor e(c g h x_i), so it costs one complex exponential per (gamma, panel)
and (gamma, reference node), not one per entry, and equals the direct table
up to rounding.  The first pass sizes each grid so a panel sees at most a
fixed number of turns of the local phase; every later pass doubles the panel
count of every grid exactly, and the refinement stops at the first pass that
agrees with the one before it to its tolerance (`_V_RTOL`, `_W_RTOL`).  That
difference is the reported error estimate.
Before it builds anything, each W(Q) pass checks its (b2 x b3) grid points
against the caller's budget, and each v pass its nodes against the default
budget, so a refinement that cannot converge in budget is refused by
`check_budget`, never returned unconverged.

W(Q) follows the block structure.  A pure-cubic variable's gamma integral
depends on b3 only and a pure-quadratic one's on b2 only, so each is a 1-D
factor table, the matrix product of its two panel factors; only the shared
x-block needs (b2 x b3) tables, products of the (b2 x gamma) and
(gamma x b3) phase tables.  A 1-D factor is summed over gamma-row chunks
and a 2-D factor built in chunks of whole b2 panels, each chunk's product
and b2 phase table of at most `_CHUNK_ENTRIES` entries (or one panel).
The variables whose (A3, A2, theta_i) agree up to sign share one factor,
conjugated where the pair is negated: the gamma integral of e(-phase) is
the conjugate of e(phase)'s.

The volume constant, the density of {Theta = Phi = 0} in the box, is a coarea
Monte Carlo: two variables solved in closed form (roots, or for an all-shared
system the real roots of a degree-6 eliminant) weighted by 1/|det| of their
Jacobian, the rest drawn in `_MC_CHUNK_ROWS` chunks; its bar is the standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .arcs import ArcFamily, membership
from .budget import DEFAULT_LEDGER_BUDGET, check_budget
from .local import _component_rows
from .systems import DiagonalSystem

TWO_PI = 2.0 * math.pi
_GL_NODES = 12
# the 12-point Gauss-Legendre rule on [-1, 1], as numpy's leggauss(12) gives
# it.  Spelled out because importing numpy.polynomial and running the
# eigensolver costs every import of the package about 2 MB of resident memory
_GL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
# phase turns per panel on the first pass; later passes halve it exactly.
# v starts fine because its tolerance is loose; W starts coarse because it
# converges to rounding level within a few doublings from there
_V_START_TURNS = 1.0
_W_START_TURNS = 8.0
# v stops when two passes agree to this fraction of max(1, |v|), W(Q) to
# this fraction of |W|
_V_RTOL = 1e-9
_W_RTOL = 1e-13
# complex entries in one live phase or factor chunk of the W(Q) quadrature
_CHUNK_ENTRIES = 1_500_000
# Monte Carlo points per chunk: C9's 400,000 points peak at 1.7 MiB (13.1 MiB at
# 2^17).  The generator fills its draws in order, so only float sums move with it
_MC_CHUNK_ROWS = 1 << 14


class _Panels:
    """Gauss-Legendre on equal panels: node i of panel p is mid[p] + half * x_i.

    x_i and w_i are the `_GL_NODES`-point Legendre rule on [-1, 1]; `half` is
    one half-width for every panel, so nodes, weights and the panel phase
    factors all come from `mid` and `half`.
    """

    __slots__ = ("mid", "half")

    def __init__(self, mid: np.ndarray, half: float):
        self.mid, self.half = mid, half

    @classmethod
    def over(cls, lo: float, hi: float, n_panels: int) -> "_Panels":
        # mids are offsets from the centre, so each is rounded to its own size
        # and the panels of a b grid meet to within rounding near b = 0, where
        # its factors are largest; counted from lo, every mid carries lo's
        # rounding, and the gaps lifted the ladder6 W(2048) pass difference
        # from 3e-17 to 9e-15
        half = (hi - lo) / (2.0 * n_panels)
        return cls((lo + hi) / 2.0 + half * np.arange(1 - n_panels, n_panels, 2), half)

    @property
    def size(self) -> int:
        return self.mid.size * _GL_NODES

    @property
    def nodes(self) -> np.ndarray:
        return (self.mid[:, None] + self.half * _GL_X).ravel()

    @property
    def weights(self) -> np.ndarray:
        return np.tile(self.half * _GL_W, self.mid.size)


def _phase_rate(c3: float, c2: float, lo: float, hi: float) -> float:
    """max |d/dgamma (c3 g^3 + c2 g^2)| on [lo, hi], in cycles per unit."""
    cands = [lo, hi]
    if c3 != 0:
        vertex = -c2 / (3.0 * c3)
        if lo < vertex < hi:
            cands.append(vertex)
    return max(abs(3.0 * c3 * g * g + 2.0 * c2 * g) for g in cands)


def _panels_for(rate: float, length: float, per_panel: float) -> int:
    """First-pass panel count: at most `per_panel` phase turns per panel."""
    return max(1, math.ceil(rate * length / per_panel) + 1)


def _refine(integrate: Callable[[int], complex], tol: float, floor: float) -> tuple[complex, float, int]:
    """Refine by exact panel doubling until two successive passes agree.

    `integrate(m)` integrates with every grid at m times its first-pass panel
    count.  Passes run at m = 1, 2, 4, ... and stop at the first one with
    |I_m - I_(m/2)| <= tol * max(floor, |I_m|).  Returns (I_m, that
    difference, number of passes).  The loop ends either there or when
    `integrate` refuses a pass with `BudgetError`.
    """
    prev = integrate(1)
    m = 2
    while True:
        cur = integrate(m)
        err = abs(cur - prev)
        if err <= tol * max(floor, abs(cur)):
            return cur, err, m.bit_length()
        prev, m = cur, 2 * m


def oscillatory_v(
    A3: int,
    A2: int,
    beta2: float,
    beta3: float,
    P: float,
    theta_i: float,
) -> tuple[complex, float]:
    """Integral v of e(A3 beta3 g^3 + A2 beta2 g^2) over (theta_i P/2, 2 theta_i P): (v, error_estimate).

    (A3, A2) is one variable's (cubic, quadratic) coefficient pair.  Panel
    count doubles until two successive passes agree within
    `_V_RTOL` * max(1, |v|); the disagreement is reported as the error estimate.
    """
    lo, hi = theta_i * P / 2.0, 2.0 * theta_i * P
    if hi <= lo:
        raise ValueError("box is empty; need theta_i > 0 and P > 0")
    c3 = A3 * beta3
    c2 = A2 * beta2

    n = _panels_for(_phase_rate(c3, c2, lo, hi), hi - lo, _V_START_TURNS)

    def integrate(m: int) -> complex:
        check_budget(n * m * _GL_NODES, DEFAULT_LEDGER_BUDGET, what="quadrature nodes")
        grid = _Panels.over(lo, hi, n * m)
        nodes = grid.nodes
        phase = TWO_PI * (c3 * nodes**3 + c2 * nodes * nodes)
        return complex(np.dot(grid.weights, np.exp(1j * phase)))

    value, err, _ = _refine(integrate, _V_RTOL, 1.0)
    return value, err


def _phase_factors(
    coef: int, gp: np.ndarray, grid: _Panels, weights: Optional[np.ndarray] = None, panels: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """The panel factor e(coef gp mid_p) and the node factor weights[g] e(coef gp half x_i).

    `gp` holds G gamma nodes raised to a variable's degree; the factors are
    (G x panels) over the given panels of `grid` and (G x `_GL_NODES`).  By
    e(u + v) = e(u) e(v) their product at (g, p, i) is weights[g] e(coef gp b)
    at the node b = mid_p + half x_i, so a phase table costs
    G x (panels + `_GL_NODES`) exponentials, not one per entry.
    """
    turns = TWO_PI * 1j * coef * gp[:, None]
    at_mid, at_node = turns * grid.mid[panels], turns * (grid.half * _GL_X)
    np.exp(at_mid, out=at_mid)
    np.exp(at_node, out=at_node)
    if weights is not None:
        at_node *= weights[:, None]
    return at_mid, at_node


def _phase_table(
    coef: int, gp: np.ndarray, grid: _Panels, weights: Optional[np.ndarray] = None, panels: slice = slice(None)
) -> np.ndarray:
    """weights[g] e(coef gp b) at every gamma node and every node b of the panels: (G x nodes).

    The broadcast product of the two `_phase_factors`, nodes in grid order.
    """
    at_mid, at_node = _phase_factors(coef, gp, grid, weights, panels)
    return (at_mid[:, :, None] * at_node[:, None, :]).reshape(gp.size, -1)


def _factor_1d(coef: int, gp: np.ndarray, wg: np.ndarray, grid: _Panels) -> np.ndarray:
    """sum_g wg e(coef gp b) at every node b of `grid`: one pure variable's factor.

    `gp` holds the gamma nodes raised to the variable's degree.  Summed over
    gamma-row chunks whose panel factor has at most `_CHUNK_ENTRIES` entries,
    the (`_GL_NODES` x panels) factor is the matrix product of the two
    `_phase_factors`.
    """
    out = np.zeros((_GL_NODES, grid.mid.size), dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // grid.mid.size)
    for start in range(0, gp.size, rows):
        sl = slice(start, start + rows)
        at_mid, at_node = _phase_factors(coef, gp[sl], grid, wg[sl])
        out += at_node.T @ at_mid
    return out.T.ravel()


def _multiply_in(acc: np.ndarray, factor: np.ndarray, counts: Sequence[int]) -> None:
    """acc *= factor counts[0] times, then conj(factor), conjugated in place, counts[1] times."""
    as_is, negated = counts
    for _ in range(as_is):
        acc *= factor
    if negated:
        np.conj(factor, out=factor)
        for _ in range(negated):
            acc *= factor


def unit_singular_integral(
    sys: DiagonalSystem,
    theta: Sequence[float],
    Q: float,
    budget: int = DEFAULT_LEDGER_BUDGET,
) -> tuple[float, dict]:
    """W(Q): the P-free double integral of the unit-scale product V over |b_i| <= Q.

    A variable's factor is its gamma integral at each (b2, b3) node.  The
    variables are grouped once by (A3, A2, theta_i) up to sign, the key's
    first nonzero coefficient made positive: negating the pair conjugates
    the factor.  Each pass builds one factor per group and multiplies it in
    once per variable, conjugated for the negated ones.  A pure-cubic
    group's factor depends on b3 alone and a pure-quadratic one's on b2
    alone: these are 1-D tables, multiplied into Y(b3) and Z(b2).  Only a
    mixed (shared) group needs a 2-D (b2 x b3) table, a matrix product
    formed per chunk of whole b2 panels, multiplied into that chunk of
    outer(Z, Y) and dropped.  With no mixed group W is (w2 . Z)(w3 . Y).

    The b2, b3 and gamma grids start at `_W_START_TURNS` phase turns per panel
    and every pass doubles all of their panel counts; the passes stop when
    two in a row agree to `_W_RTOL` * |W|, and that difference is the
    `error_estimate`; a pass with more than `budget` (b2 x b3) grid points
    is refused before it builds anything.  The diagnostics also give the
    number of passes and, for the last one, the b2 and b3 node counts, the
    gamma nodes summed over the groups (`nodes_gamma`) and the 1-D and 2-D
    factor tables built, one per group (`factors_1d`, `factors_2d`).
    """
    if not 0 < Q < math.inf:
        raise ValueError("Q must be finite and positive")
    if len(theta) != sys.s:
        raise ValueError("need one box anchor per variable")
    if not all(0 < th < math.inf for th in theta):
        raise ValueError("theta must be s finite positive box anchors")
    # variables by coefficient pair up to sign: each key (A3, A2, theta_i) has
    # its first nonzero coefficient positive and counts [as is, negated]
    groups: dict = {}
    for A3, A2, th in zip(sys.cubic_coeffs(), sys.quad_coeffs(), theta):
        sign = 1 if (A3 or A2) > 0 else -1
        groups.setdefault((sign * A3, sign * A2, float(th)), [0, 0])[sign < 0] += 1
    rate2 = sum(abs(A2) * (2 * th) ** 2 * sum(c) for (_, A2, th), c in groups.items())
    rate3 = sum(abs(A3) * (2 * th) ** 3 * sum(c) for (A3, _, th), c in groups.items())
    n2 = _panels_for(rate2, 2 * Q, _W_START_TURNS)
    n3 = _panels_for(rate3, 2 * Q, _W_START_TURNS)
    # first-pass gamma panel counts, one per group, sized for either sign
    n_gamma = {}
    for A3, A2, th in groups:
        lo, hi = th / 2.0, 2.0 * th
        rate_g = _phase_rate(A3 * Q, A2 * Q, lo, hi) + _phase_rate(-A3 * Q, -A2 * Q, lo, hi)
        n_gamma[(A3, A2, th)] = _panels_for(rate_g, hi - lo, _W_START_TURNS)

    def compute(m: int) -> complex:
        check_budget(n2 * m * _GL_NODES * n3 * m * _GL_NODES, budget, what="quadrature grid points")
        b2, b3 = _Panels.over(-Q, Q, n2 * m), _Panels.over(-Q, Q, n3 * m)
        w2, w3 = b2.weights, b3.weights
        Y = np.ones(b3.size, dtype=complex)
        Z = np.ones(b2.size, dtype=complex)
        # a pure group's 1-D factor goes into Y or Z at once; a mixed group
        # keeps its b2 coefficient, squared gamma nodes and weighted
        # gamma->b3 table E3g for the chunks below
        mixed = []
        for (A3, A2, th), counts in groups.items():
            gamma = _Panels.over(th / 2.0, 2.0 * th, n_gamma[(A3, A2, th)] * m)
            g, wg = gamma.nodes, gamma.weights
            if A3 and A2:
                mixed.append((A2, g * g, _phase_table(A3, g**3, b3, wg), counts))
            elif A3:
                _multiply_in(Y, _factor_1d(A3, g**3, wg, b3), counts)
            else:
                _multiply_in(Z, _factor_1d(A2, g * g, wg, b2), counts)
        if not mixed:
            return complex((w2 @ Z) * (w3 @ Y))
        # chunks are whole b2 panels; each (chunk x b3) array and each
        # group's (gamma x chunk) b2 phase table is at most _CHUNK_ENTRIES
        # complex entries (or one panel's rows)
        widest = max(b3.size, *(g2.size for _, g2, _, _ in mixed))
        chunk = max(1, _CHUNK_ENTRIES // (_GL_NODES * widest))
        acc = np.zeros(b3.size, dtype=complex)
        for start in range(0, b2.mid.size, chunk):
            panels = slice(start, start + chunk)
            rows = slice(start * _GL_NODES, (start + chunk) * _GL_NODES)
            Vc = None
            for A2, g2, E3g, counts in mixed:
                factor = _phase_table(A2, g2, b2, panels=panels).T @ E3g
                if Vc is None:
                    # started after the first product, once its phase table is freed
                    Vc = np.outer(Z[rows], Y)
                _multiply_in(Vc, factor, counts)
                del factor
            acc += w2[rows] @ Vc
        return complex(acc @ w3)

    W, err, passes = _refine(compute, _W_RTOL, 0.0)
    m = 2 ** (passes - 1)
    n_1d = sum(1 for A3, A2, _ in groups if A3 == 0 or A2 == 0)
    diag = {
        "error_estimate": err,
        "imag_residue": W.imag,
        "passes": passes,
        "nodes_b2": n2 * m * _GL_NODES,
        "nodes_b3": n3 * m * _GL_NODES,
        "nodes_gamma": sum(n_gamma.values()) * m * _GL_NODES,
        "factors_1d": n_1d,
        "factors_2d": len(groups) - n_1d,
    }
    return W.real, diag


def extrapolate_ladder(values: Sequence[float]) -> tuple[float, float]:
    """Geometric (Aitken) limit estimate from a dyadic ladder of partials."""
    vals = list(values)
    if len(vals) < 3:
        raise ValueError("need at least three ladder values")
    d1 = vals[-2] - vals[-3]
    d2 = vals[-1] - vals[-2]
    if d1 == 0 or abs(d2) >= abs(d1):
        return vals[-1], abs(d2)
    r = d2 / d1
    limit = vals[-1] + d2 * r / (1.0 - r)
    return limit, abs(limit - vals[-1])


def singular_integral(
    sys: DiagonalSystem,
    Q: float,
    P: float,
    theta: Sequence[float],
    heights: Optional[Sequence[float]] = None,
    budget: int = DEFAULT_LEDGER_BUDGET,
) -> tuple[float, dict]:
    """Truncated singular integral J(Q) = P^(s-5) W(Q), with a dyadic ladder.

    The returned diagnostics carry W at each requested height, consecutive
    tail differences, and their ratios, which is what the Q^(-1/2)-style
    convergence checks consume, plus per height the quadrature error
    estimate and the work the refinement did (passes, and the final pass's
    b2, b3 and gamma nodes and 1-D and 2-D factor tables).  `budget` caps
    the grid points of every pass at every height, and P must be finite and positive.
    """
    if not 0 < P < math.inf:
        raise ValueError("P must be finite and positive")
    if heights is None:
        heights = [Q / 2**k for k in range(4) if Q / 2**k >= 2][::-1]
    ladder = {}
    errs = {}
    work = {}
    imag_residue = 0.0
    for h in [*heights, Q] if Q not in heights else heights:
        W, diag = unit_singular_integral(sys, theta, h, budget=budget)
        ladder[h] = W
        errs[h] = diag["error_estimate"]
        work[h] = {
            k: diag[k] for k in ("passes", "nodes_b2", "nodes_b3", "nodes_gamma", "factors_1d", "factors_2d")
        }
        if h == Q:
            imag_residue = diag["imag_residue"]
    W_Q = ladder[Q]
    hs = sorted(ladder)
    tails = [ladder[b] - ladder[a] for a, b in zip(hs, hs[1:])]
    ratios = [b / a for a, b in zip(tails, tails[1:]) if a != 0]
    diagnostics = {
        "W": W_Q,
        "ladder": ladder,
        "quadrature_errors": errs,
        "quadrature_work": work,
        "tails": tails,
        "tail_ratios": ratios,
        "imag_residue": imag_residue,
    }
    return P ** (sys.s - 5) * W_Q, diagnostics


def volume_constant(
    sys: DiagonalSystem,
    theta: Sequence[float],
    rng: Optional[np.random.Generator] = None,
    samples: int = 400_000,
) -> tuple[float, float]:
    """Density of {Theta = Phi = 0} in the box prod [theta_i/2, 2 theta_i], by the coarea formula.

    The other s - 2 variables are drawn uniformly; the value is the mean of
    vol(their box) / |det d(Theta, Phi)/d(u, v)| over the solutions (u, v) in
    the box, with its standard error.  With a pure variable v, u comes from the
    other form and v from its own by cube or square roots: 1/|6 c d y^2 z| for a
    pure y and z.  With m = n = 0 each real root in the box of the degree-6
    eliminant in u counts.  No eliminable pair (tiny2) or no hit: ValueError.
    """
    rng = rng if rng is not None else np.random.default_rng(7)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.s,) or not np.all((0 < theta) & (theta < np.inf)):
        raise ValueError("theta must be s finite positive box anchors")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    lo, hi = theta / 2.0, 2.0 * theta
    coef = {3: np.array(sys.cubic_coeffs(), dtype=float), 2: np.array(sys.quad_coeffs(), dtype=float)}

    def in_box(x: np.ndarray, i: int) -> np.ndarray:
        return (x >= lo[i]) & (x <= hi[i])

    def widest(block: range, d: int) -> int:
        # the variable whose degree-d term sweeps the widest range: the most hits
        return max(block, key=lambda i: abs(coef[d][i]) * (hi[i] ** d - lo[i] ** d))

    if sys.m or sys.n:
        # v is pure in its form, of degree dv; u comes from the other form, of degree du
        xs, ys, zs = range(sys.l), range(sys.l, sys.l + sys.m), range(sys.l + sys.m, sys.s)
        (v, dv), (u_block, du) = ((widest(zs, 2), 2), (ys or xs, 3)) if sys.n else ((widest(ys, 3), 3), (xs, 2))
        if not u_block:
            raise ValueError("one form has no variables; no density")
        u = widest(u_block, du)
        root = {3: np.cbrt, 2: np.sqrt}

        def weights(T: np.ndarray, F: np.ndarray) -> np.ndarray:
            sums = {3: T, 2: F}
            uu = root[du](-sums[du] / coef[du][u])
            vv = root[dv](-(sums[dv] + coef[dv][u] * uu**dv) / coef[dv][v])
            jac = du * coef[du][u] * uu ** (du - 1) * dv * coef[dv][v] * vv ** (dv - 1)
            return np.where(in_box(uu, u) & in_box(vv, v), 1.0 / np.abs(jac), 0.0)

    else:
        a, b = coef[3], coef[2]
        # pairs whose eliminant keeps its u^6 term
        pairs = [(i, j) for j in range(sys.l) for i in range(j) if a[j] ** 2 * b[i] ** 3 + b[j] ** 3 * a[i] ** 2]
        if not pairs:
            raise ValueError("no pair of shared variables can be eliminated; the anchor is singular")
        # with a_u b_u a_v b_v < 0 the Jacobian keeps one sign on the positive
        # box; otherwise a fold of the projection gives unbounded weights
        u, v = min(pairs, key=lambda p: a[p[0]] * b[p[0]] * a[p[1]] * b[p[1]] > 0)
        au, bu, av, bv = a[u], b[u], a[v], b[v]
        lead = -(av**2 * bu**3 + bv**3 * au**2)

        def weights(T: np.ndarray, F: np.ndarray) -> np.ndarray:
            # b_v^3 (a_v^2 v^6 - (T + a_u u^3)^2) with v^2 from Phi = 0, below u^6 in
            # descending powers of u, is the first row of a companion matrix
            z = np.zeros_like(T)
            comp = np.zeros((T.size, 6, 6))
            row = [z, 3 * av**2 * bu**2 * F, 2 * bv**3 * au * T, 3 * av**2 * bu * F**2, z, av**2 * F**3 + bv**3 * T**2]
            comp[:, 0] = np.stack(row, axis=1) / lead
            comp[:, range(1, 6), range(5)] = 1.0
            uu = np.linalg.eigvals(comp)
            uu = np.where(uu.imag == 0, uu.real, np.nan)
            vv = np.sqrt((-F[:, None] - bu * uu**2) / bv)
            ok = in_box(uu, u) & in_box(vv, v) & (av * (T[:, None] + au * uu**3) < 0)
            return np.where(ok, 1.0 / np.abs(6.0 * uu * vv * (au * bv * uu - av * bu * vv)), 0.0).sum(axis=1)

    rest = np.array([i for i in range(sys.s) if i not in (u, v)], dtype=int)
    total = total_sq = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for done in range(0, samples, _MC_CHUNK_ROWS):
            W = lo[rest] + (hi - lo)[rest] * rng.random((min(samples - done, _MC_CHUNK_ROWS), rest.size))
            w = weights((W**3) @ coef[3][rest], (W * W) @ coef[2][rest])
            total, total_sq = total + float(w.sum()), total_sq + float(w @ w)
    if total == 0:
        raise ValueError("no sampled point of the box solves both forms; no density")
    vol, mean = float(np.prod(hi[rest] - lo[rest])), total / samples
    return vol * mean, vol * math.sqrt(max(total_sq / samples - mean * mean, 0.0) / (samples - 1))


@dataclass(frozen=True)
class StarApprox:
    witness: Optional[tuple[int, int, int]]
    value: complex


def star_approx(
    sys: DiagonalSystem,
    index: int,
    alpha2: float,
    alpha3: float,
    fam: ArcFamily,
    theta: Sequence[float],
) -> StarApprox:
    """Major-arc model q^-1 S(q, r) v(alpha - r/q) for one component; 0 off the arcs.

    S(q, r) is one cell of `local._component_rows`; q is checked against the default budget first.
    """
    witness = membership(alpha2, alpha3, fam)
    if witness is None:
        return StarApprox(None, 0j)
    q, r2, r3 = witness
    check_budget(q, DEFAULT_LEDGER_BUDGET, what="complete sum modulus")
    A3, A2 = sys.cubic_coeffs()[index], sys.quad_coeffs()[index]
    v, _ = oscillatory_v(A3, A2, alpha2 - r2 / q, alpha3 - r3 / q, fam.P, float(theta[index]))
    S = complex(_component_rows(q, np.array([(A3 % q, A2 % q)]), np.array([r3 % q]))[0, 0, r2 % q])
    return StarApprox(witness, S * v / q)
