"""Major/minor arc dissection of the torus and rational approximation.

A major arc of height Q collects the alpha = (alpha_2, alpha_3) close to a
rational point r/q with q <= Q and gcd(q, r_2, r_3) = 1, where closeness is
measured against widths Xi_i = 18 t P^i (t is the largest absolute
coefficient of the system under study).  Two flavours are used: the
homogeneous test |q alpha_i - r_i| <= Q / Xi_i and the inhomogeneous
|alpha_i - r_i/q| <= Q / Xi_i.  Heights Q are plain numbers here; the
asymptotic pruning schedules (P to a tiny power, iterated-log powers) are
just particular choices of Q at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .expsums import BoxSumSpec, block_sum, box_sum


@dataclass(frozen=True)
class ArcFamily:
    Q: float
    P: float
    t: int
    homogeneous: bool = True

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError("height Q must be >= 1")
        if self.P <= 0:
            raise ValueError("scale P must be positive")
        if self.t < 1:
            raise ValueError("coefficient bound t must be >= 1")

    @property
    def xi2(self) -> float:
        return 18 * self.t * self.P**2

    @property
    def xi3(self) -> float:
        return 18 * self.t * self.P**3


@dataclass(frozen=True)
class ArcMembership:
    inside: bool
    witness: Optional[tuple[int, int, int]] = None


def _candidate_residues(center: float, halfwidth: float, q: int) -> range:
    lo = max(0, math.ceil(center - halfwidth))
    hi = min(q, math.floor(center + halfwidth))
    return range(lo, hi + 1)


def _witnesses_at_q(alpha2: float, alpha3: float, fam: ArcFamily, q: int):
    w2 = fam.Q / fam.xi2
    w3 = fam.Q / fam.xi3
    if not fam.homogeneous:
        w2, w3 = q * w2, q * w3
    for r2 in _candidate_residues(q * alpha2, w2, q):
        if abs(q * alpha2 - r2) > w2:
            continue
        for r3 in _candidate_residues(q * alpha3, w3, q):
            if abs(q * alpha3 - r3) > w3:
                continue
            if math.gcd(math.gcd(q, r2), r3) == 1:
                yield (q, r2, r3)


def membership(alpha2: float, alpha3: float, fam: ArcFamily) -> ArcMembership:
    """First witness in (q, r2, r3) lexicographic order, or outside."""
    if not (0 <= alpha2 < 1 and 0 <= alpha3 < 1):
        raise ValueError("alpha must lie in [0,1)^2")
    for q in range(1, math.floor(fam.Q) + 1):
        for wit in _witnesses_at_q(alpha2, alpha3, fam, q):
            return ArcMembership(True, wit)
    return ArcMembership(False, None)


@dataclass(frozen=True)
class RationalApproximation:
    a: int
    q: int
    error: float

    def __post_init__(self):
        if self.q < 1 or math.gcd(self.a, self.q) != 1:
            raise ValueError("approximation must be a reduced fraction")


def dirichlet_approx(alpha, N: int) -> RationalApproximation:
    """Reduced a/q with q <= N and |q alpha - a| <= 1/N.

    Walks the continued fraction of alpha (exact, via Fraction) and returns
    the last convergent whose denominator fits; the next denominator
    exceeding N is what certifies the Dirichlet error bound.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x = Fraction(alpha)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = math.floor(x), 1
    frac = x - math.floor(x)
    while frac != 0:
        x = 1 / frac
        a_i = math.floor(x)
        frac = x - a_i
        p_nxt = a_i * p_cur + p_prev
        q_nxt = a_i * q_cur + q_prev
        if q_nxt > N:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    err = abs(q_cur * Fraction(alpha) - p_cur)
    return RationalApproximation(p_cur, q_cur, float(err))


def transfer_lambda(alpha, b: int, r: int, Z):
    """lambda = r + Z |r alpha - b|; exact when alpha and Z are rational types."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if math.gcd(b, r) != 1:
        raise ValueError("gcd(b, r) must be 1")
    return r + Z * abs(r * alpha - b)


# transfer_bound_check tries the coprime (b, r) with r <= _R_MAX and b
# within 2 of r * alpha
_R_MAX = 20


def _near_coprime_pairs(alpha: float):
    for r in range(1, _R_MAX + 1):
        center = round(r * alpha)
        for b in range(center - 2, center + 3):
            if math.gcd(b, r) == 1:
                yield b, r


def transfer_bound_check(
    samples: Sequence[tuple[float, float]],
    X: float,
    Y: float,
    Z: float,
    theta: float,
) -> dict:
    """Empirical check of the approximation-transfer bound.

    Fits the hypothesis constant C1 from each sample's own continued
    fraction approximant (a convergent with q <= sqrt(Z) satisfies the
    |alpha - a/q| <= q^-2 hypothesis), then measures the worst constant C2
    needed for the transferred bound over nearby coprime (b, r).  Report
    only; the interesting output is C2 and its ratio to C1.
    """
    if not samples:
        raise ValueError("need at least one sample")
    N = max(1, math.isqrt(int(Z)))
    c1 = 0.0
    c2 = 0.0
    worst = None
    for alpha, mag in samples:
        approx = dirichlet_approx(alpha, N)
        q = approx.q
        c1 = max(c1, mag / (X * (1 / q + 1 / Y + q / Z) ** theta))
        for b, r in _near_coprime_pairs(alpha):
            lam = transfer_lambda(alpha, b, r, Z)
            bound = X * (1 / lam + 1 / Y + lam / Z) ** theta
            ratio = mag / bound
            if ratio > c2:
                c2 = ratio
                worst = {"alpha": alpha, "b": b, "r": r, "lambda": lam}
    return {
        "samples": len(samples),
        "X": X,
        "Y": Y,
        "Z": Z,
        "theta": theta,
        "C1_fitted": c1,
        "C2_observed": c2,
        "amplification": c2 / c1 if c1 > 0 else math.inf,
        "worst": worst,
    }


def transfer_grid(cells: Iterable[tuple[int, int]], rng: np.random.Generator) -> dict:
    """transfer_bound_check report of the block sum at each (H, Y) cell.

    Each cell takes 24 samples with a1 and a2 uniform on [0, 1): 16 with a3
    uniform and 8 with a3 = b/r + N(0, 1e-3) noise, r uniform in [1, 8] and
    b uniform in [0, r].  The block sum is measured against X = H Y and
    Z = H Y^2 at theta = 1/2.
    """
    grid = {}
    for H, Y in cells:
        samples = []
        for k in range(24):
            if k < 16:
                a3 = float(rng.random())
            else:
                r = int(rng.integers(1, 9))
                a3 = int(rng.integers(0, r + 1)) / r + float(rng.normal(0, 1e-3))
            a1, a2 = float(rng.random()), float(rng.random())
            samples.append((a3, block_sum(a1, a2, a3, Y, H).magnitude))
        grid[(H, Y)] = transfer_bound_check(
            samples, X=float(H * Y), Y=float(Y), Z=float(H * Y * Y), theta=0.5
        )
    return grid


def minor_arc_weyl_check(
    spec: BoxSumSpec,
    Q: float,
    P: float,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    eps: float = 0.05,
) -> dict:
    """Sample minor-arc points and normalize |f_i| by P^(1+eps) Q^(-1/3).

    Points are drawn uniformly on the torus and kept only when membership
    in the height-Q homogeneous family rejects them.  Reports the maximum
    normalized magnitude.
    """
    if Q > P ** 0.75:
        raise ValueError("minor-arc check needs Q <= P^(3/4)")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng if rng is not None else np.random.default_rng(0)
    spec = replace(spec, P=P)
    t = max(1, abs(spec.cubic), abs(spec.quad))
    fam = ArcFamily(Q=Q, P=P, t=t)
    kept = 0
    rejected = 0
    max_norm = 0.0
    norm = P ** (1 + eps) * Q ** (-1 / 3)
    while kept < samples:
        a2, a3 = rng.random(), rng.random()
        if membership(a2, a3, fam).inside:
            rejected += 1
            continue
        kept += 1
        mag = box_sum(spec, a2, a3).magnitude
        max_norm = max(max_norm, mag / norm)
    return {
        "Q": Q,
        "P": P,
        "eps": eps,
        "samples_used": kept,
        "rejected_inside": rejected,
        "max_normalized": max_norm,
    }
