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
from typing import Iterable, Optional, Sequence

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET
from .expsums import BoxSumSpec, block_sums, box_sum


@dataclass(frozen=True)
class ArcFamily:
    Q: float
    P: float
    t: int
    homogeneous: bool = True

    def __post_init__(self):
        if not 1 <= self.Q < math.inf:
            raise ValueError("height Q must be finite and >= 1")
        if not 0 < self.P < math.inf:
            raise ValueError("scale P must be finite and positive")
        if self.t < 1:
            raise ValueError("coefficient bound t must be >= 1")

    @property
    def xi2(self) -> float:
        return 18 * self.t * self.P**2

    @property
    def xi3(self) -> float:
        return 18 * self.t * self.P**3


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


def membership(alpha2: float, alpha3: float, fam: ArcFamily) -> Optional[tuple[int, int, int]]:
    """First witness (q, r2, r3) in lexicographic order, or None off the arcs."""
    if not (0 <= alpha2 < 1 and 0 <= alpha3 < 1):
        raise ValueError("alpha must lie in [0,1)^2")
    for q in range(1, math.floor(fam.Q) + 1):
        for wit in _witnesses_at_q(alpha2, alpha3, fam, q):
            return wit
    return None


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

    Walks the continued fraction of alpha = n/d, the exact ratio of
    `as_integer_ratio()`, by the integer Euclid steps on (n, d), and
    returns the last convergent whose denominator fits; the next
    denominator exceeding N is what certifies the Dirichlet error bound.
    The error |q n - a d| / d is one correctly rounded integer division.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n, d = alpha.as_integer_ratio()
    p_prev, q_prev = 1, 0
    p_cur, q_cur = n // d, 1
    num, den = d, n % d
    while den != 0:
        a_i, rem = divmod(num, den)
        p_nxt = a_i * p_cur + p_prev
        q_nxt = a_i * q_cur + q_prev
        if q_nxt > N:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
        num, den = den, rem
    return RationalApproximation(p_cur, q_cur, abs(q_cur * n - p_cur * d) / d)


def transfer_lambda(alpha, b: int, r: int, Z):
    """lambda = r + Z |r alpha - b|; exact when alpha and Z are rational types."""
    if not (abs(alpha) < math.inf and abs(Z) < math.inf):
        raise ValueError("alpha and Z must be finite")
    if r < 1:
        raise ValueError("r must be >= 1")
    if math.gcd(b, r) != 1:
        raise ValueError("gcd(b, r) must be 1")
    return r + Z * abs(r * alpha - b)


# transfer_bound_check tries the coprime (b, r) with r <= _R_MAX and b
# within 2 of r * alpha
_R_MAX = 20
_R = np.arange(1, _R_MAX + 1)[:, None]
_B_OFFSETS = np.arange(-2, 3)


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

    The pairs of all samples are one array in (sample, r, b) order, alpha
    read as a float; each sample's first maximum is the pair a strict >
    scan keeps.  The power is Python's float ** per pair, which numpy's
    vectorized power need not match bit for bit.
    """
    if not samples:
        raise ValueError("need at least one sample")
    N = max(1, math.isqrt(int(Z)))
    alphas = np.array([float(alpha) for alpha, _ in samples])[:, None, None]
    b = np.rint(_R * alphas).astype(np.int64) + _B_OFFSETS
    coprime = np.gcd(b, _R) == 1
    lam = _R + Z * np.abs(_R * alphas - b)
    base = (1 / lam + 1 / Y + lam / Z)[coprime]
    bound = np.full(b.shape, np.inf)
    bound[coprime] = X * np.array([v**theta for v in base.tolist()])
    b, lam, bound = (a.reshape(len(samples), -1) for a in (b, lam, bound))
    ratio = np.array([mag for _, mag in samples], dtype=float)[:, None] / bound
    first = ratio.argmax(axis=1).tolist()
    c1 = 0.0
    c2 = 0.0
    worst = None
    for k, ((alpha, mag), i) in enumerate(zip(samples, first)):
        q = dirichlet_approx(alpha, N).q
        c1 = max(c1, mag / (X * (1 / q + 1 / Y + q / Z) ** theta))
        if ratio[k, i] > c2:
            c2 = float(ratio[k, i])
            worst = {"alpha": alpha, "b": int(b[k, i]), "r": i // len(_B_OFFSETS) + 1, "lambda": float(lam[k, i])}
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


def transfer_grid(
    cells: Iterable[tuple[int, int]], rng: np.random.Generator, budget: int = DEFAULT_LEDGER_BUDGET
) -> dict:
    """transfer_bound_check report of the block sum at each (H, Y) cell.

    Each cell takes 24 samples with a1 and a2 uniform on [0, 1): 16 with a3
    uniform and 8 with a3 = b/r + N(0, 1e-3) noise, r uniform in [1, 8] and
    b uniform in [0, r].  All 24 are drawn first, then their block sums come
    from one `block_sums` call within `budget`.  The block sum is measured
    against X = H Y and Z = H Y^2 at theta = 1/2.
    """
    grid = {}
    for H, Y in cells:
        coeffs = []
        for k in range(24):
            if k < 16:
                a3 = float(rng.random())
            else:
                r = int(rng.integers(1, 9))
                a3 = int(rng.integers(0, r + 1)) / r + float(rng.normal(0, 1e-3))
            a1, a2 = float(rng.random()), float(rng.random())
            coeffs.append((a1, a2, a3))
        sums = block_sums(coeffs, Y, H, budget)
        samples = [(a3, abs(s)) for (_, _, a3), s in zip(coeffs, sums)]
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
        if membership(a2, a3, fam) is not None:
            rejected += 1
            continue
        kept += 1
        mag = abs(box_sum(spec, a2, a3))
        max_norm = max(max_norm, mag / norm)
    return {
        "Q": Q,
        "P": P,
        "eps": eps,
        "samples_used": kept,
        "rejected_inside": rejected,
        "max_normalized": max_norm,
    }
