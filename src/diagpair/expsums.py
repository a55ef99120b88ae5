"""Direct evaluation of the exponential sums at arbitrary real arguments.

All sums are of the shape sum e(phase(x)) with e(t) = exp(2*pi*i*t) and a
polynomial phase.  Phases are reduced mod 1 in exact integer arithmetic:
each real coefficient is quantized to an integer A over 2**PHASE_BITS (the
conversion from the float is exact, the quantization error is 2**-PHASE_BITS
per coefficient), so the phase of every term is accurate to about
3 * X**3 * 2**-PHASE_BITS, comfortably below 1e-9 up to X = 10**6.  Naive
float evaluation of alpha * x**3 loses all phase accuracy near x ~ 10**5.

One kernel, `_phase_sums`, evaluates every sum here.  A term's scaled
phase is sum_i m_i A_i mod 2**96 for integer multipliers m_i (x^3 and x^2
in a box sum; h, h y and h y^2 in a block sum).  Each A_i is split into
limbs of w bits, w a divisor of 48, and each limb's sum_i m_i a_i is one
int64 array op.  w is the widest limb with M * 2**w < 2**63, M the largest
sum_i |m_i| of a term: every limb sum is then at most M (2**w - 1) in
absolute value, every carry at most M + 1, and no product, partial sum or
carry leaves int64.  Carrying limb by limb from the bottom leaves the
96-bit residue as exact 48-bit halves hi and lo; a term whose M admits no
limb raises ValueError instead of wrapping.

The float phase fl(hi * 2**-48 + lo * 2**-96) rounds the exact value
p / 2**96 once (both products are exact), so it is the correctly rounded
quotient that Python's int division gives, bit for bit.  Accumulation
uses math.fsum on the real and imaginary parts, which is exactly rounded
(stronger than Kahan compensation) and so independent of term order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .budget import DEFAULT_LEDGER_BUDGET, check_budget

PHASE_BITS = 96
_SCALE = 1 << PHASE_BITS
_HALF = PHASE_BITS // 2
_LIMB_WIDTHS = (48, 24, 16, 12, 8, 6, 4, 3, 2, 1)  # divisors of _HALF, widest first
TWO_PI = 2.0 * math.pi


def scaled_coeff(alpha: float, mult: int = 1) -> int:
    """Integer A with A / 2**PHASE_BITS ~ frac(mult * alpha), exactly quantized.

    alpha is read as the exact ratio n / d of `as_integer_ratio()` (a float
    is a dyadic rational), so the only error is the final rounding to
    PHASE_BITS fractional bits, half to even.  Dropping the integer part is
    harmless: integer multiples of an integer cube/square contribute
    e(integer) = 1.
    """
    n, d = alpha.as_integer_ratio()
    quo, rem = divmod((mult * n % d) << PHASE_BITS, d)
    if 2 * rem > d or (2 * rem == d and quo % 2):
        quo += 1
    return quo % _SCALE


def _limb_width(bound: int) -> int:
    """Widest limb width w in `_LIMB_WIDTHS` with bound * 2**w < 2**63.

    `bound` is the largest sum_i |m_i| over the terms of a sum; past 2**62
    no width is exact and ValueError is raised.
    """
    for w in _LIMB_WIDTHS:
        if bound.bit_length() + w <= 63:
            return w
    raise ValueError(f"phase multipliers up to {bound} overflow int64 limbs")


def _phase_sums(coeffs: Sequence[Sequence[int]], mults: np.ndarray, w: int) -> list[complex]:
    """Sum over terms t of e(sum_i mults[i, t] coeffs[n][i] / 2**PHASE_BITS), one complex per row n.

    `coeffs` holds scaled coefficients in [0, 2**PHASE_BITS); `w` is
    `_limb_width` of the multipliers' bound.
    """
    mask = (1 << w) - 1
    offsets = range(0, PHASE_BITS, w)
    limbs = np.array(
        [[[(A >> k) & mask for A in row] for row in coeffs] for k in offsets],
        dtype=np.int64,
    ).reshape(len(offsets), len(coeffs), len(mults))
    hi = np.zeros((len(coeffs), mults.shape[1]), dtype=np.int64)
    lo = np.zeros_like(hi)
    carry = 0
    for k, limb in zip(offsets, limbs):
        total = limb @ mults + carry
        carry = total >> w
        if k < _HALF:
            lo += (total & mask) << k
        else:
            hi += (total & mask) << (k - _HALF)
    angles = TWO_PI * (hi * 2.0**-_HALF + lo * 2.0**-PHASE_BITS)
    return [complex(math.fsum(re.tolist()), math.fsum(im.tolist())) for re, im in zip(np.cos(angles), np.sin(angles))]


def block_sums(
    coeffs: Sequence[tuple[float, float, float]], Y: int, H: int, budget: int = DEFAULT_LEDGER_BUDGET
) -> list[complex]:
    """Double sum of e(h*a1 + h*y*a2 + h*y^2*a3) over 0 < |h| <= H, 1 <= y <= Y, per (a1, a2, a3).

    The 2HY terms of every triple are checked against `budget` before any
    array is built.
    """
    if Y < 1 or H < 1:
        raise ValueError("Y and H must be >= 1")
    check_budget(len(coeffs) * 2 * H * Y, budget, what="exponential sum terms")
    w = _limb_width(H * (1 + Y + Y * Y))
    h = np.concatenate([np.arange(-H, 0), np.arange(1, H + 1)])[:, None]
    y = np.arange(1, Y + 1)
    hy = h * y
    mults = np.stack([np.broadcast_to(h, hy.shape), hy, hy * y]).reshape(3, -1)
    return _phase_sums([[scaled_coeff(a) for a in c] for c in coeffs], mults, w)


@dataclass(frozen=True)
class BoxSumSpec:
    """A box-restricted sum over integer x in (theta*P/2, 2*theta*P].

    The phase is cubic*alpha3*x^3 + quad*alpha2*x^2: both coefficients are
    nonzero on a shared variable, quad = 0 on a pure-cubic one and cubic = 0
    on a pure-quadratic one.  With smooth_R set, x is additionally
    restricted to largest-prime-factor <= R.
    """

    theta: float
    P: float
    cubic: int = 0
    quad: int = 0
    smooth_R: Optional[int] = None

    def __post_init__(self):
        if not (0 < self.theta < math.inf and 0 < self.P < math.inf):
            raise ValueError("theta and P must be finite and positive")
        if self.cubic == 0 and self.quad == 0:
            raise ValueError("need a nonzero cubic or quad coefficient")
        if self.smooth_R is not None and self.smooth_R < 2:
            raise ValueError("smooth_R must be >= 2")

    def range_bounds(self) -> tuple[int, int]:
        """Integer endpoints [lo, hi] of (theta*P/2, 2*theta*P]; empty if lo > hi."""
        lo = math.floor(self.theta * self.P / 2) + 1
        hi = math.floor(2 * self.theta * self.P)
        return lo, hi

    def members(self, budget: int = DEFAULT_LEDGER_BUDGET) -> list[int]:
        """Summation range as an explicit list, smoothness applied within `budget`."""
        lo, hi = self.range_bounds()
        if hi < lo:
            return []
        xs = range(lo, hi + 1)
        if self.smooth_R is None:
            return list(xs)
        from .smooth import smooth_mask

        mask = smooth_mask(hi, self.smooth_R, budget)
        return [x for x in xs if mask[x]]


def box_sum(spec: BoxSumSpec, alpha2: float, alpha3: float) -> complex:
    """Evaluate the box sum of `spec` at (alpha2, alpha3); empty box gives 0.

    The box's hi - lo + 1 terms are checked against the default budget, and
    its multipliers x^3 + x^2 against the limbs, before its members are
    listed.
    """
    lo, hi = spec.range_bounds()
    check_budget(hi - lo + 1, DEFAULT_LEDGER_BUDGET, what="exponential sum terms")
    w = _limb_width(hi**3 + hi**2)
    x = np.array(spec.members(), dtype=np.int64)
    x2 = x * x
    coeffs = [[scaled_coeff(alpha3, spec.cubic), scaled_coeff(alpha2, spec.quad)]]
    return _phase_sums(coeffs, np.stack([x2 * x, x2]), w)[0]
