"""Direct evaluation of the exponential sums at arbitrary real arguments.

All sums are of the shape sum e(phase(x)) with e(t) = exp(2*pi*i*t) and a
polynomial phase.  Phases are reduced mod 1 in exact integer arithmetic:
each real coefficient is quantized to an integer over 2**PHASE_BITS (the
conversion from the float is exact, the quantization error is 2**-PHASE_BITS
per coefficient), so the phase of every term is accurate to about
3 * X**3 * 2**-PHASE_BITS, comfortably below 1e-9 up to X = 10**6.  Naive
float evaluation of alpha * x**3 loses all phase accuracy near x ~ 10**5.

Accumulation uses math.fsum on the real and imaginary parts, which is
exactly rounded (stronger than Kahan compensation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

PHASE_BITS = 96
_SCALE = 1 << PHASE_BITS
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SumValue:
    re: float
    im: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def scaled_coeff(alpha: float, mult: int = 1) -> int:
    """Integer A with A / 2**PHASE_BITS ~ frac(mult * alpha), exactly quantized.

    The float is converted to an exact dyadic rational first, so the only
    error is the final rounding to PHASE_BITS fractional bits.  Dropping the
    integer part is harmless: integer multiples of an integer cube/square
    contribute e(integer) = 1.
    """
    f = Fraction(alpha) * mult
    f -= math.floor(f)
    return round(f * _SCALE) % _SCALE


def _exp_of_scaled(scaled_phases) -> tuple[float, float]:
    """e(p / 2**PHASE_BITS) summed exactly over a list of scaled integer phases."""
    phases = np.array([p / _SCALE for p in scaled_phases], dtype=np.float64)
    angles = TWO_PI * phases
    return math.fsum(np.cos(angles)), math.fsum(np.sin(angles))


def block_sum(a1: float, a2: float, a3: float, Y: int, H: int) -> SumValue:
    """Double sum of e(h*a1 + h*y*a2 + h*y^2*a3) over 0 < |h| <= H, 1 <= y <= Y."""
    if Y < 1 or H < 1:
        raise ValueError("Y and H must be >= 1")
    A1, A2, A3 = scaled_coeff(a1), scaled_coeff(a2), scaled_coeff(a3)
    scaled = []
    for h in range(-H, H + 1):
        if h == 0:
            continue
        for y in range(1, Y + 1):
            scaled.append((h * A1 + h * y * A2 + h * y * y * A3) % _SCALE)
    re, im = _exp_of_scaled(scaled)
    return SumValue(re, im)


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
        if self.theta <= 0 or self.P <= 0:
            raise ValueError("theta and P must be positive")
        if self.cubic == 0 and self.quad == 0:
            raise ValueError("need a nonzero cubic or quad coefficient")
        if self.smooth_R is not None and self.smooth_R < 2:
            raise ValueError("smooth_R must be >= 2")

    def range_bounds(self) -> tuple[int, int]:
        """Integer endpoints [lo, hi] of (theta*P/2, 2*theta*P]; empty if lo > hi."""
        lo = math.floor(self.theta * self.P / 2) + 1
        hi = math.floor(2 * self.theta * self.P)
        return lo, hi

    def members(self) -> list[int]:
        """Summation range as an explicit list, smoothness applied."""
        lo, hi = self.range_bounds()
        if hi < lo:
            return []
        xs = range(lo, hi + 1)
        if self.smooth_R is None:
            return list(xs)
        from .smooth import smooth_mask

        mask = smooth_mask(hi, self.smooth_R)
        return [x for x in xs if mask[x]]


def box_sum(spec: BoxSumSpec, alpha2: float, alpha3: float) -> SumValue:
    """Evaluate the box sum of `spec` at (alpha2, alpha3); empty box gives 0."""
    xs = spec.members()
    if not xs:
        return SumValue(0.0, 0.0)
    A3 = scaled_coeff(alpha3, spec.cubic)
    A2 = scaled_coeff(alpha2, spec.quad)
    scaled = [(A3 * x * x * x + A2 * x * x) % _SCALE for x in xs]
    re, im = _exp_of_scaled(scaled)
    return SumValue(re, im)
