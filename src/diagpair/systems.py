"""Domain model for a pair of diagonal forms, one cubic and one quadratic.

The object of study is the simultaneous pair

    Theta(x, y) = a_1 x_1^3 + ... + a_l x_l^3 + c_1 y_1^3 + ... + c_m y_m^3,
    Phi(x, z)   = b_1 x_1^2 + ... + b_l x_l^2 + d_1 z_1^2 + ... + d_n z_n^2,

with nonzero integer coefficients.  The x-block of l variables is shared
between both forms; the y-block (m pure-cubic variables) and z-block
(n pure-quadratic variables) each appear in only one form.  Variable order
throughout the package is x_1..x_l, y_1..y_m, z_1..z_n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .budget import DEFAULT_LEDGER_BUDGET


@dataclass(frozen=True)
class DiagonalSystem:
    """Coefficient data (a, b, c, d) with derived shape (l, m, n, s, t).

    a and b must have equal length l (they sit on the shared variables);
    every coefficient must be a nonzero integer.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...] = ()
    d: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        object.__setattr__(self, "c", tuple(int(v) for v in self.c))
        object.__setattr__(self, "d", tuple(int(v) for v in self.d))
        if len(self.a) != len(self.b):
            raise ValueError(
                f"a and b must have equal length, got {len(self.a)} and {len(self.b)}"
            )
        if self.s == 0:
            raise ValueError("empty system")
        for name in ("a", "b", "c", "d"):
            for v in getattr(self, name):
                if v == 0:
                    raise ValueError(f"zero coefficient in {name}")

    @property
    def l(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.c)

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def s(self) -> int:
        return len(self.a) + len(self.c) + len(self.d)

    @property
    def t(self) -> int:
        return max(abs(v) for v in self.a + self.b + self.c + self.d)

    def cubic_coeffs(self) -> tuple[int, ...]:
        """Coefficients of Theta in variable order (zeros on the z-block)."""
        return self.a + self.c + (0,) * self.n

    def quad_coeffs(self) -> tuple[int, ...]:
        """Coefficients of Phi in variable order (zeros on the y-block)."""
        return self.b + (0,) * self.m + self.d

    def eval_forms(self, point) -> tuple[int, int]:
        """Exact (Theta, Phi) at an integer point given in variable order."""
        if len(point) != self.s:
            raise ValueError(f"expected {self.s} coordinates, got {len(point)}")
        theta = sum(cf * v * v * v for cf, v in zip(self.cubic_coeffs(), point))
        phi = sum(cf * v * v for cf, v in zip(self.quad_coeffs(), point))
        return theta, phi


# named systems shared by the CLI, the acceptance gate, the tests and scripts
BUILTIN_SYSTEMS = {
    "balanced11": DiagonalSystem(a=(1, 1, 1, 1, 1, 1), b=(1, 1, 1, -1, -1, -1), c=(1, -1, 2), d=(1, -2)),
    "sample5": DiagonalSystem(a=(1, -1), b=(1, 1), c=(1,), d=(1, -1)),
    "ladder6": DiagonalSystem(a=(), b=(), c=(1, -1), d=(1, -1, 1, -1)),
    # shared pair: x1 = x2 forced over the integers, so N(B) = 2B + 1
    "tiny2": DiagonalSystem(a=(1, -1), b=(1, -1)),
}


class SystemClass(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    UNCLASSIFIED = "Unclassified"


def classify(sys: DiagonalSystem) -> SystemClass:
    """Three-way classification by the pure-variable counts (m, n).

    A: m = n = 0, or n in {1, 2};  B: 1 <= m <= 5 and n in {0, 3};
    C: m = 0 and n = 3.  The B/C overlap cannot arise (B wants m >= 1,
    C wants m = 0).  Systems with m >= 6 or n >= 4 stay unclassified.  The
    class is only reported: the prediction path runs on any system.
    """
    m, n = sys.m, sys.n
    if m >= 6 or n >= 4:
        return SystemClass.UNCLASSIFIED
    if (m == 0 and n == 0) or n in (1, 2):
        return SystemClass.A
    if 1 <= m <= 5 and n in (0, 3):
        return SystemClass.B
    if m == 0 and n == 3:
        return SystemClass.C
    return SystemClass.UNCLASSIFIED


class AnchorError(RuntimeError):
    """No nonsingular real solution was found (`solver.find_real_anchor`)."""


@dataclass
class ConditionReport:
    """Checklist of solvability hypotheses for a system.

    The count conditions are pure coefficient arithmetic; real_solution and
    padic_witnesses carry evidence found by search (absence is reported as
    None / an absent record, never raised).
    """

    indefinite_phi: bool
    count_cubic_ok: bool  # l + m >= 7
    count_quad_ok: bool   # l + n >= 5
    total_ok: bool        # s >= 11
    real_solution: Optional[object] = None
    padic_witnesses: dict = field(default_factory=dict)


def phi_indefinite(sys: DiagonalSystem) -> bool:
    """Phi is indefinite iff its coefficient multiset {b_i} + {d_k} has both signs."""
    coeffs = sys.b + sys.d
    return any(v > 0 for v in coeffs) and any(v < 0 for v in coeffs)


# p-adic witnesses are searched at every prime up to this bound
_WITNESS_PRIME_BOUND = 100


def check_conditions(sys: DiagonalSystem, rng=None, budget: int = DEFAULT_LEDGER_BUDGET) -> ConditionReport:
    """Evaluate the solvability hypotheses, gathering evidence where needed.

    The p-adic witness search covers the primes up to _WITNESS_PRIME_BOUND,
    each within `budget` (`local.padic_witness`); anchor search failure is
    recorded as real_solution=None, not raised.
    """
    # Deferred imports: solver and local depend on this module.
    from . import local, solver
    from .smooth import primes_up_to

    report = ConditionReport(
        indefinite_phi=phi_indefinite(sys),
        count_cubic_ok=sys.l + sys.m >= 7,
        count_quad_ok=sys.l + sys.n >= 5,
        total_ok=sys.s >= 11,
    )
    try:
        report.real_solution = solver.find_real_anchor(sys, rng=rng)
    except AnchorError:
        report.real_solution = None
    for p in primes_up_to(_WITNESS_PRIME_BOUND):
        report.padic_witnesses[p] = local.padic_witness(sys, p, rng=rng, budget=budget)
    return report


def parse_system(text: str) -> DiagonalSystem:
    """Parse the flat key/value system format.

    Grammar: one `key = int int ...` assignment per line for keys a, b, c, d;
    blank lines and `#` comments are ignored; a missing key means an empty
    block.  Duplicate keys are an error.  Round-trips with format_system.
    """
    arrays: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = values', got {raw!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in ("a", "b", "c", "d"):
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in arrays:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            arrays[key] = tuple(int(tok) for tok in rest.split())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad integer in {key!r}") from exc
    return DiagonalSystem(
        a=arrays.get("a", ()),
        b=arrays.get("b", ()),
        c=arrays.get("c", ()),
        d=arrays.get("d", ()),
    )


def format_system(sys: DiagonalSystem) -> str:
    """Canonical text form; parse_system(format_system(sys)) == sys."""
    lines = []
    for key in ("a", "b", "c", "d"):
        values = getattr(sys, key)
        if values:
            lines.append(f"{key} = " + " ".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def load_system(path) -> DiagonalSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
