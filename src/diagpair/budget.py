"""The one work-budget guard of the package.

Every engine estimates its work up front (ledger generators, key pairs,
row cells, grid points, search nodes, smooth table cells, a modulus) and
passes it with the caller's budget to `check_budget`, which refuses with
`BudgetError` instead of thrashing mid-run.  The caller's budget is
`--budget` on the command line, except in `star_approx` (the modulus of
its complete sum), `box_sum` and `oscillatory_v`, which check against the
default; no command reaches any of the three.
"""

DEFAULT_LEDGER_BUDGET = 50_000_000


class BudgetError(RuntimeError):
    """Raised when an estimated workload exceeds the caller's budget."""

    def __init__(self, estimate, cap, what):
        self.estimate = int(estimate)
        self.cap = int(cap)
        self.what = what
        super().__init__(
            f"refusing: estimated {what} {self.estimate} exceeds budget {self.cap}"
        )


def check_budget(estimate, budget, what):
    """Raise BudgetError if `estimate` exceeds `budget`; otherwise return estimate."""
    if estimate > budget:
        raise BudgetError(estimate, budget, what)
    return estimate
