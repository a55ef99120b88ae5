"""Scan the diagonal pair moments over a dyadic X grid and fit growth.

T_s(X) carries a diagonal term of order X^s and an off-diagonal term of
order X^(2s-5); the script normalizes by whichever dominates and fits
the empirical exponent over the grid.

With --holder it reports T_5 and T_6 at each X of the grid instead, their
local slopes e5 and e6 against the X before, and (2/3) e5 + (1/3) e6, the
growth exponent of the Hoelder bound T_5^(2/3) T_6^(1/3) on the 32/3
moment, against the 17/3 of the paper's mean value theorem.  The grid
stops at the first X the budget refuses.

Run: python3 scripts/moment_scan.py [--s 3] [--xmax 160]
     python3 scripts/moment_scan.py --holder [--xmax 40] [--budget 1000000000]
"""

import argparse
import math

from diagpair.budget import DEFAULT_LEDGER_BUDGET, BudgetError
from diagpair.moments import fit_exponent, moment_T


def holder_report(xs, budget: int) -> None:
    print("Hoelder exponent (2/3) e5 + (1/3) e6 against 17/3 = 5.6667")
    print(f"{'X':>6}  {'T_5(X)':>16}  {'T_6(X)':>20}  {'e5':>7}  {'e6':>7}  {'holder':>7}  {'gap':>8}")
    prev = None
    for X in xs:
        try:
            row = (X, moment_T(5, X, budget).value, moment_T(6, X, budget).value)
        except BudgetError as exc:
            print(f"{X:>6}  refused: {exc.what} {exc.estimate} > {exc.cap}")
            break
        line = f"{X:>6}  {row[1]:>16}  {row[2]:>20}"
        if prev is not None:
            step = math.log(X / prev[0])
            e5, e6 = (math.log(row[i] / prev[i]) / step for i in (1, 2))
            holder = 2 * e5 / 3 + e6 / 3
            line += f"  {e5:>7.4f}  {e6:>7.4f}  {holder:>7.4f}  {holder - 17 / 3:>+8.4f}"
        print(line)
        prev = row


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--s", type=int, default=3)
    ap.add_argument("--xmax", type=int, default=160)
    ap.add_argument("--gamma", type=float, default=None,
                    help="reference exponent; default max(s, 2s-5)")
    ap.add_argument("--holder", action="store_true",
                    help="report T_5, T_6 and the Hoelder exponent against 17/3")
    ap.add_argument("--budget", type=int, default=DEFAULT_LEDGER_BUDGET)
    args = ap.parse_args()

    xs = []
    x = 10
    while x <= args.xmax:
        xs.append(x)
        x *= 2

    if args.holder:
        holder_report(xs, args.budget)
        return

    gamma = args.gamma if args.gamma is not None else float(max(args.s, 2 * args.s - 5))
    print(f"s = {args.s}, reference exponent {gamma}")
    print(f"{'X':>6}  {'T_s(X)':>16}  {'T/X^gamma':>12}")
    series = []
    for X in xs:
        val = moment_T(args.s, X, args.budget).value
        series.append((X, val))
        print(f"{X:>6}  {val:>16}  {val / X**gamma:>12.4f}")
    slope, resid = fit_exponent(series)
    print(f"fitted exponent {slope:.4f} (resid {resid:.2e}), "
          f"gap to reference {slope - gamma:+.4f}")
    if args.s == 5:
        print("note: both terms are order X^5 here, expect a doubled constant")


if __name__ == "__main__":
    main()
