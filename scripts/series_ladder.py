"""Trace the singular series partial sums and per-modulus diagnostics.

Prints the running partial sum at dyadic heights, the largest |B(q)| seen
in each band, and spot-checks multiplicativity of the primitive mass A(q)
on coprime pairs with q1 q2 <= 20: the series builds composite A(q) as a
product, so A(q1 q2) is summed directly by `oracles.direct_series_term`
and set against the series' A(q1) A(q2).

Run: python3 scripts/series_ladder.py [--builtin balanced11] [--height 400]
"""

import argparse

from diagpair.budget import DEFAULT_LEDGER_BUDGET
from diagpair.local import singular_series
from diagpair.oracles import direct_series_term
from diagpair.systems import BUILTIN_SYSTEMS, load_system


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--builtin", choices=sorted(BUILTIN_SYSTEMS), default="balanced11")
    ap.add_argument("--spec", help="system file; overrides --builtin")
    ap.add_argument("--height", type=int, default=400)
    args = ap.parse_args()

    sysd = load_system(args.spec) if args.spec else BUILTIN_SYSTEMS[args.builtin]
    # the series' orbit rows hold at most height^3 cells (at most 1 + 3k rows
    # of q cells at each prime power q = p^k <= height), so every height runs
    res = singular_series(sysd, args.height, budget=max(DEFAULT_LEDGER_BUDGET, args.height**3))

    print(f"system s={sysd.s}, height {args.height}")
    print(f"{'q':>5}  {'partial':>12}  {'band max |B|':>14}")
    q = 25
    while q <= args.height:
        lo = q // 2 + 1
        band = max(abs(res.B[m]) for m in range(lo, q + 1))
        print(f"{q:>5}  {res.partials[q - 1]:>12.6f}  {band:>14.3e}")
        q *= 2
    print(f"final partial {res.value:.8f} (imag residue {res.imag:.1e})")

    print("\nA(q) multiplicativity on coprime pairs, direct A(q1 q2) vs the series' A(q1)A(q2):")
    for q1, q2 in [(3, 4), (2, 9), (4, 5)]:
        if q1 * q2 > args.height:
            continue
        lhs, rhs = direct_series_term(sysd, q1 * q2)[0], res.A[q1] * res.A[q2]
        # relative above 1, absolute below: A(q) is 0 at q = 2 for many systems
        gap = abs(lhs - rhs) / max(abs(rhs), 1.0)
        flag = "ok" if gap < 1e-9 else "MISMATCH"
        print(f"  A({q1 * q2}) vs A({q1})A({q2}): gap {gap:.1e}  {flag}")

    tail = max(abs(res.B[m]) * m**2 for m in range(args.height // 2, args.height + 1))
    print(f"\nmax q^2 |B(q)| over the top octave: {tail:.3e} "
          f"(bounded iff the terms decay at least like q^-2)")
    k = sum(1 for m in range(1, args.height + 1) if abs(res.B[m]) > 1e-15)
    print(f"nonzero B(q) at {k}/{args.height} moduli")


if __name__ == "__main__":
    main()
