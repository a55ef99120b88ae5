"""Sample minor-arc magnitudes of a box sum and run the transference report.

First part: draw random points off the height-Q arc family and record the
largest |f| / (P^(1+eps) Q^(-1/3)); repeated over a Q ladder this traces
how the normalized sup behaves as the arcs grow.  Second part: sample a
block sum on a (H, Y) grid with `transfer_grid`, the sampler of criterion 12,
and measure the constant needed to transfer its convergent-based bound to
nearby non-convergent rationals.

Run: python3 scripts/minor_arc_sweep.py [--p 200] [--samples 40]
"""

import argparse

import numpy as np

from diagpair.arcs import minor_arc_weyl_check, transfer_grid
from diagpair.expsums import BoxSumSpec


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=200.0)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=12)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = BoxSumSpec(theta=0.4, P=args.p, cubic=1, quad=1)

    print(f"minor-arc sweep at P = {args.p}, eps = {args.eps}")
    print(f"{'Q':>6}  {'max |f|/norm':>13}  {'rejected':>9}")
    Q = 2.0
    while Q <= args.p**0.7:
        rep = minor_arc_weyl_check(spec, Q, args.p, args.samples, rng=rng, eps=args.eps)
        print(f"{Q:>6.1f}  {rep['max_normalized']:>13.4f}  {rep['rejected_inside']:>9}")
        Q *= 2

    print("\ntransference constants on an (H, Y) grid:")
    print(f"{'H':>5} {'Y':>5}  {'C1':>8}  {'C2':>8}  {'amplification':>14}")
    for (H, Y), rep in transfer_grid([(4, 12), (6, 20), (8, 30)], rng).items():
        print(f"{H:>5} {Y:>5}  {rep['C1_fitted']:>8.3f}  {rep['C2_observed']:>8.3f}"
              f"  {rep['amplification']:>14.3f}")
        worst = rep["worst"]
        if worst is not None:
            print(f"      worst at alpha={worst['alpha']:.6f} "
                  f"b/r={worst['b']}/{worst['r']} lambda={worst['lambda']:.2f}")


if __name__ == "__main__":
    main()
