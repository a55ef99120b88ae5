"""Dyadic ladder for the unit singular integral, with an MC cross-check.

W(Q) at heights Q, Q/2, Q/4, ... is read from `singular_integral`'s
ladder; each row gives the quadrature's work (passes, the last pass's b2,
b3 and gamma nodes, and its 1-D and 2-D factor tables).  The tail
differences and their ratios show the convergence rate, the geometric
extrapolation gives a limit estimate, and a coarea-formula Monte Carlo of
the same box density provides an independent value to compare against.

Run: python3 scripts/arch_ladder.py [--builtin ladder6] [--q 64]
"""

import argparse

import numpy as np

from diagpair.acceptance import LADDER6_THETA
from diagpair.archimedean import extrapolate_ladder, singular_integral, volume_constant
from diagpair.solver import find_real_anchor
from diagpair.systems import BUILTIN_SYSTEMS, load_system

ANCHORS = {"ladder6": LADDER6_THETA}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--builtin", choices=sorted(BUILTIN_SYSTEMS), default="ladder6")
    ap.add_argument("--spec", help="system file; overrides --builtin")
    ap.add_argument("--q", type=float, default=64.0)
    ap.add_argument("--rungs", type=int, default=5)
    ap.add_argument("--mc-samples", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    sysd = load_system(args.spec) if args.spec else BUILTIN_SYSTEMS[args.builtin]
    rng = np.random.default_rng(args.seed)
    theta = ANCHORS.get(args.builtin)
    if args.spec or theta is None:
        theta = find_real_anchor(sysd, rng=rng).theta
        print("anchor theta:", tuple(round(t, 4) for t in theta))

    heights = [args.q / 2**k for k in range(args.rungs)][::-1]
    _, diag = singular_integral(sysd, args.q, 1.0, theta, heights=heights)
    values = [diag["ladder"][h] for h in heights]
    tails = diag["tails"]
    print(f"{'Q':>8}  {'W(Q)':>12}  {'tail':>10}  {'ratio':>7}  {'passes':>6}  {'b2':>6}  {'b3':>6}  "
          f"{'gamma':>6}  {'1-D':>3}  {'2-D':>3}")
    for i, (h, W) in enumerate(zip(heights, values)):
        tail = f"{tails[i - 1]:>10.5f}" if i else ""
        ratio = f"{tails[i - 1] / tails[i - 2]:>7.3f}" if i > 1 and tails[i - 2] != 0.0 else ""
        work = "  ".join(f"{diag['quadrature_work'][h][k]:>{w}}" for k, w in (
            ("passes", 6), ("nodes_b2", 6), ("nodes_b3", 6), ("nodes_gamma", 6), ("factors_1d", 3), ("factors_2d", 3)))
        print(f"{h:>8.1f}  {W:>12.7f}  {tail:>10}  {ratio:>7}  {work}")

    limit, err = extrapolate_ladder(values)
    print(f"extrapolated limit {limit:.6f} +- {err:.1e}")

    c, sigma = volume_constant(sysd, theta, rng=rng, samples=args.mc_samples)
    gap = abs(limit - c)
    print(f"MC volume (coarea) {c:.6f} +- {sigma:.1e}; gap {gap:.2e} "
          f"({gap / max(sigma, 1e-300):.1f} sigma against the MC error alone)")


if __name__ == "__main__":
    main()
