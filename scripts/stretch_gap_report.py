#!/usr/bin/env python3
"""Gap between the stretch parameter t and the measured curve-ratio bound.

Scaling all shears by exp(t) is the stretch along the full ideal
triangulation, an all-cusped lamination, so the built-in exp(t)-Lipschitz map
need not be extremal: K(g, stretch(g, t)) can sit strictly below t.  This
script reports the measured gap over random base structures.
"""

import argparse
import random

from stretchlab import ShearStructure, k_estimate, shears_from_coefficients, standard_torus_triangulation, stretch


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bases", type=int, default=10)
    ap.add_argument("--t", type=float, nargs="*", default=[0.1, 0.5, 1.0])
    ap.add_argument("--complexity", type=int, default=30)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    T = standard_torus_triangulation()

    print("t\tbase\tK_lower\tgap")
    for t in args.t:
        for k in range(args.bases):
            g = ShearStructure(
                T, shears_from_coefficients(T, (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
            )
            report = k_estimate(g, stretch(g, t), (args.complexity,))
            print(f"{t:g}\t{k}\t{report.k_lower:.6f}\t{t - report.k_lower:.6f}")


if __name__ == "__main__":
    main()
