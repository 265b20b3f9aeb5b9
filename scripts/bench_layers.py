#!/usr/bin/env python3
"""Median wall time of each library layer, printed as one JSON object.

Layers: the slope sweep, k_estimate, the gradient cloud, one gradient, one
earthquake twist, the nonperipheral classes, the three train-track verdicts
on ten seeded 16-32-branch tracks, and the CLI parser as each `main` call gets
it.  A function that the imported library lacks is recorded as null, so the
same script times an older checkout too:

    PYTHONPATH=src python scripts/bench_layers.py --repeats 21 --out BENCH.json
"""

import argparse
import json
import platform
import random
import statistics
import time

from stretchlab import (ShearStructure, Slope, convex_cloud, earthquake_twist, grad_log_length, k_estimate,
                        shear_to_holonomy_rep, shears_from_coefficients, slope_lengths, standard_torus_triangulation)
from stretchlab import cli, traintrack
from stretchlab.metric import nonperipheral_classes


def seeded_track(rng: random.Random) -> traintrack.TrainTrack:
    """Every half-branch of 16-32 branches shuffled into switches, each cut into two nonempty sides."""
    n = rng.randint(16, 32)
    halves = list(range(2 * n))
    rng.shuffle(halves)
    sizes = [2] * rng.randint(1, n)
    for _ in range(2 * n - 2 * len(sizes)):
        sizes[rng.randrange(len(sizes))] += 1
    switches, start = [], 0
    for size in sizes:
        group, start = halves[start:start + size], start + size
        cut = rng.randint(1, size - 1)
        switches.append((tuple(group[:cut]), tuple(group[cut:])))
    return traintrack.TrainTrack(n, tuple(switches))


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 4)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", help="also write the JSON object to this file")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    T = standard_torus_triangulation()
    g, h = (ShearStructure(T, shears_from_coefficients(T, (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))))
            for _ in range(2))
    rep = shear_to_holonomy_rep(g)
    tracks = [seeded_track(rng) for _ in range(10)]
    layers = {
        "slope_lengths(g,160)": lambda: slope_lengths(g, 160),
        "k_estimate(g,h,(20,40,80,160))": lambda: k_estimate(g, h, (20, 40, 80, 160)),
        "convex_cloud(h,20)": lambda: convex_cloud(h, 20),
        "grad_log_length(g,2/1)": lambda: grad_log_length(g, Slope(2, 1)),
        "earthquake_twist(g,2/1,0.5)": lambda: earthquake_twist(rep, Slope(2, 1), 0.5),
        "nonperipheral_classes(7)": lambda: nonperipheral_classes(7),
        "build_parser": cli.build_parser,
    }
    for name in ("cone_dimension", "weight_cone_basis", "positive_weight_witness"):
        fn = getattr(traintrack, name, None)
        layers[f"10 tracks: {name}"] = fn and (lambda fn=fn: [fn(tt) for tt in tracks])
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "repeats": args.repeats,
        "median_ms": {name: fn and median_ms(fn, args.repeats) for name, fn in layers.items()},
    }
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
