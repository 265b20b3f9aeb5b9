"""stretchlab benchmark: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kmetric --seed 1 --seconds 25 --trace 0

Measures the set-up time (fresh interpreter to ``import stretchlab`` plus the
CLI parser) over several launches, then runs the workload in its own fresh
single-threaded Python process with STRETCHLAB_THREADS unset (workload.py),
and prints one JSON object as the last line of standard output.  With
``--trace 1`` the metrics are the per-layer ones of a traced run instead.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("kmetric", "march", "twist")

# Probe launches, each followed by a launch of speed.REFERENCE_LAUNCH.
SETUP_LAUNCHES = 24
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); import stretchlab, stretchlab.cli; "
    "stretchlab.cli.build_parser(); print('ready', flush=True)"
)
# The workload process gets DEADLINE_FACTOR x --seconds plus DEADLINE_MARGIN_S
# (155 s at --seconds 25): up to 1.3 x --seconds of operations, their checks,
# and the warm-up.
DEADLINE_FACTOR = 3.0
DEADLINE_MARGIN_S = 80.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STRETCHLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch_seconds(code: str, env: dict) -> float:
    """Time from launching a fresh interpreter on code until it prints its ready line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"launch of {code!r} failed with exit {proc.returncode}")
    return ready - start


def setup_seconds(env: dict) -> float:
    """Median set-up launch, scaled by the median launch of a stdlib-only reference.

    The two kinds of launch alternate, so both meet the same speed of the
    machine: its process start-up, file reads and imports, which the
    in-process reference loop does not follow (README.md).
    """
    probes, refs = [], []
    for _ in range(SETUP_LAUNCHES):
        probes.append(launch_seconds(SETUP_PROBE, env))
        refs.append(launch_seconds(speed.REFERENCE_LAUNCH, env))
    raw = statistics.median(probes)
    print(f"set-up raw median {raw:.6f} s; reference launch median {statistics.median(refs):.6f} s",
          file=sys.stderr)
    return raw * speed.REFERENCE_LAUNCH_S / statistics.median(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stretchlab benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "stretchlab", "__init__.py")):
        print("error: no stretchlab sources under src/ in this checkout", file=sys.stderr)
        return 2
    env = child_env()
    setup = None if args.trace else setup_seconds(env)
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=DEADLINE_FACTOR * args.seconds + DEADLINE_MARGIN_S - (time.perf_counter() - began),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload process ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: the workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    metrics = child["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, samples=child["samples"]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
