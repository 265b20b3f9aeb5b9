"""Run one workload in this process: a closed loop with one caller.

The caller sends its next operation only after the previous one has
returned.  Writing an operation's input files and checking its outputs are
the caller's own work between operations and are not timed.  The program is
reached only through its public functions: ``stretchlab.cli.main`` where a
command exists, the library otherwise.  Names are looked up on the modules
at call time, so the traced run sees the wrappers of spans.Tracer.

Prints one JSON object as its last line of output.  Run through run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import stretchlab  # noqa: E402
import stretchlab.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

# Rounds of traced operations in a traced run (fixed work, so call counts repeat).
TRACE_ROUNDS = {"kmetric": 1, "march": 2, "twist": 12}
# Completed operations a timed run reaches at least, so that ten lie beyond the p90,
# unless that would take more than MAX_SECONDS_FACTOR times --seconds of
# operation time: a cap that bounds a run's length on a slow machine.
MIN_SAMPLES = 100
MAX_SECONDS_FACTOR = 1.3
# Peak RSS is read after this many operations: a fixed amount of work, so the
# figure does not grow with the machine's speed while the program's caches fill.
RSS_AT_OPS = 100


class ProgramFailed(Exception):
    """The program returned an error exit code."""


def cli(*args) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = stretchlab.cli.main([str(a) for a in args])
    if rc not in (0, 3, 5):
        raise ProgramFailed(f"{args[0]} exit {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def structure(shears):
    return stretchlab.ShearStructure(stretchlab.standard_torus_triangulation(), shears)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.check_rng = random.Random(f"check/{workload}/{seed}")
        self.times: list[float] = []        # wall time of every attempted operation
        self.completed: list[bool] = []     # whether it returned without a program failure
        self.refs = [speed.reference_loop()]  # one before the first operation, one after each
        self.failed: Counter = Counter()
        self.wrong: list[str] = []
        self.deferred_tracks: list = []

    def _file(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # -- staging (untimed), calling (timed), checking (untimed) ------------------

    def stage(self, op: dict) -> dict:
        files = {}
        if "g" in op:
            files["g"] = self._file("g.json", inputs.surface_text("g", op["g"]))
        if "h" in op:
            files["h"] = self._file("h.json", inputs.surface_text("h", op["h"]))
        for i, track in enumerate(op.get("tracks", ())):
            files[f"track{i}"] = self._file(f"track{i}.json", inputs.track_text(track))
        return files

    def call(self, op: dict, files: dict):
        if self.workload == "kmetric":
            return cli("kmetric", files["g"], files["h"], "--max-complexity", op["n"])
        if self.workload == "march":
            marches = [
                stretchlab.stretch_march(structure(m["g"]), structure(m["h"]), step=m["step"],
                                         max_steps=m["max_steps"])
                for m in op["marches"]
            ]
            return marches, cli("gradcloud", files["g"], op["cloud_n"])
        kmetric = cli("kmetric", files["g"], files["h"], "--max-complexity", op["n"],
                      "--all-classes", op["all_classes"])
        reps = []
        for shears, (p, q), t in op["twists"]:
            s = stretchlab.Slope(p, q)
            h0 = stretchlab.shear_to_holonomy_rep(structure(shears))
            h1 = stretchlab.earthquake_twist(h0, s, t)
            reps.append((h0, h1, stretchlab.earthquake_twist(h1, s, -t)))
        residuals = [
            stretchlab.antisymmetry_residual(structure(shears), stretchlab.Slope(*s), stretchlab.Slope(*t))
            for shears, s, t in op["antisymmetry"]
        ]
        tracks = [cli("track", files[f"track{i}"], "--check") for i in range(len(op["tracks"]))]
        return kmetric, reps, residuals, tracks

    def check(self, op: dict, result) -> None:
        rng = self.check_rng
        if self.workload == "kmetric":
            checks.check_kmetric(op, *result, rng)
        elif self.workload == "march":
            marches, (rc, text) = result
            for m, march in zip(op["marches"], marches):
                checks.check_march(m, {
                    "converged": march.converged,
                    "ks": [k for _, k, _ in march.records],
                    "path": [s.shears for s in march.path],
                })
            checks.check_cloud(op, rc, text, rng)
        else:
            (rc, text), reps, residuals, tracks = result
            checks.check_kmetric(op, rc, text, rng)
            for twist, rep in zip(op["twists"], reps):
                checks.check_twist(twist, [(h.A.entries(), h.B.entries()) for h in rep])
            for residual in residuals:
                checks.check_antisymmetry(residual)
            self.deferred_tracks.append((op["tracks"], tracks))

    def run_op(self, op: dict) -> float:
        """Run one operation; return the time it took, failed or not."""
        files = self.stage(op)
        start = time.perf_counter()
        try:
            result = self.call(op, files)
        except Exception as exc:  # the program failed; count it and keep the loop going
            result = exc
        elapsed = time.perf_counter() - start
        self.refs.append(speed.reference_loop())
        self.times.append(elapsed)
        self.completed.append(not isinstance(result, Exception))
        if isinstance(result, Exception):
            self.failed[f"{op['kind']}: {type(result).__name__}: {str(result)[:120]}"] += 1
            return elapsed
        try:
            self.check(op, result)
        except checks.CheckFailed as exc:
            self.wrong.append(f"{op['kind']}: {exc}")
        return elapsed

    def restart(self) -> None:
        """Forget the operations so far (the warm-up), keeping the last reference sample."""
        self.times.clear()
        self.completed.clear()
        self.refs[:-1] = []
        self.failed.clear()

    def finish_checks(self) -> None:
        """Checks that need numpy and networkx, run after the memory figure is taken."""
        for tracks, outputs in self.deferred_tracks:
            try:
                checks.check_tracks(tracks, outputs)
            except checks.CheckFailed as exc:
                self.wrong.append(f"track: {exc}")
        self.deferred_tracks.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(times, completed) -> dict:
    latencies = [t for t, ok in zip(times, completed) if ok]
    return {
        "ops_per_s": (len(latencies) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1], "ms"),
    }


def timed(runner: Runner, stream, seconds: float) -> dict:
    """Whole rounds until `seconds` of operation time and MIN_SAMPLES completed operations."""
    rss = None
    while sum(runner.times) < seconds or (
        sum(runner.completed) < MIN_SAMPLES and sum(runner.times) < MAX_SECONDS_FACTOR * seconds
    ):
        for op in next(stream):
            runner.run_op(op)
            if len(runner.times) == RSS_AT_OPS:
                rss = peak_rss_mb()
    if rss is None:  # a capped run that ended before RSS_AT_OPS operations
        rss = peak_rss_mb()
    runner.finish_checks()
    metrics = timing_metrics(speed.adjusted(runner.times, runner.refs), runner.completed)
    metrics["peak_rss_mb"] = (rss, "MB")
    raw = timing_metrics(runner.times, runner.completed)
    print("raw (unadjusted) " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items())
          + f"; reference loop median {1e3 * statistics.median(runner.refs):.3f} ms", file=sys.stderr)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workload, seed, workdir)
    try:
        # one untimed operation: lazy imports and per-curve caches fill once per process
        runner.run_op(next(inputs.rounds(workload, seed, "warmup"))[0])
        runner.restart()
        stream = inputs.rounds(workload, seed, "timed")
        metrics = traced(runner, stream, workload, seed) if trace else timed(runner, stream, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = sum(runner.completed)
    print(f"{workload}: {len(runner.times)} attempted, {samples} completed, "
          f"{sum(runner.times):.1f} s busy", file=sys.stderr)
    for reason, count in sorted(runner.failed.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    for reason in runner.wrong[:20]:
        print(f"WRONG: {reason}", file=sys.stderr)
    return {
        "correct": not runner.wrong,
        "attempted": len(runner.times),
        "failed": sum(runner.failed.values()),
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(runner: Runner, stream, workload: str, seed: int) -> dict:
    """Per-layer metrics from a run that alternates untraced and traced operations.

    In round r, operation j is traced when r + j is odd, so over each pair of
    rounds the traced and the untraced operations have the same make-up, and
    both meet the same phases of machine load.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer"]
    tracer = Tracer(named={m["name"].rsplit(".", 1)[0] for m in wanted})
    spent = [0.0, 0.0]
    for r in range(2 * TRACE_ROUNDS[workload]):
        for j, op in enumerate(next(stream)):
            on = (r + j) % 2
            if on:
                tracer.current_op = len(runner.times)
                tracer.install()
            try:
                spent[on] += runner.run_op(op)
            finally:
                if on:
                    tracer.uninstall()
    runner.finish_checks()
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.tsv.gz"))
    layer = tracer.metrics()
    layer["trace.overhead_s"] = spent[1] - spent[0]
    return {m["name"]: (layer[m["name"]], m["unit"]) for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
