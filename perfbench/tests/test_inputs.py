"""Seeded inputs: byte-identical per seed, valid, with seed-independent faults."""

import json
import math

import inputs


def serialized(workload: str, seed: int, count: int = 2) -> bytes:
    stream = inputs.rounds(workload, seed, "timed")
    parts = []
    for _ in range(count):
        for op in next(stream):
            parts.append(json.dumps(op, sort_keys=True))
            parts += [inputs.surface_text(key, op[key]) for key in ("g", "h") if key in op]
            parts += [inputs.track_text(t) for t in op.get("tracks", ())]
    return "\n".join(parts).encode()


def test_same_seed_gives_byte_identical_inputs():
    for workload in inputs.ROUNDS:
        assert serialized(workload, 7) == serialized(workload, 7)
        assert serialized(workload, 7) != serialized(workload, 8)


def test_rounds_are_whole_and_faults_do_not_depend_on_the_seed():
    for seed in (1, 2):
        ops = next(inputs.rounds("kmetric", seed, "timed"))
        assert tuple(op["kind"] for op in ops) == inputs.KMETRIC_ROUND
        faults = [(op["g"], op["h"]) for op in ops if op["kind"].startswith("fault")]
        assert faults == [(inputs.FAULT_ZERO_LENGTH, inputs.ZERO), (inputs.FAULT_OVERFLOW, inputs.ZERO)]
    assert len(next(inputs.rounds("march", 1, "timed"))) == inputs.MARCH_K_STRATA // 2 + 1
    assert len(next(inputs.rounds("twist", 1, "timed"))) == 1


def test_structures_are_complete_and_tracks_valid():
    for workload in inputs.ROUNDS:
        for op in next(inputs.rounds(workload, 3, "timed")):
            for item in [op, *op.get("marches", ())]:
                for key in ("g", "h"):
                    assert key not in item or abs(math.fsum(item[key])) <= 1e-12
            for branches, switches in op.get("tracks", ()):
                placed = sorted(h for left, right in switches for h in left + right)
                assert placed == list(range(2 * branches))
                assert all(left and right for left, right in switches)


def test_march_pairs_are_calibrated_into_mirrored_strata():
    ops = next(inputs.rounds("march", 5, "timed"))
    for low, op in enumerate(ops):
        first, second = op["marches"]
        assert op["g"] == first["g"]
        assert abs(first["k0"] - (0.35 + 0.1 * low)) <= 0.005
        assert abs(second["k0"] - (0.95 - 0.1 * low)) <= 0.005
