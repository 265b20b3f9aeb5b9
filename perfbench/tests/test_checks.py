"""Each workload's check passes the program's real output and rejects a corrupted one."""

import math
import random

import pytest

import checks
import inputs
import stretchlab
import workload
from spans import Tracer


@pytest.fixture
def runner(tmp_path):
    def make(name):
        return workload.Runner(name, 1, str(tmp_path))
    return make


def kmetric_output(runner, n=12):
    op = inputs.kmetric_op(random.Random(3), "stretch")
    op["n"] = n
    r = runner("kmetric")
    return op, r.call(op, r.stage(op))


def replace_row(text: str, index: int, fields) -> str:
    lines = text.splitlines(keepends=True)
    lines[index + 1] = "\t".join(fields) + "\n"
    return "".join(lines)


def test_kmetric_check_rejects_a_row_length_perturbed_by_1e8(runner):
    op, (rc, text) = kmetric_output(runner)
    checks.check_kmetric(op, rc, text, random.Random(0))
    curve, lg, lh, lr = text.splitlines()[5].split("\t")
    bad = replace_row(text, 4, [curve, format(float(lg) * (1 + 1e-8), ".12g"), lh, lr])
    with pytest.raises(checks.CheckFailed):
        checks.check_kmetric(op, rc, bad, random.Random(0))


def test_kmetric_oracle_catches_a_consistent_perturbation_of_the_top_row(runner):
    op, (rc, text) = kmetric_output(runner)
    curve, lg, lh, lr = text.splitlines()[1].split("\t")
    lh2 = float(lh) * (1 + 1e-8)
    lr2 = format(math.log(lh2 / float(lg)), ".12g")
    bad = replace_row(text, 0, [curve, lg, format(lh2, ".12g"), lr2])
    bad = bad.replace(f"K_lower={lr} ", f"K_lower={lr2} ")
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_kmetric(op, rc, bad, random.Random(0))


def test_march_check_rejects_a_march_whose_k_rises(runner):
    op = next(inputs.rounds("march", 1, "timed"))[0]
    r = runner("march")
    (march, _), (rc, text) = r.call(op, r.stage(op))
    data = {
        "converged": march.converged,
        "ks": [k for _, k, _ in march.records],
        "path": [s.shears for s in march.path],
    }
    checks.check_march(op["marches"][0], data)
    checks.check_cloud(op, rc, text, random.Random(0))
    data["ks"][2] = data["ks"][1] + 0.01
    with pytest.raises(checks.CheckFailed, match="rose"):
        checks.check_march(op["marches"][0], data)


def test_twist_check_rejects_a_round_trip_that_misses():
    shears, slope, t = (0.3, -0.8, 0.5), (2, 3), 0.7
    s = stretchlab.Slope(*slope)
    h0 = stretchlab.shear_to_holonomy_rep(stretchlab.ShearStructure(stretchlab.standard_torus_triangulation(), shears))
    h1 = stretchlab.earthquake_twist(h0, s, t)
    h2 = stretchlab.earthquake_twist(h1, s, -t)
    reps = [(h.A.entries(), h.B.entries()) for h in (h0, h1, h2)]
    checks.check_twist((shears, slope, t), reps)
    a2, b2 = reps[2]
    reps[2] = ((a2[0] + 1e-6,) + a2[1:], b2)
    with pytest.raises(checks.CheckFailed, match="round trip"):
        checks.check_twist((shears, slope, t), reps)


def test_track_check_rejects_a_flipped_verdict(runner):
    op = next(inputs.rounds("twist", 2, "timed"))[0]
    r = runner("twist")
    files = r.stage(op)
    tracks = op["tracks"]
    outputs = [workload.cli("track", files[f"track{i}"], "--check") for i in range(len(tracks))]
    checks.check_tracks(tracks, outputs)
    rc, text = outputs[0]
    flipped = text.replace("recurrent=true", "recurrent=false") if "recurrent=true" in text \
        else text.replace("recurrent=false", "recurrent=true")
    with pytest.raises(checks.CheckFailed):
        checks.check_tracks(tracks, [(rc, flipped)] + outputs[1:])


def test_tracer_counts_calls_under_every_alias_and_restores_them():
    original = stretchlab.metric.curve_length
    tracer = Tracer(named={"shear.ShearStructure"})
    tracer.install()
    try:
        assert stretchlab.metric.curve_length is stretchlab.shear.curve_length is stretchlab.curve_length
        assert stretchlab.curve_length is not original
        g = stretchlab.ShearStructure(stretchlab.standard_torus_triangulation(), (0.1, 0.2, -0.3))
        stretchlab.metric.curve_length(g, stretchlab.Slope(2, 5))
        stretchlab.curve_length(g, stretchlab.Slope(2, 5))
    finally:
        tracer.uninstall()
    assert stretchlab.metric.curve_length is original
    metrics = tracer.metrics()
    assert metrics["shear.curve_length.calls"] == 2
    assert metrics["shear.ShearStructure.calls"] == 1
    assert metrics["shear.word_length.hit_ratio"] == 0.5
    assert metrics["shear.curve_length.self_s"] >= 0.0
