"""Command-line contract: formats, exit codes, byte-stable output."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import stretchlab.cli as cli
from stretchlab import EllipticHolonomy, ShearStructure, standard_torus_triangulation
from stretchlab.cli import emit_surface, main, parse_surface
from stretchlab.metric import CloudReport

from util import TORUS, oracle_slope_lengths, oracle_word_lengths, random_complete

ZERO_DOC = '{"surface": "zero", "triangulation": "S_1_1", "shears": {"e0": 0.0, "e1": 0.0, "e2": 0.0}}'


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(ZERO_DOC)
    return str(path)


def write_surface(tmp_path, name, S, label="s"):
    path = tmp_path / name
    path.write_text(emit_surface(label, S))
    return str(path)


# -- length ------------------------------------------------------------------------

def test_length_zero_shear_systole(zero_file, capsys):
    assert main(["length", zero_file, "slope:1/0"]) == 0
    assert capsys.readouterr().out == "1.92484730024\n"


def test_length_puncture_loop_zero(zero_file, capsys):
    assert main(["length", zero_file, "loop:e1L,e2L,e0L,e1L,e2L,e0L"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_length_word_route(zero_file, capsys):
    assert main(["length", zero_file, "word:ab"]) == 0
    assert capsys.readouterr().out == "1.92484730024\n"


def test_length_noncoprime_slope_exit_2(zero_file, capsys):
    assert main(["length", zero_file, "slope:2/4"]) == 2
    err = capsys.readouterr().err
    assert "coprime" in err


def test_length_elliptic_exit_4(zero_file, capsys, monkeypatch):
    def boom(*args):
        raise EllipticHolonomy("synthetic")

    monkeypatch.setattr(cli, "curve_length", boom)
    assert main(["length", zero_file, "slope:1/0"]) == 4


def test_malformed_surface_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"surface": "x", "triangulation": "S_1_1", "shears": {"e0": 1.0, "e1": 0.0, "e2": 0.0}}')
    assert main(["length", str(path), "slope:1/0"]) == 2
    assert "incomplete" in capsys.readouterr().err


@pytest.mark.parametrize("gluings", [[[0, 1]], [[[0, 0]]], [[[0, 3], [1, 0]]], 5])
def test_malformed_gluings_exit_2(tmp_path, capsys, gluings):
    doc = {"surface": "x", "triangulation": {"triangles": 2, "gluings": gluings},
           "shears": {"e0": 0.0, "e1": 0.0, "e2": 0.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["length", str(path), "slope:1/0"]) == 2
    assert "gluing" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '[]',
    '{"surface": "x", "triangulation": "S_1_1", "shears": 5}',
    '{"surface": "x", "triangulation": "S_1_1", "shears": {"e0": null, "e1": 0, "e2": 0}}',
    '{"surface": "x", "triangulation": "S_1_1", "shears": {"e0": [0], "e1": 0, "e2": 0}}',
    '{"surface": "x", "triangulation": {"triangles": [2], "gluings": []}, "shears": {}}',
])
def test_malformed_surface_values_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["length", str(path), "slope:1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("shears, curve", [
    ((0.0, 300.0, -300.0), "slope:5/7"),
    ((0.0, 300.0, -300.0), "slope:40/41"),
    ((0.0, 300.0, -300.0), "word:ababababababab"),
    ((0.0, 1500.0, -1500.0), "slope:1/0"),
])
def test_overflowing_lengths_exit_2(tmp_path, capsys, shears, curve):
    path = write_surface(tmp_path, "big.json", ShearStructure(TORUS, shears))
    assert main(["length", path, curve]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err


@pytest.mark.parametrize("shears, pq", [
    ((300.0, -300.0, 0.0), (1, 0)),
    ((0.0, 1000.0, -1000.0), (1, 1)),
    ((0.0, 1000.0, -1000.0), (1, 0)),
])
def test_extreme_shear_lengths_against_oracle(tmp_path, capsys, shears, pq):
    # the root lengths come from the shears in closed form, so these no longer overflow
    path = write_surface(tmp_path, "big.json", ShearStructure(TORUS, shears))
    assert main(["length", path, f"slope:{pq[0]}/{pq[1]}"]) == 0
    printed = float(capsys.readouterr().out)
    exact = oracle_slope_lengths(shears, 2)[pq]
    assert abs(printed - exact) <= 1e-11 * exact  # the 12 printed digits


def test_slope_length_underflow_exit_2(tmp_path, capsys):
    from stretchlab import NumericalOverflow, Slope, slope_length

    # slope 2/1 has length 1.2e-6, but the Fricke step down to it rounds its trace to 2:
    # that is an error, never a length of 0
    S = ShearStructure(TORUS, (30.0, 0.0, -30.0))
    with pytest.raises(NumericalOverflow, match="underflow"):
        slope_length(S, Slope(2, 1))
    assert main(["length", write_surface(tmp_path, "pinched.json", S), "slope:2/1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflow" in captured.err


def test_word_length_underflow_exit_2(tmp_path, capsys):
    # b on (-24, 0, 24) and a on (0, 24, -24) have length 2 e^-12 = 1.2e-5, and
    # their traces are within 1e-10 of 2; the spine product keeps every digit
    # (both exited 2 with the trace rule).  The puncture class (abAB, here
    # rotated and inverted) has length 0
    for shears, word in (((-24.0, 0.0, 24.0), "b"), ((0.0, 24.0, -24.0), "a")):
        path = write_surface(tmp_path, "pinched.json", ShearStructure(TORUS, shears))
        assert main(["length", path, f"word:{word}"]) == 0
        printed = float(capsys.readouterr().out)
        exact = oracle_word_lengths(shears, [word])[word]
        assert abs(printed - exact) <= 1e-11 * exact  # the 12 printed digits
    assert main(["length", path, "word:aBAb"]) == 0
    assert capsys.readouterr().out == "0\n"
    # on (0, 1300, -1300) a's product has the entry e^-1300, below the smallest
    # double, though its length 2 e^-650 is one: an error, never a length of 0
    path = write_surface(tmp_path, "pinched_a.json", ShearStructure(TORUS, (0.0, 1300.0, -1300.0)))
    assert main(["length", path, "word:a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflow" in captured.err


def test_kmetric_all_classes_on_a_pinched_structure(tmp_path, capsys):
    # every class word of (0, 20, -20) exited 2: its normal form loses the commutator
    path = write_surface(tmp_path, "pinched.json", ShearStructure(TORUS, (0.0, 20.0, -20.0)))
    assert main(["kmetric", path, path, "--max-complexity", "8", "--all-classes", "7"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("K_all_classes=") and math.isfinite(float(last.split("=")[1]))


def test_kmetric_overflowing_structure_exit_2(tmp_path, capsys):
    path = write_surface(tmp_path, "big.json", ShearStructure(TORUS, (0.0, 1500.0, -1500.0)))
    assert main(["kmetric", path, path]) == 2
    assert "overflow" in capsys.readouterr().err


# -- kmetric ------------------------------------------------------------------------

def test_kmetric_identical_structures(zero_file, capsys):
    assert main(["kmetric", zero_file, zero_file, "--max-complexity", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "curve\tlen_g\tlen_h\tlog_ratio"
    assert out[-1].startswith("K_lower=0 best=slope:0/1 stabilized=true")


def test_kmetric_stretch_pair_bound(tmp_path, capsys):
    from stretchlab import stretch

    rng = random.Random(21)
    g = random_complete(rng)
    g_file = write_surface(tmp_path, "g.json", g)
    h_file = write_surface(tmp_path, "h.json", stretch(g, 0.5))
    assert main(["kmetric", g_file, h_file, "--max-complexity", "12"]) == 0
    out = capsys.readouterr().out
    summary = [l for l in out.splitlines() if l.startswith("K_lower=")][0]
    k = float(summary.split()[0].split("=")[1])
    assert k <= 0.5 + 1e-9


def test_kmetric_unstabilized_soft_warning_exit_3(tmp_path, capsys):
    # maximizer (1,1) only enters the sweep at the last level, so the best
    # curve changes between levels and the report is a soft warning
    g_file = write_surface(tmp_path, "g.json", ShearStructure(TORUS, (0.0, 0.0, 0.0)))
    h_file = write_surface(tmp_path, "h.json", ShearStructure(TORUS, (-1.2, 1.2, 0.0)))
    assert main(["kmetric", g_file, h_file, "--max-complexity", "2"]) == 3
    out = capsys.readouterr().out
    assert "stabilized=false" in out.splitlines()[-1]


def test_kmetric_all_classes_agreement(tmp_path, capsys):
    rng = random.Random(22)
    g_file = write_surface(tmp_path, "g.json", random_complete(rng, scale=0.7))
    h_file = write_surface(tmp_path, "h.json", random_complete(rng, scale=0.7))
    main(["kmetric", g_file, h_file, "--max-complexity", "30", "--all-classes", "8"])
    lines = capsys.readouterr().out.splitlines()
    k_slopes = float([l for l in lines if l.startswith("K_lower=")][0].split()[0].split("=")[1])
    k_words = float([l for l in lines if l.startswith("K_all_classes=")][0].split("=")[1])
    assert abs(k_slopes - k_words) <= 1e-6


@pytest.mark.parametrize("level", ["0", "-3"])
def test_kmetric_max_complexity_below_one_exit_2(zero_file, capsys, level):
    assert main(["kmetric", zero_file, zero_file, "--max-complexity", level]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_kmetric_mismatched_triangulations_exit_2(tmp_path, zero_file, capsys):
    from util import sphere3_triangulation

    other = write_surface(tmp_path, "s3.json", ShearStructure(sphere3_triangulation(), (0.0, 0.0, 0.0)))
    assert main(["kmetric", zero_file, other]) == 2


# -- deform --------------------------------------------------------------------------

def test_deform_stretch_zero_is_byte_identical(zero_file, capsys):
    assert main(["deform", zero_file, "--stretch", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["deform", zero_file, "--stretch", "0"]) == 0
    assert capsys.readouterr().out == first
    label, parsed = parse_surface(first)
    assert parsed.shears == (0.0, 0.0, 0.0)


def test_deform_stretch_log2(tmp_path, capsys):
    S = ShearStructure(TORUS, (1.0, -1.0, 0.0))
    path = write_surface(tmp_path, "s.json", S)
    assert main(["deform", path, "--stretch", str(math.log(2.0))]) == 0
    _, out = parse_surface(capsys.readouterr().out)
    assert out.shears == pytest.approx((2.0, -2.0, 0.0), abs=1e-15)


def test_deform_twist_zero_identity(tmp_path, capsys):
    S = ShearStructure(TORUS, (0.25, -0.5, 0.25))
    path = write_surface(tmp_path, "s.json", S)
    assert main(["deform", path, "--twist", "1/0", "0"]) == 0
    _, out = parse_surface(capsys.readouterr().out)
    assert out.shears == S.shears


def test_deform_twist_adds_transverse_direction(tmp_path, capsys):
    from stretchlab import shear_from_transverse, transverse_slope_weights
    from stretchlab.surface import Slope

    S = ShearStructure(TORUS, (0.0, 0.0, 0.0))
    path = write_surface(tmp_path, "s.json", S)
    assert main(["deform", path, "--twist", "1/1", "0.25"]) == 0
    _, out = parse_surface(capsys.readouterr().out)
    d = shear_from_transverse(TORUS, transverse_slope_weights(Slope(1, 1)))
    assert out.shears == pytest.approx(tuple(0.25 * x for x in d), abs=1e-15)


def test_deform_twist_requires_torus(tmp_path, capsys):
    from util import sphere3_triangulation

    path = write_surface(tmp_path, "s3.json", ShearStructure(sphere3_triangulation(), (0.0, 0.0, 0.0)))
    assert main(["deform", path, "--twist", "1/0", "0.5"]) == 2


def test_roundtrip_seventeen_digits(tmp_path):
    rng = random.Random(23)
    for _ in range(20):
        S = random_complete(rng)
        text = emit_surface("roundtrip", S)
        label, parsed = parse_surface(text)
        assert label == "roundtrip"
        assert parsed.shears == S.shears
        assert emit_surface(label, parsed) == text


# -- gradcloud -----------------------------------------------------------------------

def test_gradcloud_zero_shear(zero_file, capsys):
    assert main(["gradcloud", zero_file, "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # 4 slope rows + 2 verdicts
    assert lines[-2] == "origin_interior=true"
    assert lines[-1] == "all_vertices=true"
    first = lines[0].split(",")
    assert len(first) == 4


def test_gradcloud_failed_verdict_exit_5(zero_file, capsys, monkeypatch):
    def fake(S, n):
        return CloudReport((), (), False, True)

    monkeypatch.setattr(cli, "convex_cloud", fake)
    assert main(["gradcloud", zero_file, "2"]) == 5


# -- march ----------------------------------------------------------------------------

def test_march_identical_structures_empty_trace(zero_file, capsys):
    assert main(["march", zero_file, zero_file, "--step", "0.01"]) == 0
    assert capsys.readouterr().out == ""


def test_march_exhausts_steps_exit_3(tmp_path, capsys):
    rng = random.Random(24)
    g_file = write_surface(tmp_path, "g.json", random_complete(rng))
    h_file = write_surface(tmp_path, "h.json", random_complete(rng))
    assert main(["march", g_file, h_file, "--step", "0.001", "--max-steps", "3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(len(line.split("\t")) == 3 for line in lines)


# -- track ----------------------------------------------------------------------------

def write_track(tmp_path, name, branches, switches):
    doc = {"branches": branches, "switches": [{"left": list(l), "right": list(r)} for l, r in switches]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_track_single_loop(tmp_path, capsys):
    path = write_track(tmp_path, "loop.json", 1, [((0,), (1,))])
    assert main(["track", path, "--check"]) == 0
    assert capsys.readouterr().out == "recurrent=true cone_dim=1 positive=true\n"


def test_track_loop_with_stub(tmp_path, capsys):
    path = write_track(tmp_path, "stub.json", 2, [((0, 2, 3), (1,))])
    assert main(["track", path, "--check"]) == 0
    assert capsys.readouterr().out.startswith("recurrent=false")


def test_track_standard_torus(tmp_path, capsys):
    path = write_track(tmp_path, "std.json", 3, [((0, 4), (2,)), ((3,), (1, 5))])
    assert main(["track", path, "--check"]) == 0
    assert capsys.readouterr().out == "recurrent=true cone_dim=2 positive=true\n"


def test_track_invalid_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"branches": 2, "switches": [{"left": [0], "right": [1]}]}')
    assert main(["track", str(path), "--check"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"branches": 1, "switches": [{"left": [[0]], "right": [1]}]}',
        '{"branches": 1, "switches": 5}',
        "[1, 2]",
        '{"branches": 1, "switches": [{"left": [0.7], "right": [1]}]}',
        '{"branches": true, "switches": [{"left": [0], "right": [1]}]}',
        '{"branches": 1.0, "switches": [{"left": [0], "right": [1]}]}',
        '{"switches": [{"left": [0], "right": [1]}]}',
        '{"branches": 1, "switches": [[0, 1]]}',
        '{"branches": 1, "switches": [{"left": [0]}]}',
        # the half-branch count is checked before range(2 * branches) is built
        '{"branches": 1000000000000000, "switches": [{"left": [0], "right": [1]}]}',
    ],
)
def test_track_malformed_file_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["track", str(path), "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- determinism and the console script -------------------------------------------------

def test_module_invocation_smoke(zero_file):
    proc = subprocess.run(
        [sys.executable, "-m", "stretchlab.cli", "length", zero_file, "slope:1/0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.92484730024\n"
    assert proc.stderr == ""


def test_cached_parser_keeps_no_state(tmp_path, zero_file, capsys):
    """One parser serves every call of a process; no call leaks into the next."""
    assert cli.build_parser() is cli.build_parser()
    rng = random.Random(31)
    g_file = write_surface(tmp_path, "g.json", random_complete(rng, scale=0.7))
    h_file = write_surface(tmp_path, "h.json", random_complete(rng, scale=0.7))

    main(["kmetric", g_file, h_file, "--max-complexity", "8"])
    plain = capsys.readouterr().out
    main(["kmetric", g_file, h_file, "--max-complexity", "8", "--all-classes", "7"])
    assert capsys.readouterr().out.startswith(plain)
    main(["kmetric", g_file, h_file, "--max-complexity", "8"])
    assert capsys.readouterr().out == plain
    assert "K_all_classes" not in plain

    assert main(["deform", g_file, "--twist", "1/1", "0.25"]) == 0
    twisted = capsys.readouterr().out
    assert main(["deform", g_file, "--stretch", "0.5"]) == 0
    stretched = capsys.readouterr().out
    assert main(["deform", g_file, "--twist", "1/1", "0.25"]) == 0
    assert capsys.readouterr().out == twisted != stretched

    with pytest.raises(SystemExit) as exc:
        main(["deform", g_file, "--stretch", "0.5", "--twist", "1/1", "0.25"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["length", zero_file, "slope:1/0"]) == 0
    assert capsys.readouterr().out == "1.92484730024\n"


def test_import_does_not_load_mpmath():
    import stretchlab

    src = os.path.dirname(os.path.dirname(stretchlab.__file__))
    code = "import sys, stretchlab, stretchlab.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"


SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(SCRIPTS_DIR) if f.endswith(".py")))
def test_script_runs_with_defaults(script):
    import stretchlab

    src = os.path.dirname(os.path.dirname(stretchlab.__file__))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS_DIR, script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_general_triangulation_file_roundtrip_and_length(tmp_path, capsys):
    from util import sphere3_triangulation

    S3 = ShearStructure(sphere3_triangulation(), (0.0, 0.0, 0.0))
    text = emit_surface("sphere3", S3)
    label, parsed = parse_surface(text)
    assert label == "sphere3" and parsed == S3
    assert emit_surface(label, parsed) == text
    path = tmp_path / "s3.json"
    path.write_text(text)
    # all dual loops on the thrice-punctured sphere are puncture-parallel
    assert main(["length", str(path), "loop:e1L,e0L"]) == 0
    assert capsys.readouterr().out == "0\n"
