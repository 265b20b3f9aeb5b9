"""Command-line front end: file formats, reports, exit codes.

Surface files are JSON with keys "surface" (label), "triangulation" (the
literal "S_1_1" or a gluing table {"triangles": T, "gluings": [[[t,s],[u,r]],
...]}), and "shears" keyed "e0".."e{E-1}".  Shears are emitted with 17
significant digits so emit/parse round-trips are lossless.

Track files are JSON with "branches" (count) and "switches" (a list of
{"left": [...], "right": [...]} with half-branch ids 2*branch + end).

Exit codes: 0 success, 2 parse/validation failure (also a shear or trace
beyond double range, and a track file of the wrong shape or with a branch
count or half-branch id that is not an integer), 3 soft warning (sweep not
stabilized, march stopped early), 4 elliptic holonomy, 5 failed hull verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import EllipticHolonomy, NoProgress, StretchlabError
from .metric import (
    convex_cloud,
    curve_id,
    k_estimate,
    k_lower_bound,
    nonperipheral_classes,
    stretch_march,
)
from .shear import (
    ShearStructure,
    curve_length,
    shear_from_transverse,
    stretch,
    transverse_slope_weights,
)
from .surface import (
    CombinatorialLoop,
    FreeWord,
    IdealTriangulation,
    Slope,
    Turn,
    standard_torus_triangulation,
)
from .traintrack import TrainTrack, cone_dimension, positive_weight_witness


def _fmt(value: float, digits: int = 12) -> str:
    return format(value, f".{digits}g")


def _bool(value: bool) -> str:
    return "true" if value else "false"


# -- surface files -------------------------------------------------------------

def _gluing_sides(pair, T: int) -> list[int]:
    """Flat side indices 3*t + s of one gluing pair [[t,s],[u,r]]."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"gluing {pair} is not a pair [[t,s],[u,r]]")
    flat = []
    for side in pair:
        if not (isinstance(side, list) and len(side) == 2 and all(type(v) is int for v in side)):
            raise ValueError(f"gluing {pair}: {side} is not a [triangle, side] pair of integers")
        t, s = side
        if not (0 <= t < T and 0 <= s < 3):
            raise ValueError(f"gluing {pair} out of range")
        flat.append(3 * t + s)
    return flat


def parse_triangulation(spec) -> IdealTriangulation:
    if spec == "S_1_1":
        return standard_torus_triangulation()
    if not isinstance(spec, dict):
        raise ValueError("triangulation must be \"S_1_1\" or a gluing table object")
    T = spec["triangles"]
    if type(T) is not int:
        raise ValueError(f"triangle count {T!r} is not an integer")
    table = [-1] * (3 * T)
    pairs = spec["gluings"]
    if not isinstance(pairs, list):
        raise ValueError("gluings must be a list of [[t,s],[u,r]] pairs")
    for pair in pairs:
        i, j = _gluing_sides(pair, T)
        if table[i] != -1 or table[j] != -1:
            raise ValueError(f"side glued twice in {pair}")
        table[i], table[j] = j, i
    if -1 in table:
        raise ValueError("gluing table does not cover every triangle side")
    tri = IdealTriangulation(T, tuple(table))
    tri.validate()
    return tri


def parse_surface(text: str) -> tuple[str, ShearStructure]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("surface file must hold a JSON object")
    for key in ("surface", "triangulation", "shears"):
        if key not in doc:
            raise ValueError(f"surface file is missing the \"{key}\" key")
    tri = parse_triangulation(doc["triangulation"])
    raw = doc["shears"]
    if not isinstance(raw, dict):
        raise ValueError("shears must be an object keyed \"e0\", \"e1\", ...")
    shears = []
    for e in range(tri.num_edges):
        key = f"e{e}"
        if key not in raw:
            raise ValueError(f"missing shear for edge {key}")
        if type(raw[key]) not in (int, float):
            raise ValueError(f"shear for edge {key} is not a number: {raw[key]!r}")
        shears.append(float(raw[key]))
    if len(raw) != tri.num_edges:
        extra = sorted(set(raw) - {f"e{e}" for e in range(tri.num_edges)})
        raise ValueError(f"unexpected shear keys: {extra}")
    return str(doc["surface"]), ShearStructure(tri, tuple(shears))


def parse_surface_file(path: str) -> tuple[str, ShearStructure]:
    with open(path, encoding="utf-8") as fh:
        return parse_surface(fh.read())


def emit_surface(label: str, S: ShearStructure) -> str:
    """Byte-stable serialization: fixed key order, shears at 17 significant digits."""
    tri = S.triangulation
    if tri == standard_torus_triangulation():
        tri_text = '"S_1_1"'
    else:
        pairs = []
        for i, j in enumerate(tri.gluings):
            if i < j:
                pairs.append(f"[[{i // 3},{i % 3}],[{j // 3},{j % 3}]]")
        tri_text = f'{{"triangles": {tri.num_triangles}, "gluings": [{", ".join(pairs)}]}}'
    shear_items = ", ".join(
        f'"e{e}": {_fmt(x, 17)}' for e, x in enumerate(S.shears)
    )
    return (
        "{\n"
        f'  "surface": {json.dumps(label)},\n'
        f'  "triangulation": {tri_text},\n'
        f'  "shears": {{{shear_items}}}\n'
        "}\n"
    )


# -- curve specs ----------------------------------------------------------------

def parse_slope(text: str) -> Slope:
    num, _, den = text.partition("/")
    p, q = int(num), int(den)
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Slope(p, q)


def parse_curve(spec: str):
    kind, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"curve spec {spec!r} needs a 'slope:', 'word:' or 'loop:' prefix")
    if kind == "slope":
        return parse_slope(body)
    if kind == "word":
        return FreeWord.from_string(body)
    if kind == "loop":
        steps = []
        for item in body.split(","):
            item = item.strip()
            if len(item) < 2 or item[-1] not in "LR":
                raise ValueError(f"malformed loop step {item!r}")
            edge = item[:-1]
            if edge.startswith("e"):
                edge = edge[1:]
            steps.append((int(edge), Turn.LEFT if item[-1] == "L" else Turn.RIGHT))
        return CombinatorialLoop(tuple(steps))
    raise ValueError(f"unknown curve kind {kind!r}")


# -- commands -------------------------------------------------------------------

def cmd_length(args) -> int:
    _, S = parse_surface_file(args.surface)
    curve = parse_curve(args.curve)
    print(_fmt(curve_length(S, curve)))
    return 0


def _kmetric_schedule(n: int) -> tuple[int, ...]:
    return tuple(sorted({max(1, n // 4), max(1, n // 2), n}))


def cmd_kmetric(args) -> int:
    _, g = parse_surface_file(args.g)
    _, h = parse_surface_file(args.h)
    if g.triangulation != h.triangulation:
        raise ValueError("the two surfaces use different triangulations")
    report = k_estimate(g, h, _kmetric_schedule(args.max_complexity))
    lines = ["curve\tlen_g\tlen_h\tlog_ratio\n"]
    lines.extend(  # the rows of a slope sweep, in the format of curve_id and _fmt
        f"slope:{s.p}/{s.q}\t{lg:.12g}\t{lh:.12g}\t{ratio:.12g}\n" for s, lg, lh, ratio in report.rows
    )
    lines.append(
        f"K_lower={_fmt(report.k_lower)} best={curve_id(report.best_curve)} "
        f"stabilized={_bool(report.stabilized)}\n"
    )
    sys.stdout.write("".join(lines))
    if args.all_classes is not None:
        words = nonperipheral_classes(args.all_classes)
        word_report = k_lower_bound(g, h, words)
        print(f"K_all_classes={_fmt(word_report.k_lower)}")
    return 0 if report.stabilized else 3


def cmd_deform(args) -> int:
    label, S = parse_surface_file(args.surface)
    if args.stretch is not None:
        out = stretch(S, args.stretch)
    else:
        slope_text, t_text = args.twist
        s = parse_slope(slope_text)
        t = float(t_text)
        if S.triangulation != standard_torus_triangulation():
            raise ValueError("--twist is only defined on the S_1_1 triangulation")
        direction = shear_from_transverse(S.triangulation, transverse_slope_weights(s))
        out = ShearStructure(
            S.triangulation, tuple(x + t * d for x, d in zip(S.shears, direction))
        )
    sys.stdout.write(emit_surface(label, out))
    return 0


def cmd_gradcloud(args) -> int:
    _, S = parse_surface_file(args.surface)
    report = convex_cloud(S, args.complexity)
    for s, x, y in report.points:
        print(f"{s.p},{s.q},{_fmt(x)},{_fmt(y)}")
    print(f"origin_interior={_bool(report.origin_interior)}")
    print(f"all_vertices={_bool(report.all_vertices)}")
    return 0 if (report.origin_interior and report.all_vertices) else 5


def cmd_march(args) -> int:
    _, g = parse_surface_file(args.g)
    _, h = parse_surface_file(args.h)
    try:
        result = stretch_march(g, h, step=args.step, max_steps=args.max_steps)
    except NoProgress as exc:
        print(f"no-progress: {exc}", file=sys.stderr)
        return 3
    for i, k, curve in result.records:
        print(f"{i}\t{_fmt(k)}\t{curve_id(curve)}")
    return 0 if result.converged else 3


def parse_track(text: str) -> TrainTrack:
    doc = json.loads(text)
    if not (isinstance(doc, dict) and "branches" in doc and isinstance(doc.get("switches"), list)):
        raise ValueError('track file must hold an object with "branches" and a "switches" list')
    if type(doc["branches"]) is not int:
        raise ValueError(f"branch count {doc['branches']!r} is not an integer")
    switches = []
    for sw in doc["switches"]:
        sides = (sw.get("left"), sw.get("right")) if isinstance(sw, dict) else (None, None)
        if not all(isinstance(side, list) and all(type(h) is int for h in side) for side in sides):
            raise ValueError(f'switch {sw!r} is not {{"left": [ids], "right": [ids]}} of integer ids')
        switches.append((tuple(sides[0]), tuple(sides[1])))
    return TrainTrack(doc["branches"], tuple(switches))


def cmd_track(args) -> int:
    with open(args.track, encoding="utf-8") as fh:
        tt = parse_track(fh.read())
    # a positive witness exists exactly when every node 2b lies on a closed
    # walk, which is `is_recurrent`'s test, so one search gives both verdicts
    carried = _bool(positive_weight_witness(tt) is not None)
    print(f"recurrent={carried} cone_dim={cone_dimension(tt)} positive={carried}")
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every call; do not add to it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchlab",
        description="Length-ratio metric between shear-coordinate hyperbolic structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("length", help="length of one curve on a surface")
    p.add_argument("surface")
    p.add_argument("curve", help="slope:p/q | word:<letters> | loop:e0L,e2R,...")
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("kmetric", help="sweep estimate of K(g,h)")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--max-complexity", type=int, default=20)
    p.add_argument("--all-classes", type=int, default=None, metavar="L",
                   help="also sweep all conjugacy classes of length <= L")
    p.set_defaults(func=cmd_kmetric)

    p = sub.add_parser("deform", help="stretch or twist a surface")
    p.add_argument("surface")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stretch", type=float, metavar="T")
    group.add_argument("--twist", nargs=2, metavar=("P/Q", "T"))
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("gradcloud", help="gradient cloud of slope log-lengths + hull verdict")
    p.add_argument("surface")
    p.add_argument("complexity", type=int)
    p.set_defaults(func=cmd_gradcloud)

    p = sub.add_parser("march", help="greedy descent from g toward h")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--max-steps", type=int, default=500)
    p.set_defaults(func=cmd_march)

    p = sub.add_parser("track", help="train track verdicts")
    p.add_argument("track")
    p.add_argument("--check", action="store_true", required=True)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EllipticHolonomy as exc:
        print(f"elliptic holonomy: {exc}", file=sys.stderr)
        return 4
    except (StretchlabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
