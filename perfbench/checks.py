"""Checks of the program's outputs against the oracle and against properties
the method must have.  No check compares against a saved copy of an output.

Every check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math

import oracle

LENGTH_RTOL = 1e-10      # printed lengths against the 50-digit oracle
RATIO_ATOL = 1e-10       # printed log-ratio against the printed lengths (12 digits each)
KMETRIC_SAMPLE = 16      # oracle-checked rows per kmetric output, plus the top row
STRETCH_SLACK = 1e-9
MONOTONE_SLACK = 1e-3
MOVE_TOL = 1e-9
COMPLETE_TOL = 1e-9
GRADIENT_ATOL = 1e-6
GRADIENT_SAMPLE = 4
TWIST_LENGTH_RTOL = 1e-9
COMMUTATOR_TOL = 1e-9
ROUND_TRIP_TOL = 1e-9
ANTISYMMETRY_TOL = 1e-4
CLASSES_TOL = 1e-6
CLASSES_HI = 30          # slope bound of the upper oracle bound on K_all_classes


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _rel(a, b) -> float:
    return float(abs(a - b) / abs(b))


def _slope(text: str) -> tuple:
    require(text.startswith("slope:"), f"row curve {text!r} is not a slope")
    p, _, q = text[6:].partition("/")
    return int(p), int(q)


def parse_kmetric(text: str) -> dict:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "curve\tlen_g\tlen_h\tlog_ratio", "kmetric header missing")
    k = next((i for i, line in enumerate(lines) if line.startswith("K_lower=")), len(lines))
    try:
        rows = [
            (_slope(curve), float(lg), float(lh), float(lr))
            for curve, lg, lh, lr in (line.split("\t") for line in lines[1:k])
        ]
    except ValueError as exc:  # a wrong field count, or a number that does not parse
        raise CheckFailed(f"malformed row: {exc}") from None
    out = {"rows": rows, "k_all_classes": None}
    require(k < len(lines), "K_lower line missing")
    summary = dict(item.split("=", 1) for item in lines[k].split(" "))
    out["k_lower"] = float(summary["K_lower"])
    out["best"] = _slope(summary["best"])
    out["stabilized"] = summary["stabilized"]
    rest = lines[k + 1:]
    if rest:
        require(len(rest) == 1 and rest[0].startswith("K_all_classes="), f"unexpected trailer {rest!r}")
        out["k_all_classes"] = float(rest[0].split("=", 1)[1])
    return out


def check_kmetric(op: dict, rc: int, text: str, rng) -> dict:
    """Structure of the table, every row's own consistency, an oracle sample, the bound."""
    parsed = parse_kmetric(text)
    rows = parsed["rows"]
    n = op["n"]
    require(len(rows) == oracle.slope_count(n), f"{len(rows)} rows, expected {oracle.slope_count(n)}")
    slopes = {r[0] for r in rows}
    require(len(slopes) == len(rows), "repeated slope rows")
    require(all(abs(p) + q <= n and math.gcd(abs(p), q) == 1 and (q > 0 or (p, q) == (1, 0))
                for p, q in slopes), "a row is not a canonical coprime slope within the bound")
    bad = next((row for row in rows if not (
        row[1] > 0.0 and row[2] > 0.0
        and abs(row[3] - math.log(row[2] / row[1])) <= RATIO_ATOL * max(1.0, abs(row[3]))
    )), None)
    require(bad is None, f"row {bad}: a nonpositive length, or a log_ratio that disagrees with its lengths")
    require(all(rows[i][3] >= rows[i + 1][3] for i in range(len(rows) - 1)), "rows not sorted")
    require(parsed["k_lower"] == rows[0][3] and parsed["best"] == rows[0][0],
            "K_lower is not the top row")
    require(parsed["stabilized"] in ("true", "false"), "stabilized is not a boolean")
    require(rc == (0 if parsed["stabilized"] == "true" else 3), f"exit code {rc} against stabilized")
    if "t" in op:
        require(parsed["k_lower"] <= op["t"] + STRETCH_SLACK,
                f"stretch pair: K_lower {parsed['k_lower']} exceeds t = {op['t']}")

    og_hol = oracle.Holonomy.from_shears(op["g"])
    oh_hol = oracle.Holonomy.from_shears(op["h"])
    picks = {0} | set(rng.sample(range(len(rows)), min(KMETRIC_SAMPLE, len(rows))))
    for i in sorted(picks):
        (p, q), lg, lh, _ = rows[i]
        og, oh = og_hol.slope_length(p, q), oh_hol.slope_length(p, q)
        require(_rel(lg, og) <= LENGTH_RTOL and _rel(lh, oh) <= LENGTH_RTOL,
                f"slope {p}/{q}: printed ({lg!r}, {lh!r}) against oracle ({float(og)!r}, {float(oh)!r})")

    all_classes = op.get("all_classes")
    if all_classes is not None:
        k_all = parsed["k_all_classes"]
        require(k_all is not None, "K_all_classes line missing")
        # simple curves suffice: the classes of length <= L contain the slopes
        # with |p|+|q| <= L and never beat the supremum over simple curves.
        # At a 1e-6 tolerance the oracle's double-precision context is ample.
        lo = oracle.k_over_slopes(op["g"], op["h"], all_classes, oracle.FLOAT)
        hi = oracle.k_over_slopes(op["g"], op["h"], CLASSES_HI, oracle.FLOAT)
        require(lo - CLASSES_TOL <= k_all <= hi + CLASSES_TOL,
                f"K_all_classes {k_all} outside the oracle slope bounds [{lo}, {hi}]")
    return parsed


def check_march(op: dict, march: dict) -> None:
    """op: one march's {"g", "h", "k0", "step"}; march: {"converged", "ks": [K per record], "path": [shears...]}."""
    require(march["converged"], "march did not converge")
    ks, path = march["ks"], march["path"]
    require(len(path) == len(ks) + 1, "path and records disagree in length")
    require(all(ks[j + 1] <= ks[j] + MONOTONE_SLACK for j in range(len(ks) - 1)), "K rose along the march")
    # K over |p|+|q| <= 12 needs no 50 digits at these tolerances: the oracle's
    # doubles give k0 (computed when the pair was calibrated) and the end K.
    if ks:
        k0 = op["k0"]
        require(abs(ks[0] - k0) <= 1e-9 * max(1.0, k0), f"first K {ks[0]} against oracle {k0}")
    for a, b in zip(path, path[1:]):
        move = math.sqrt(sum((y - x) ** 2 for x, y in zip(a, b)))
        require(abs(move - op["step"]) <= MOVE_TOL, f"move of length {move}, step {op['step']}")
        require(abs(math.fsum(b)) <= COMPLETE_TOL, "march left the completeness plane")
    k_end = oracle.k_over_slopes(path[-1], op["h"], 12, oracle.FLOAT)
    require(k_end < op["step"], f"oracle K(path[-1], h) = {k_end} is not below the step")


def check_cloud(op: dict, rc: int, text: str, rng) -> None:
    lines = text.splitlines()
    require(lines[-2:] == ["origin_interior=true", "all_vertices=true"] and rc == 0,
            f"gradcloud verdicts {lines[-2:]} with exit {rc}")
    points = [line.split(",") for line in lines[:-2]]
    require(len(points) == oracle.slope_count(op["cloud_n"]), "gradcloud point count")
    for fields in rng.sample(points, GRADIENT_SAMPLE):
        p, q, x, y = int(fields[0]), int(fields[1]), float(fields[2]), float(fields[3])
        ox, oy = (float(v) for v in oracle.grad_log_length(op["g"], p, q))
        require(abs(x - ox) <= GRADIENT_ATOL and abs(y - oy) <= GRADIENT_ATOL,
                f"gradient of {p}/{q}: ({x}, {y}) against oracle ({ox}, {oy})")


def check_twist(twist, reps) -> None:
    """twist = (shears, (p, q), t); reps = entries (A, B) of H, twist(H, t), twist(twist(H, t), -t)."""
    shears, (p, q), _ = twist
    (a0, b0), (a1, b1), (a2, b2) = reps
    ga, gb = oracle.generators(shears)
    h0 = oracle.from_entries(a0, b0)
    for mine, theirs in ((h0.a, ga), (h0.b, gb)):
        require(_rel(abs(oracle.trace(mine)), abs(oracle.trace(theirs))) <= TWIST_LENGTH_RTOL,
                "holonomy rep traces against the oracle")
    h1 = oracle.from_entries(a1, b1)
    before, after = h0.slope_length(p, q), h1.slope_length(p, q)
    require(_rel(after, before) <= TWIST_LENGTH_RTOL, f"twist changed the length of {p}/{q}")
    comm = float(oracle.commutator_trace(h1.a, h1.b))
    require(abs(comm + 2.0) <= COMMUTATOR_TOL, f"twisted commutator trace {comm}")
    worst = max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(a0 + b0, a2 + b2))
    require(worst <= ROUND_TRIP_TOL, f"round trip missed by {worst}")


def check_antisymmetry(residual: float) -> None:
    require(abs(residual) <= ANTISYMMETRY_TOL, f"antisymmetry residual {residual}")


def check_tracks(tracks, outputs) -> None:
    """Track verdicts against a networkx SCC oracle and a numpy rank computation."""
    import networkx as nx
    import numpy as np

    for (branches, switches), (rc, text) in zip(tracks, outputs):
        require(rc == 0, f"track exit {rc}")
        graph = nx.DiGraph()
        graph.add_nodes_from(range(2 * branches))
        matrix = np.zeros((len(switches), branches))
        for row, (left, right) in enumerate(switches):
            for arrivals, exits in ((left, right), (right, left)):
                for h in arrivals:
                    for h2 in exits:
                        graph.add_edge(h, 2 * (h2 // 2) + 1 - h2 % 2)
            for h in left:
                matrix[row, h // 2] += 1
            for h in right:
                matrix[row, h // 2] -= 1
        on_cycle = set()
        for comp in nx.strongly_connected_components(graph):
            if len(comp) > 1 or any(graph.has_edge(v, v) for v in comp):
                on_cycle.update(comp)
        recurrent = all(2 * b in on_cycle and 2 * b + 1 in on_cycle for b in range(branches))
        cone_dim = branches - int(np.linalg.matrix_rank(matrix))
        # a track carries a strictly positive measure exactly when it is recurrent
        expected = f"recurrent={str(recurrent).lower()} cone_dim={cone_dim} positive={str(recurrent).lower()}"
        require(text.strip() == expected, f"track {switches}: {text.strip()!r}, oracle {expected!r}")
