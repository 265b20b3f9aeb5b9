"""The asymmetric length-ratio metric K(g, h) and its instrumentation.

K(g, h) is the supremum over curve classes of log(len_h / len_g); sweeps over
finite curve sets bound it from below.  The maximizer is generically a simple
closed curve, so slope sweeps are the default schedule on the punctured torus.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import NoProgress, ZeroLength
from .shear import (
    ShearStructure,
    completeness_basis,
    curve_length,
    earthquake_twist,
    shear_to_holonomy_rep,
    slope_length,
    slope_lengths,
)
from .surface import (
    CombinatorialLoop,
    Curve,
    FreeWord,
    Slope,
    enumerate_conjugacy_classes,
    enumerate_slopes,
    is_peripheral,
)

_GRAD_STEP = 1e-5
_TWIST_STEP = 1e-4
_STABLE_TOL = 1e-10
_HULL_TOL = 1e-8


def curve_sort_key(c: Curve):
    """Canonical curve order used for deterministic tie-breaking."""
    if isinstance(c, Slope):
        return (0, abs(c.p) + abs(c.q), c.p, c.q)
    if isinstance(c, FreeWord):
        return (1, len(c.letters), c.letters)
    if isinstance(c, CombinatorialLoop):
        return (2, len(c.steps), c.spec())
    raise TypeError(f"not a curve: {c!r}")


def curve_id(c: Curve) -> str:
    if isinstance(c, Slope):
        return f"slope:{c.spec()}"
    if isinstance(c, FreeWord):
        return f"word:{c.spec()}"
    if isinstance(c, CombinatorialLoop):
        return f"loop:{c.spec()}"
    raise TypeError(f"not a curve: {c!r}")


@dataclass(frozen=True)
class RatioReport:
    """Per-curve length pairs and log-ratios, sorted by descending log-ratio."""

    rows: tuple[tuple[Curve, float, float, float], ...]
    best_curve: Curve
    k_lower: float
    stabilized: bool
    levels: tuple[int, ...]


@dataclass(frozen=True)
class TangentCovector:
    """Per-shear-coordinate components, lying in the completeness hyperplane."""

    components: tuple[float, ...]

    def norm(self) -> float:
        return math.sqrt(math.fsum(c * c for c in self.components))


def nonperipheral_classes(N: int) -> list[FreeWord]:
    """Conjugacy classes of length <= N with the puncture-parallel ones
    (`is_peripheral`: the powers of the commutator abAB) dropped."""
    return [w for w in enumerate_conjugacy_classes(N) if not is_peripheral(w.letters)]


def _ratio_row(c: Curve, lg: float, lh: float) -> tuple[Curve, float, float, float]:
    if lg == 0.0 or lh == 0.0:
        raise ZeroLength(f"curve {curve_id(c)} has zero length; ratios need positive lengths")
    return (c, lg, lh, math.log(lh / lg))


def k_lower_bound(g: ShearStructure, h: ShearStructure, curves: Sequence[Curve]) -> RatioReport:
    """Exact max of log(len_h / len_g) over the given finite curve set."""
    if not curves:
        raise ValueError("curve set must be nonempty")
    if g.triangulation != h.triangulation:
        raise ValueError("structures must share a triangulation")
    rows = [_ratio_row(c, curve_length(g, c), curve_length(h, c)) for c in curves]
    rows.sort(key=lambda r: (-r[3], curve_sort_key(r[0])))
    best = rows[0]
    return RatioReport(tuple(rows), best[0], best[3], True, ())


def _schedule_levels(schedule: Sequence[int]) -> tuple[int, ...]:
    levels = tuple(schedule)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("schedule must be nonempty and strictly increasing")
    if levels[0] < 1:
        raise ValueError(f"schedule levels must be at least 1, got {levels[0]}")
    return levels


def k_estimate(g: ShearStructure, h: ShearStructure, schedule: Sequence[int]) -> RatioReport:
    """Slope sweeps at increasing complexity bounds; stabilized means the best
    curve and the bound agreed across the last two levels.

    One Farey sweep per structure at the last level serves every level.  The
    rows come from one sort of (-ratio, |p|+q, p, q, len_g, len_h), which is
    descending ratio with ties in `curve_sort_key` order; a level's best
    curve is its first row with |p|+q within the level, exactly as
    `k_lower_bound` on that level's slopes would give it.
    """
    levels = _schedule_levels(schedule)
    if g.triangulation != h.triangulation:
        raise ValueError("structures must share a triangulation")
    len_g = slope_lengths(g, levels[-1])
    len_h = slope_lengths(h, levels[-1])
    log = math.log
    table = []
    for (p, q), lg in len_g.items():
        lh = len_h[p, q]
        table.append((-log(lh / lg), abs(p) + q, p, q, lg, lh))
    table.sort()
    stabilized = False
    if len(levels) >= 2:
        prev, last = next(t for t in table if t[1] <= levels[-2]), table[0]
        stabilized = prev[2:4] == last[2:4] and abs(prev[0] - last[0]) <= _STABLE_TOL
    rows = tuple((Slope(p, q), lg, lh, -r) for r, _, p, q, lg, lh in table)
    return RatioReport(rows, rows[0][0], rows[0][3], stabilized, levels)


def _best_slope(len_g: dict, len_h: dict) -> tuple[float, Slope]:
    """(log-ratio, slope) of the best curve of two sweeps: the max of
    (ratio, -(|p|+q), -p), which is the first of equal ratios in
    `curve_sort_key` order, as in `k_estimate`."""
    log = math.log
    ratio, c, p = max((log(len_h[k] / lg), -abs(k[0]) - k[1], -k[0]) for k, lg in len_g.items())
    return ratio, Slope(-p, -c - abs(p))


def grad_log_length(g: ShearStructure, c: Curve, step: float = _GRAD_STEP) -> TangentCovector:
    """Central differences of log-length along the completeness-hyperplane basis,
    assembled back into per-shear-coordinate components (exactly in the hyperplane)."""
    if curve_length(g, c) == 0.0:
        raise ZeroLength(f"curve {curve_id(c)} is puncture-parallel; log-length is undefined")
    basis = completeness_basis(g.triangulation)
    derivs = []
    for u in basis:
        plus, minus = _shifted(g, u, step), _shifted(g, u, -step)
        derivs.append(_log_difference(curve_length(plus, c), curve_length(minus, c), step))
    return _covector(g.triangulation, basis, derivs)


def _shifted(g: ShearStructure, u: Sequence[float], t: float) -> ShearStructure:
    return ShearStructure(g.triangulation, tuple(x + t * ui for x, ui in zip(g.shears, u)))


def _log_difference(plus: float, minus: float, step: float) -> float:
    return (math.log(plus) - math.log(minus)) / (2.0 * step)


def _covector(T, basis, derivs: Sequence[float]) -> TangentCovector:
    """Per-shear components of the covector with the given basis derivatives."""
    per_edge = [0.0] * T.num_edges
    for d, u in zip(derivs, basis):
        for k in range(T.num_edges):
            per_edge[k] += d * u[k]
    return TangentCovector(tuple(per_edge))


# -- gradient cloud and its convex hull ---------------------------------------

@dataclass(frozen=True)
class CloudReport:
    """Gradient covectors of slope curves in the 2d hyperplane basis."""

    points: tuple[tuple[Slope, float, float], ...]
    hull: tuple[int, ...]
    origin_interior: bool
    all_vertices: bool


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


_HULL_BUILD_TOL = 1e-12  # just above double roundoff for O(1) gradients


def convex_hull_indices(pts: Sequence[tuple[float, float]], tol: float = _HULL_BUILD_TOL) -> list[int]:
    """Indices of the convex hull, counterclockwise (collinear points dropped)."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    if len(order) <= 2:
        return order

    def build(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2 and _cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= tol:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    return lower[:-1] + upper[:-1]


def _near_hull_boundary(pts, hull, p, tol: float, start: int) -> bool:
    """Whether p lies outside the hull or within tol of its boundary: some edge
    has a signed distance to p of at most tol.  The edges are scanned
    cyclically from hull[start] and the scan stops at the first such edge."""
    n = len(hull)
    for k in range(start, start + n):
        a = pts[hull[k % n]]
        b = pts[hull[(k + 1) % n]]
        edge = math.hypot(b[0] - a[0], b[1] - a[1])
        if edge != 0.0 and _cross(a, b, p) / edge <= tol:
            return True
    return False


def _all_near_hull(pts, hull) -> bool:
    """Whether every point is a hull vertex or within _HULL_TOL of the hull
    boundary.  Each scan starts at the edge whose origin-centred angle range
    holds the point: around an interior origin that is the edge nearest it."""
    hull_set = set(hull)
    angles = sorted((math.atan2(pts[j][1], pts[j][0]), k) for k, j in enumerate(hull))
    for i, p in enumerate(pts):
        if i not in hull_set:
            k = angles[bisect_left(angles, (math.atan2(p[1], p[0]),)) - 1][1]
            if not _near_hull_boundary(pts, hull, p, _HULL_TOL, k):
                return False
    return True


def convex_cloud(g: ShearStructure, N: int) -> CloudReport:
    """Gradient covectors of all slopes with |p|+|q| <= N, plus hull verdicts.

    The log-length differentials of projective laminations form a convex
    sphere around the origin, with a corner at every simple closed curve on
    the punctured torus.  The poke-out of deep-slope corners falls below
    double precision, so the vertex verdict is a membership check: a point
    counts as a hull vertex when it is no deeper than 1e-8 inside the hull.
    The origin must be interior with margin 1e-8.
    """
    if N < 2:
        raise ValueError("need N >= 2 for a two-dimensional cloud")
    if len(completeness_basis(g.triangulation)) != 2:
        raise ValueError("gradient clouds are only defined for the punctured torus (2d hyperplane)")
    # the basis derivatives of grad_log_length per slope, with each perturbed
    # structure built and swept once
    sweeps = [
        (slope_lengths(_shifted(g, u, _GRAD_STEP), N),
         slope_lengths(_shifted(g, u, -_GRAD_STEP), N))
        for u in completeness_basis(g.triangulation)
    ]
    points = tuple(
        (s, *(_log_difference(plus[s.p, s.q], minus[s.p, s.q], _GRAD_STEP) for plus, minus in sweeps))
        for s in enumerate_slopes(N)
    )
    pts = [(gx, gy) for _, gx, gy in points]
    hull = convex_hull_indices(pts)
    all_vertices = _all_near_hull(pts, hull)
    origin_interior = False
    if len(hull) >= 3:
        origin_interior = all(
            _cross(pts[hull[i]], pts[hull[(i + 1) % len(hull)]], (0.0, 0.0))
            >= _HULL_TOL * math.hypot(
                pts[hull[(i + 1) % len(hull)]][0] - pts[hull[i]][0],
                pts[hull[(i + 1) % len(hull)]][1] - pts[hull[i]][1],
            )
            for i in range(len(hull))
        )
    return CloudReport(points, tuple(hull), origin_interior, all_vertices)


# -- twist derivatives ---------------------------------------------------------

def twist_derivative(g: ShearStructure, along: Slope, of: Slope, step: float = _TWIST_STEP) -> float:
    """Central difference of len(of) along the unit Fenchel-Nielsen twist in `along`."""
    rep = shear_to_holonomy_rep(g)
    plus = slope_length(earthquake_twist(rep, along, step), of)
    minus = slope_length(earthquake_twist(rep, along, -step), of)
    return (plus - minus) / (2.0 * step)


def antisymmetry_residual(g: ShearStructure, s: Slope, t: Slope) -> float:
    """Signed residual E_s(len t) + E_t(len s); zero for earthquake antisymmetry.

    For s = t the twist fixes its own trace identically, so the residual is
    exactly zero.
    """
    if s == t:
        return 0.0
    return twist_derivative(g, s, t) + twist_derivative(g, t, s)


# -- descent march toward a target structure -----------------------------------

@dataclass(frozen=True)
class MarchResult:
    path: tuple[ShearStructure, ...]
    records: tuple[tuple[int, float, Curve], ...]
    converged: bool


def stretch_march(
    g: ShearStructure,
    h: ShearStructure,
    step: float,
    max_steps: int,
    schedule: Sequence[int] = (8, 12),
) -> MarchResult:
    """Greedy surrogate for a stretch-path concatenation: repeatedly lengthen
    the currently maximizing curve until K_lower(g_i, h) drops below `step`.

    Each step takes K_lower and the best curve of `k_estimate(g_i, h,
    schedule)`, which depend on the last level alone: h is swept once per
    march, g_i once per step, and no rows are built.

    A step along the gradient of one curve can shorten another.  So when the
    next structure's K_lower is higher and its best curve has changed, the
    step is taken again from g_i along the least-norm point of the segment
    between the two curves' log-length gradients, which lengthens both.

    Raises NoProgress if the bound fails to drop by step/10 over five steps.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    levels = _schedule_levels(schedule)
    if g.triangulation != h.triangulation:
        raise ValueError("structures must share a triangulation")
    len_h = slope_lengths(h, levels[-1])

    def k_and_best(S: ShearStructure) -> tuple[float, Slope]:
        return _best_slope(slope_lengths(S, levels[-1]), len_h)

    path = [g]
    records: list[tuple[int, float, Curve]] = []
    history: list[float] = []
    cur = g
    k_lower, best = k_and_best(g)
    converged = False
    for i in range(max_steps):
        if k_lower < step:
            converged = True
            break
        records.append((i, k_lower, best))
        history.append(k_lower)
        if len(history) >= 6 and history[-1] > history[-6] - step / 10.0:
            raise NoProgress(
                f"K_lower stuck near {history[-1]:.6g} after {i + 1} steps of size {step}"
            )
        grad = grad_log_length(cur, best).components
        nxt = _step_along(cur, grad, step)
        k_next, best_next = k_and_best(nxt)
        if k_next > k_lower and best_next != best:
            both = _least_norm_on_segment(grad, grad_log_length(cur, best_next).components)
            nxt = _step_along(cur, both, step)
            k_next, best_next = k_and_best(nxt)
        cur, k_lower, best = nxt, k_next, best_next
        path.append(cur)
    return MarchResult(tuple(path), tuple(records), converged)


def _least_norm_on_segment(g1: Sequence[float], g2: Sequence[float]) -> tuple[float, ...]:
    """The point of the segment [g1, g2] nearest the origin, g1 + lam (g2 - g1)
    with lam = clamp(-g1.(g2 - g1) / |g2 - g1|^2, 0, 1).  Its inner product
    with each end is at least its squared norm, so a step along it lengthens
    both curves to first order."""
    diff = [b - a for a, b in zip(g1, g2)]
    dd = math.fsum(d * d for d in diff)
    lam = min(max(-math.fsum(a * d for a, d in zip(g1, diff)) / dd, 0.0), 1.0) if dd else 0.0
    return tuple(a + lam * d for a, d in zip(g1, diff))


def _step_along(S: ShearStructure, direction: Sequence[float], step: float) -> ShearStructure:
    """S moved by `step` along the unit vector of a direction in the completeness hyperplane."""
    norm = TangentCovector(tuple(direction)).norm()
    if norm == 0.0:
        raise NoProgress("zero gradient for the maximizing curve")
    moved = tuple(x + step * c / norm for x, c in zip(S.shears, direction))
    return ShearStructure(S.triangulation, moved)


def asymmetry_probe(
    g: ShearStructure, h: ShearStructure, max_complexity: int = 20
) -> tuple[float, float]:
    """Both directed estimates at the same sweep level, from one Farey sweep
    of each structure: the k_lower of `k_estimate(g, h, (max_complexity,))`
    and of `k_estimate(h, g, (max_complexity,))`."""
    len_g, len_h = slope_lengths(g, max_complexity), slope_lengths(h, max_complexity)
    return _best_slope(len_g, len_h)[0], _best_slope(len_h, len_g)[0]
