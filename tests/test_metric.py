"""Length-ratio sweeps, gradients, hull checks, antisymmetry, descent march."""

import math
import random

import pytest

import stretchlab.metric as metric_mod
from stretchlab import (
    FreeWord,
    NoProgress,
    ShearStructure,
    Slope,
    TangentCovector,
    ZeroLength,
    antisymmetry_residual,
    asymmetry_probe,
    completeness_basis,
    convex_cloud,
    enumerate_conjugacy_classes,
    enumerate_slopes,
    grad_log_length,
    k_estimate,
    k_lower_bound,
    puncture_loops,
    shear_from_transverse,
    shears_from_coefficients,
    stretch,
    stretch_march,
    transverse_slope_weights,
)
from stretchlab.metric import curve_id, curve_sort_key, nonperipheral_classes, twist_derivative

from util import TORUS, random_complete

ZERO = ShearStructure(TORUS, (0.0, 0.0, 0.0))
CURVES_12 = enumerate_slopes(12)


def coordinate_twist(S, s, t):
    """The CLI's additive deformation along a slope's transverse measure."""
    direction = shear_from_transverse(TORUS, transverse_slope_weights(s))
    return ShearStructure(TORUS, tuple(x + t * d for x, d in zip(S.shears, direction)))


# -- k_lower_bound -----------------------------------------------------------------

def test_k_lower_identical_structures_zero():
    report = k_lower_bound(ZERO, ZERO, CURVES_12)
    assert report.k_lower == 0.0
    assert all(row[3] == 0.0 for row in report.rows)


def test_k_lower_subset_monotone():
    rng = random.Random(2)
    g, h = random_complete(rng), random_complete(rng)
    small = k_lower_bound(g, h, enumerate_slopes(6)).k_lower
    big = k_lower_bound(g, h, enumerate_slopes(12)).k_lower
    assert small <= big


def test_k_lower_rows_sorted_descending():
    rng = random.Random(3)
    g, h = random_complete(rng), random_complete(rng)
    report = k_lower_bound(g, h, CURVES_12)
    ratios = [row[3] for row in report.rows]
    assert ratios == sorted(ratios, reverse=True)
    assert report.k_lower == ratios[0]
    assert report.best_curve == report.rows[0][0]


def test_k_lower_tie_break_canonical():
    # at g = h every ratio ties at zero, so the canonical first curve wins
    report = k_lower_bound(ZERO, ZERO, CURVES_12)
    assert report.best_curve == min(CURVES_12, key=curve_sort_key)


def test_k_lower_input_validation():
    with pytest.raises(ValueError):
        k_lower_bound(ZERO, ZERO, [])
    with pytest.raises(ZeroLength):
        k_lower_bound(ZERO, ZERO, puncture_loops(TORUS))


def test_triangle_inequality_exact_on_shared_curve_set():
    rng = random.Random(5)
    curves = enumerate_slopes(10)
    for _ in range(20):
        f, g, h = (random_complete(rng) for _ in range(3))
        kfh = k_lower_bound(f, h, curves).k_lower
        kfg = k_lower_bound(f, g, curves).k_lower
        kgh = k_lower_bound(g, h, curves).k_lower
        assert kfh <= kfg + kgh + 1e-12


# -- k_estimate ----------------------------------------------------------------------

def test_k_estimate_identical_structures():
    report = k_estimate(ZERO, ZERO, (4, 8))
    assert report.k_lower == 0.0
    assert report.stabilized
    assert report.levels == (4, 8)


def test_k_estimate_stretch_pair_bounded():
    rng = random.Random(6)
    g = random_complete(rng)
    for t in (0.1, 0.5):
        report = k_estimate(g, stretch(g, t), (6, 10))
        assert report.k_lower <= t + 1e-9


def test_k_estimate_distinct_pair_positive():
    rng = random.Random(7)
    g, h = random_complete(rng), random_complete(rng)
    report = k_estimate(g, h, (6, 10))
    assert report.k_lower > 0.0


@pytest.mark.parametrize("schedule", [(5, 10, 20), (20, 40, 80)])
def test_k_estimate_equals_per_level_sweeps(schedule):
    # the definition: k_lower_bound on each level's slopes, stabilized when the
    # last two levels agree on the best curve and the bound
    rng = random.Random(sum(schedule))
    for _ in range(20):
        g, h = random_complete(rng), random_complete(rng)
        reports = [k_lower_bound(g, h, enumerate_slopes(n)) for n in schedule]
        prev, last = reports[-2:]
        stabilized = prev.best_curve == last.best_curve and abs(prev.k_lower - last.k_lower) <= 1e-10
        got = k_estimate(g, h, schedule)
        assert got.best_curve == last.best_curve
        assert got.k_lower == last.k_lower
        assert got.stabilized == stabilized
        assert got.rows == last.rows
        assert got.levels == schedule


def test_k_estimate_schedule_validation():
    with pytest.raises(ValueError):
        k_estimate(ZERO, ZERO, ())
    with pytest.raises(ValueError):
        k_estimate(ZERO, ZERO, (8, 8))
    with pytest.raises(ValueError):
        k_estimate(ZERO, ZERO, (0, 4))
    with pytest.raises(ValueError):
        k_estimate(ZERO, ZERO, (-2, 3))


def test_simple_curves_suffice_at_desk_scale():
    rng = random.Random(8)
    g, h = random_complete(rng, scale=0.8), random_complete(rng, scale=0.8)
    k_slopes = k_lower_bound(g, h, enumerate_slopes(30)).k_lower
    k_words = k_lower_bound(g, h, nonperipheral_classes(8)).k_lower
    assert abs(k_slopes - k_words) <= 1e-6


def _zero_shear_integer_traces(words):
    """|tr| of each word at the zero-shear point, in exact integers.

    The rep A = E L E R, B = L E L E R L^-1 with E = E(0) = [[0, 1], [-1, 0]],
    L = [[1, 1], [-1, 0]] and R = [[0, -1], [1, 1]] has integer entries.
    """

    def mul(m, n):
        return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
                m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])

    def prod(*ms):
        out = (1, 0, 0, 1)
        for m in ms:
            out = mul(out, m)
        return out

    E, L, R, L_inv = (0, 1, -1, 0), (1, 1, -1, 0), (0, -1, 1, 1), (0, -1, 1, 1)
    a, b = prod(E, L, E, R), prod(L, E, L, E, R, L_inv)
    table = {"a": a, "b": b, "A": (a[3], -a[1], -a[2], a[0]), "B": (b[3], -b[1], -b[2], b[0])}
    traces = []
    for w in words:
        m = prod(*(table[ch] for ch in w.letters))
        traces.append(abs(m[0] + m[3]))
    return traces


def test_nonperipheral_classes_equal_the_zero_shear_trace_rule():
    # a class is peripheral iff it is parabolic on a complete structure: at the
    # zero-shear point, whose rep is integral, iff |tr| == 2 exactly
    assert _zero_shear_integer_traces([FreeWord("ab"), FreeWord("abAB")]) == [3, 2]
    counts = []
    for n in range(1, 9):
        classes = enumerate_conjugacy_classes(n)
        old_rule = [w for w, t in zip(classes, _zero_shear_integer_traces(classes)) if t != 2]
        assert nonperipheral_classes(n) == old_rule
        counts.append(len(old_rule))
    assert counts == [2, 6, 12, 24, 50, 116, 274, 691]


# -- gradients --------------------------------------------------------------------------

def test_grad_scale_invariance_of_projective_class():
    g = random_complete(random.Random(9))
    single = grad_log_length(g, FreeWord("ab"))
    doubled = grad_log_length(g, FreeWord("abab"))
    assert doubled.components == pytest.approx(single.components, abs=1e-9)


def test_grad_zero_shear_symmetry_sum():
    total = [0.0, 0.0, 0.0]
    for s in (Slope(1, 0), Slope(0, 1), Slope(1, 1)):
        for k, c in enumerate(grad_log_length(ZERO, s).components):
            total[k] += c
    assert max(abs(t) for t in total) <= 1e-6


def test_grad_lies_in_completeness_hyperplane():
    # one constraint row per puncture; the covector must be orthogonal to it
    g = random_complete(random.Random(15))
    v = grad_log_length(g, Slope(2, 1)).components
    assert abs(sum(v)) <= 1e-12


def test_grad_step_convergence():
    rng = random.Random(10)
    for _ in range(5):
        g = random_complete(rng)
        s = Slope(2, 1)
        coarse = grad_log_length(g, s, step=1e-4).components
        fine = grad_log_length(g, s, step=1e-5).components
        assert coarse == pytest.approx(fine, abs=1e-6)


def test_grad_rejects_puncture_class():
    with pytest.raises(ZeroLength):
        grad_log_length(ZERO, puncture_loops(TORUS)[0])


# -- convex cloud -------------------------------------------------------------------------

def test_cloud_zero_shear_three_fold_symmetry():
    report = convex_cloud(ZERO, 2)
    assert len(report.points) == 4
    by_slope = {(s.p, s.q): (x, y) for s, x, y in report.points}
    pts = [by_slope[k] for k in ((1, 0), (0, 1), (1, 1))]
    norms = [math.hypot(*p) for p in pts]
    assert max(norms) - min(norms) <= 1e-6
    for i in range(3):
        a, b = pts[i], pts[(i + 1) % 3]
        cos_angle = (a[0] * b[0] + a[1] * b[1]) / (norms[i] * norms[(i + 1) % 3])
        assert cos_angle == pytest.approx(-0.5, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cloud_hull_verdicts_random_structures(seed):
    g = random_complete(random.Random(seed))
    report = convex_cloud(g, 12)
    assert report.origin_interior
    assert report.all_vertices


@pytest.mark.parametrize("seed", [3, 4])
def test_cloud_points_equal_per_slope_gradients(seed):
    g = random_complete(random.Random(seed))
    report = convex_cloud(g, 12)
    u, v = completeness_basis(TORUS)
    for s, x, y in report.points:
        # a point is the pair of basis derivatives that grad_log_length
        # assembles into per-edge components, bit for bit
        assert grad_log_length(g, s).components == tuple(x * a + y * b for a, b in zip(u, v))


def test_cloud_requires_torus_hyperplane():
    from util import sphere3_triangulation

    S3 = ShearStructure(sphere3_triangulation(), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        convex_cloud(S3, 5)


def _old_depth_inside_hull(pts, hull, p) -> float:
    """The former verdict's depth: the least signed distance to a hull edge, 0 if outside."""
    depth = math.inf
    for i in range(len(hull)):
        a, b = pts[hull[i]], pts[hull[(i + 1) % len(hull)]]
        edge = math.hypot(b[0] - a[0], b[1] - a[1])
        if edge == 0.0:
            continue
        signed = ((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])) / edge
        if signed < 0.0:
            return 0.0
        depth = min(depth, signed)
    return depth


def _assert_same_hull_verdicts(pts, hull, rng):
    hull_set = set(hull)
    old = [i in hull_set or _old_depth_inside_hull(pts, hull, p) <= metric_mod._HULL_TOL
           for i, p in enumerate(pts)]
    for i, p in enumerate(pts):
        start = rng.randrange(len(hull))
        near = metric_mod._near_hull_boundary(pts, hull, p, metric_mod._HULL_TOL, start)
        new = i in hull_set or near
        assert new == old[i]
    assert metric_mod._all_near_hull(pts, hull) == all(old)
    return all(old)


def test_hull_verdict_stops_early_with_the_old_min_depth_answer():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(200):
        # points near an ellipse, some pulled inward by about the tolerance, some deep inside;
        # the origin, where the scans take their start angles, is inside or outside the hull
        cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        rx, ry = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        pts = []
        for _ in range(rng.randrange(3, 60)):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            shrink = rng.choice([0.0, rng.uniform(0.0, 4e-8), rng.uniform(0.0, 0.3)])
            r = 1.0 - shrink
            pts.append((cx + r * rx * math.cos(theta), cy + r * ry * math.sin(theta)))
        hull = metric_mod.convex_hull_indices(pts)
        if len(hull) >= 3:
            verdicts.add(_assert_same_hull_verdicts(pts, hull, rng))
    assert verdicts == {True, False}


def test_cloud_hull_verdicts_match_the_old_min_depth_rule():
    rng = random.Random(18)
    for _ in range(20):
        report = convex_cloud(random_complete(rng), 20)
        pts = [(x, y) for _, x, y in report.points]
        assert _assert_same_hull_verdicts(pts, list(report.hull), rng) == report.all_vertices


# -- antisymmetry ---------------------------------------------------------------------------

def test_antisymmetry_same_slope_exact_zero():
    g = random_complete(random.Random(11))
    assert antisymmetry_residual(g, Slope(2, 1), Slope(2, 1)) == 0.0


def test_antisymmetry_basic_pair_small():
    assert abs(antisymmetry_residual(ZERO, Slope(1, 0), Slope(0, 1))) <= 1e-4


def test_antisymmetry_swap_exact():
    g = random_complete(random.Random(12))
    s, t = Slope(1, 1), Slope(-1, 2)
    assert antisymmetry_residual(g, s, t) == antisymmetry_residual(g, t, s)


def test_twist_derivative_sign_convention_consistent():
    # opposite twists give opposite derivatives
    d_plus = twist_derivative(ZERO, Slope(1, 0), Slope(0, 1))
    rep_rate = twist_derivative(ZERO, Slope(0, 1), Slope(1, 0))
    assert d_plus == pytest.approx(-rep_rate, abs=1e-4)


# -- march and asymmetry ---------------------------------------------------------------------

def test_march_identical_structures_empty_trace():
    result = stretch_march(ZERO, ZERO, step=0.01, max_steps=50)
    assert result.records == ()
    assert result.converged
    assert result.path == (ZERO,)


def test_march_decreases_monotonically():
    rng = random.Random(13)
    g, h = random_complete(rng, scale=0.7), random_complete(rng, scale=0.7)
    result = stretch_march(g, h, step=0.02, max_steps=300)
    ks = [k for _, k, _ in result.records]
    assert result.converged
    assert all(ks[i + 1] <= ks[i] + 1e-3 for i in range(len(ks) - 1))
    assert ks[-1] < ks[0]


@pytest.mark.parametrize(
    "g, h",
    [
        ((-0.9135055629881368, -0.618345320760294, 1.5318508837484308),
         (-3.0445147531823107, -1.6669807765422822, 4.711495529724592)),
        ((-0.7034529473721776, -0.7949793320101044, 1.498432279382282),
         (-3.001764007883497, -1.5926873888730961, 4.594451396756593)),
    ],
)
def test_march_does_not_raise_k_at_a_curve_switch(g, h):
    # a plain gradient step for the best curve raised K here by 1.9e-3 and
    # 1.2e-3 where the best curve switched; the re-step lengthens both curves
    result = stretch_march(ShearStructure(TORUS, g), ShearStructure(TORUS, h), step=0.05, max_steps=500)
    ks = [k for _, k, _ in result.records]
    assert result.converged
    assert len({c for _, _, c in result.records}) >= 2
    assert all(ks[i + 1] <= ks[i] for i in range(len(ks) - 1))


def test_march_zero_gradient_raises_no_progress(monkeypatch):
    rng = random.Random(14)
    g, h = random_complete(rng), random_complete(rng)
    monkeypatch.setattr(
        metric_mod, "grad_log_length", lambda *a, **k: TangentCovector((0.0, 0.0, 0.0))
    )
    with pytest.raises(NoProgress):
        metric_mod.stretch_march(g, h, step=0.01, max_steps=10)


def _reference_march(g, h, step, max_steps, schedule):
    """stretch_march as a loop over full k_estimate reports.

    A step that raises K and changes the best curve is taken again along the
    least-norm point g1 + lam (g2 - g1), lam = clamp(-g1.(g2 - g1) / |g2 - g1|^2, 0, 1),
    of the two curves' gradients g1 and g2 at the structure before the step.
    """

    def moved(cur, direction):
        norm = TangentCovector(tuple(direction)).norm()
        return ShearStructure(TORUS, tuple(x + step * c / norm for x, c in zip(cur.shears, direction)))

    path, records, history, cur = [g], [], [], g
    report = k_estimate(cur, h, schedule)
    for i in range(max_steps):
        if report.k_lower < step:
            return tuple(path), tuple(records), True
        records.append((i, report.k_lower, report.best_curve))
        history.append(report.k_lower)
        if len(history) >= 6 and history[-1] > history[-6] - step / 10.0:
            raise NoProgress("stuck")
        g1 = grad_log_length(cur, report.best_curve).components
        nxt = moved(cur, g1)
        after = k_estimate(nxt, h, schedule)
        if after.k_lower > report.k_lower and after.best_curve != report.best_curve:
            g2 = grad_log_length(cur, after.best_curve).components
            d = [b - a for a, b in zip(g1, g2)]
            lam = -math.fsum(a * e for a, e in zip(g1, d)) / math.fsum(e * e for e in d)
            lam = min(max(lam, 0.0), 1.0)
            nxt = moved(cur, [a + lam * e for a, e in zip(g1, d)])
            after = k_estimate(nxt, h, schedule)
        cur, report = nxt, after
        path.append(cur)
    return tuple(path), tuple(records), False


def test_march_equals_a_loop_over_k_estimate_bit_for_bit():
    rng = random.Random(19)
    # g and h of the family (a, -a, 0) give slopes 1/0 and 0/1 equal lengths, so at
    # level 1 their ratios tie and 0/1, the first in curve_sort_key order, must win
    tie = (ShearStructure(TORUS, (0.3, -0.3, 0.0)), ShearStructure(TORUS, (1.2, -1.2, 0.0)), (1,))
    cases = [(g, g, (8, 12)) for g in (ZERO, random_complete(rng))] + [tie]
    for _ in range(10):  # h at distance 0.3-0.9 from g in the completeness plane
        g = random_complete(rng, scale=1.0)
        u, c = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 0.9)
        shift = shears_from_coefficients(TORUS, (c * math.cos(u), c * math.sin(u)))
        cases.append((g, ShearStructure(TORUS, tuple(x + d for x, d in zip(g.shears, shift))), (8, 12)))
    steps_taken = 0
    for g, h, schedule in cases:
        path, records, converged = _reference_march(g, h, 0.05, 500, schedule)
        result = stretch_march(g, h, step=0.05, max_steps=500, schedule=schedule)
        assert result.records == records
        assert result.path == path
        assert result.converged == converged
        steps_taken += len(records)
    assert steps_taken > 50
    _, k, best = stretch_march(tie[0], tie[1], step=0.05, max_steps=1, schedule=(1,)).records[0]
    rows = k_estimate(tie[0], tie[1], (1,)).rows
    assert best == rows[0][0] == Slope(0, 1)
    assert rows[1][0] == Slope(1, 0) and rows[1][3] == k


def test_best_slope_of_identical_sweeps_is_the_first_slope():
    from stretchlab import slope_lengths

    lengths = slope_lengths(random_complete(random.Random(20)), 12)
    assert metric_mod._best_slope(lengths, lengths) == (0.0, Slope(0, 1))


def test_asymmetry_probe_identity_and_twisted():
    assert asymmetry_probe(ZERO, ZERO, 10) == (0.0, 0.0)
    h = coordinate_twist(ZERO, Slope(1, 0), 0.6)
    kgh, khg = asymmetry_probe(ZERO, h, 10)
    assert kgh >= 0.0 and khg >= 0.0
    assert kgh + khg > 0.0
    # one sweep per structure gives the floats of the per-slope walks
    curves = enumerate_slopes(10)
    assert (kgh, khg) == (k_lower_bound(ZERO, h, curves).k_lower, k_lower_bound(h, ZERO, curves).k_lower)


def test_curve_id_formats():
    assert curve_id(Slope(2, 1)) == "slope:2/1"
    assert curve_id(FreeWord("aB")) == "word:aB"
