"""Hyperbolic plane kernel: isometries, distances, the triangle stretch map."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stretchlab import (
    HPoint,
    IsometryKind,
    IsometryMatrix,
    NotHyperbolic,
    OutsideTriangle,
    apply,
    axis_translation,
    classify,
    compose,
    hyp_distance,
    stretch_triangle_map,
)
from stretchlab.hypgeom import IDENTITY, in_ideal_triangle

ACOSH_15 = math.acosh(1.5)


def mat(a, b, c, d):
    return IsometryMatrix(a, b, c, d)


entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def isometries(draw):
    a = draw(entries)
    b = draw(entries)
    c = draw(entries)
    d = draw(entries)
    det = a * d - b * c
    if abs(det) < 0.05:
        d = d + 1.0
        det = a * d - b * c
    if det < 0:
        a, b = -a, -b
        det = -det
    if det < 0.05:
        b, c = b - 1.0, c + 1.0
        det = a * d - b * c
    from hypothesis import assume

    assume(det > 0.05)
    return mat(a, b, c, d)


@st.composite
def hpoints(draw):
    x = draw(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    y = draw(st.floats(min_value=0.05, max_value=20.0, allow_nan=False))
    return HPoint(x, y)


@st.composite
def hyperbolics(draw):
    length = draw(st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
    g = draw(isometries())
    e = math.exp(length / 2.0)
    return compose(compose(g, mat(e, 0.0, 0.0, 1.0 / e)), g.inverse())


# -- compose / classify --------------------------------------------------------

def test_compose_identity_and_inverse():
    m = mat(2.0, 1.0, 1.0, 1.0)
    assert compose(IDENTITY, m) == m
    prod = compose(m, m.inverse())
    assert classify(prod).kind is IsometryKind.IDENTITY


def test_projective_sign_canonicalization():
    assert mat(-1, -1, -1, -2) == mat(1, 1, 1, 2)
    assert mat(0, -1, 1, 0).entries() == pytest.approx((0.0, 1.0, -1.0, 0.0))
    assert mat(3, 0, 0, 1 / 3).det() == pytest.approx(1.0, abs=1e-12)


def test_compose_direct_arithmetic():
    m = compose(mat(1, 1, 0, 1), mat(1, 0, 1, 1))
    assert m.entries() == pytest.approx((2.0, 1.0, 1.0, 1.0))


def test_classify_parabolic_boundary():
    cls = classify(mat(1, 1, 0, 1))
    assert cls.kind is IsometryKind.PARABOLIC
    assert cls.translation_length == 0.0


def test_classify_trace_three():
    cls = classify(mat(1, 1, 1, 2))
    assert cls.kind is IsometryKind.HYPERBOLIC
    assert cls.translation_length == pytest.approx(2.0 * ACOSH_15, abs=1e-12)


def test_classify_negative_trace_projective():
    # the canonical representative flips the sign, so trace -3 behaves as 3
    cls = classify(mat(-1, -1, -1, -2))
    assert cls.kind is IsometryKind.HYPERBOLIC
    assert cls.translation_length == pytest.approx(2.0 * ACOSH_15, abs=1e-12)


def test_classify_identity_both_signs():
    assert classify(mat(1, 0, 0, 1)).kind is IsometryKind.IDENTITY
    assert classify(mat(-1, 0, 0, -1)).kind is IsometryKind.IDENTITY


def test_classify_elliptic():
    theta = 0.7
    cls = classify(mat(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)))
    assert cls.kind is IsometryKind.ELLIPTIC


@given(isometries(), isometries())
def test_compose_keeps_determinant_one(m, n):
    assert abs(compose(m, n).det() - 1.0) <= 1e-12


@given(hyperbolics(), isometries())
@settings(max_examples=60)
@example(  # a determinant of 1 - 6e-11 by rounding: rescaling it moved the length by 1.3e-10
    IsometryMatrix(8.944055547612628, -14.590668553824983, 4.168762443949996, -6.688803617199857),
    IsometryMatrix(2.82842712474619, 2.82842712474619, -5.65685424949238, -5.303300858899106),
)
def test_classify_conjugation_invariant(m, g):
    conj = compose(compose(g, m), g.inverse())
    a, b = classify(m), classify(conj)
    assert a.kind is b.kind
    assert abs(a.translation_length - b.translation_length) <= 1e-10


# -- apply / hyp_distance -------------------------------------------------------

def test_apply_examples():
    assert apply(IDENTITY, HPoint(0, 1)) == HPoint(0, 1)
    p = apply(mat(1, 1, 0, 1), HPoint(0, 1))
    assert (p.x, p.y) == pytest.approx((1.0, 1.0))
    q = apply(mat(0, 1, -1, 0), HPoint(0, 2))
    assert (q.x, q.y) == pytest.approx((0.0, 0.5))


def test_hyp_distance_examples():
    p = HPoint(0, 1)
    assert hyp_distance(p, p) == 0.0
    assert hyp_distance(p, HPoint(0, math.e)) == pytest.approx(1.0, abs=1e-12)
    assert hyp_distance(p, HPoint(1, 1)) == pytest.approx(ACOSH_15, abs=1e-12)


def test_hyp_distance_of_nearby_points():
    # acosh(1 + d^2/2) gave 0 for these, and the triangle inequality failed by 9e-9
    p, q, r = HPoint(0.0, 1.0), HPoint(1e-8, 1.0), HPoint(1.0, 1.0)
    assert hyp_distance(p, q) == pytest.approx(1e-8, rel=1e-12)
    assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r)


@given(hpoints(), hpoints(), hpoints())
def test_hyp_distance_is_a_metric(p, q, r):
    assert hyp_distance(p, q) == hyp_distance(q, p)
    assert hyp_distance(p, q) >= 0.0
    assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-12


@given(isometries(), hpoints(), hpoints())
@settings(max_examples=80)
def test_apply_is_isometry(m, p, q):
    assert abs(hyp_distance(apply(m, p), apply(m, q)) - hyp_distance(p, q)) <= 1e-10


def test_hpoint_requires_upper_half_plane():
    with pytest.raises(ValueError):
        HPoint(0.0, -1.0)


# -- axis_translation ------------------------------------------------------------

def test_axis_translation_diagonal():
    m = mat(math.e, 0, 0, 1 / math.e)
    n = axis_translation(m, 0.6)
    assert n.entries() == pytest.approx((math.exp(0.3), 0, 0, math.exp(-0.3)), abs=1e-12)
    assert classify(axis_translation(m, 0.0)).kind is IsometryKind.IDENTITY


def test_axis_translation_recovers_m():
    m = mat(math.e, 0, 0, 1 / math.e)
    ell = classify(m).translation_length
    n = axis_translation(m, ell)
    assert n.entries() == pytest.approx(m.entries(), abs=1e-12)


def test_axis_translation_rejects_parabolic():
    with pytest.raises(NotHyperbolic):
        axis_translation(mat(1, 1, 0, 1), 1.0)


@given(hyperbolics(), isometries(), st.floats(min_value=-2, max_value=2, allow_nan=False))
@settings(max_examples=60)
def test_axis_translation_conjugation_covariance(m, g, t):
    lhs = axis_translation(compose(compose(g, m), g.inverse()), t)
    rhs = compose(compose(g, axis_translation(m, t)), g.inverse())
    assert lhs.entries() == pytest.approx(rhs.entries(), abs=1e-8)


# -- stretch_triangle_map ---------------------------------------------------------

def random_triangle_point(rng):
    while True:
        x = rng.uniform(0.0, 1.0)
        y = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        p = HPoint(x, y)
        if in_ideal_triangle(p):
            return p


def test_stretch_identity_when_k_one():
    rng = random.Random(0)
    for _ in range(50):
        p = random_triangle_point(rng)
        assert stretch_triangle_map(p, 1.0) == p


def test_stretch_fixes_central_region():
    # the central region is bounded by y = 1 and the two diameter-1 horocycles
    for p in [HPoint(0.5, 0.9), HPoint(0.5, 0.7), HPoint(0.3, 0.95), HPoint(0.5, 0.51)]:
        q = stretch_triangle_map(p, 3.0)
        assert (q.x, q.y) == (p.x, p.y)


def test_stretch_side_points_scale_exponent():
    K = 1.7
    for s in (0.3, 1.0, 2.5):
        q = stretch_triangle_map(HPoint(0.0, math.exp(s)), K)
        assert q.x == 0.0
        assert q.y == pytest.approx(math.exp(K * s), rel=1e-12)


def test_stretch_side_arc_length_multiplied_exactly():
    # points on the side 0--oo on either side of the contact point (0, 1)
    K = 2.3
    pts = [HPoint(0.0, math.exp(s)) for s in (-1.2, -0.3, 0.4, 1.9)]
    imgs = [stretch_triangle_map(p, K) for p in pts]
    for p, q in zip(pts, imgs):
        s = math.log(p.y)
        assert math.log(q.y) == pytest.approx(K * s, abs=1e-9)
    # distances along the side multiply by exactly K, across corner regions
    for i in range(len(pts) - 1):
        d0 = hyp_distance(pts[i], pts[i + 1])
        d1 = hyp_distance(imgs[i], imgs[i + 1])
        assert d1 == pytest.approx(K * d0, abs=1e-9)


def test_stretch_outside_triangle_rejected():
    with pytest.raises(OutsideTriangle):
        stretch_triangle_map(HPoint(-0.5, 1.0), 2.0)
    with pytest.raises(OutsideTriangle):
        stretch_triangle_map(HPoint(0.5, 0.1), 2.0)


def test_stretch_requires_k_at_least_one():
    with pytest.raises(ValueError):
        stretch_triangle_map(HPoint(0.5, 2.0), 0.5)


@pytest.mark.parametrize("K", [1.2, 2.0])
def test_stretch_is_k_lipschitz_sampled(K):
    rng = random.Random(7)
    for _ in range(500):
        p = random_triangle_point(rng)
        q = random_triangle_point(rng)
        d = hyp_distance(p, q)
        d_img = hyp_distance(stretch_triangle_map(p, K), stretch_triangle_map(q, K))
        assert d_img <= K * d * (1.0 + 1e-6) + 1e-15
