"""Shear structures: holonomy, lengths, deformations, transverse weights.

The expected traces are computed by an in-test matrix product transcribing
the documented convention with numpy, independently of the library's own
product code.
"""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stretchlab import (
    CombinatorialLoop,
    DegeneratePolygon,
    FreeWord,
    HolonomyRep,
    IncompatibleLoop,
    IsometryMatrix,
    NotStandardTorus,
    NumericalOverflow,
    ShearStructure,
    Slope,
    Turn,
    completeness_basis,
    curve_length,
    earthquake_twist,
    holonomy_of_loop,
    puncture_loops,
    shear_from_transverse,
    shear_to_holonomy_rep,
    shears_from_coefficients,
    slope_length,
    slope_lengths,
    slope_word,
    enumerate_slopes,
    standard_torus_triangulation,
    stretch,
    transverse_slope_weights,
    word_length,
)
from stretchlab.metric import nonperipheral_classes, twist_derivative
from stretchlab.shear import _orientation

from util import (
    TORUS,
    folded_sphere3_triangulation,
    oracle_slope_lengths,
    oracle_word_lengths,
    random_complete,
    sphere3_triangulation,
)

ACOSH_15 = math.acosh(1.5)
ZERO = ShearStructure(TORUS, (0.0, 0.0, 0.0))
LOOP_A = CombinatorialLoop(((1, Turn.LEFT), (2, Turn.RIGHT)))


# independent transcription of the documented matrix convention
def oracle_edge(x):
    return np.array([[0.0, math.exp(x / 2)], [-math.exp(-x / 2), 0.0]])


ORACLE_L = np.array([[1.0, 1.0], [-1.0, 0.0]])
ORACLE_R = np.array([[0.0, -1.0], [1.0, 1.0]])


def oracle_loop_trace(shears, steps):
    m = np.eye(2)
    for edge, turn in steps:
        m = m @ oracle_edge(shears[edge])
        m = m @ (ORACLE_L if turn == "L" else ORACLE_R)
    return float(np.trace(m))


coeff = st.floats(min_value=-1.8, max_value=1.8, allow_nan=False)


@st.composite
def complete_structures(draw):
    c1, c2 = draw(coeff), draw(coeff)
    return ShearStructure(TORUS, shears_from_coefficients(TORUS, (c1, c2)))


# -- structure invariants ---------------------------------------------------------

def test_incomplete_structure_rejected():
    with pytest.raises(ValueError):
        ShearStructure(TORUS, (0.5, 0.0, 0.0))


def test_nonfinite_shears_rejected():
    with pytest.raises(ValueError):
        ShearStructure(TORUS, (math.inf, 0.0, -math.inf))


@given(complete_structures())
@settings(max_examples=60)
def test_puncture_holonomy_parabolic(S):
    for loop in puncture_loops(TORUS):
        m = holonomy_of_loop(S, loop)
        assert abs(abs(m.trace) - 2.0) <= 1e-9
        assert curve_length(S, loop) == 0.0


# -- holonomy of loops --------------------------------------------------------------

def test_generator_loop_trace_against_oracle_zero_shear():
    m = holonomy_of_loop(ZERO, LOOP_A)
    expected = oracle_loop_trace((0.0, 0.0, 0.0), [(1, "L"), (2, "R")])
    assert abs(expected) == pytest.approx(3.0, abs=1e-12)
    assert abs(m.trace) == pytest.approx(abs(expected), abs=1e-12)


@given(complete_structures())
@settings(max_examples=40)
def test_loop_holonomy_matches_oracle(S):
    expected = oracle_loop_trace(S.shears, [(1, "L"), (2, "R")])
    got = holonomy_of_loop(S, LOOP_A)
    assert abs(got.trace) == pytest.approx(abs(expected), rel=1e-12, abs=1e-12)


def test_loop_reversal_is_projective_inverse():
    S = ShearStructure(TORUS, shears_from_coefficients(TORUS, (0.7, -0.4)))
    m = holonomy_of_loop(S, LOOP_A)
    r = holonomy_of_loop(S, LOOP_A.reversed())
    assert abs(r.trace) == pytest.approx(abs(m.trace), abs=1e-12)
    # the resolver rebases the reversed loop by one turn, so the literal
    # matrix relation is rev = R m^{-1} R^{-1} with R the right-turn matrix
    right = IsometryMatrix(0.0, -1.0, 1.0, 1.0)
    from stretchlab import compose

    expected = compose(compose(right, m.inverse()), right.inverse())
    assert r.entries() == pytest.approx(expected.entries(), abs=1e-12)


def test_loop_rotation_trace_exact():
    S = ShearStructure(TORUS, shears_from_coefficients(TORUS, (1.1, 0.3)))
    base = holonomy_of_loop(S, LOOP_A).trace
    for k in range(1, 2):
        rot = holonomy_of_loop(S, LOOP_A.rotated(k)).trace
        assert abs(abs(rot) - abs(base)) <= 1e-12


# the loops of a, b, ab and aB (e1 = the vertical side, e2 = the diagonal)
WORD_LOOPS = {
    "a": ((1, Turn.LEFT), (2, Turn.RIGHT)),
    "b": ((2, Turn.LEFT), (0, Turn.RIGHT)),
    "ab": ((1, Turn.RIGHT), (0, Turn.LEFT)),
    "aB": ((1, Turn.LEFT), (2, Turn.LEFT), (0, Turn.RIGHT), (2, Turn.RIGHT)),
}


@pytest.mark.parametrize("shears", [(0.0, 0.0, 0.0), (0.3, 1.1, -1.4), (0.0, 24.0, -24.0), (-16.0, 0.0, 16.0)])
def test_loop_lengths_equal_their_word_lengths(shears):
    S = ShearStructure(TORUS, shears)
    exact = oracle_word_lengths(shears, list(WORD_LOOPS))
    for word, steps in WORD_LOOPS.items():
        loop = CombinatorialLoop(steps)
        for c in (loop, loop.reversed(), loop.rotated(1)):
            assert curve_length(S, c) == pytest.approx(word_length(S, FreeWord(word)), rel=1e-13, abs=0.0)
        assert curve_length(S, loop) == pytest.approx(exact[word], rel=1e-13, abs=0.0)
    # the entries of (ab)^20 reach 1e8 or more, where ad - bc can round to 0 and
    # holonomy_of_loop rejects the matrix; curve_length does not go through it
    power = CombinatorialLoop(WORD_LOOPS["ab"] * 20)
    assert curve_length(S, power) == pytest.approx(word_length(S, FreeWord("ab" * 20)), rel=1e-13, abs=0.0)
    assert curve_length(S, power) == pytest.approx(20 * exact["ab"], rel=1e-13, abs=0.0)


def test_incompatible_loop_rejected():
    with pytest.raises(IncompatibleLoop):
        holonomy_of_loop(ZERO, CombinatorialLoop(((0, Turn.LEFT),)))
    with pytest.raises(IncompatibleLoop):
        holonomy_of_loop(ZERO, CombinatorialLoop(((0, Turn.LEFT), (0, Turn.LEFT))))


# -- curve lengths --------------------------------------------------------------------

def test_zero_shear_systole():
    assert curve_length(ZERO, Slope(1, 0)) == pytest.approx(2 * ACOSH_15, abs=1e-12)


def test_zero_shear_order_three_symmetry():
    lengths = [curve_length(ZERO, s) for s in (Slope(1, 0), Slope(0, 1), Slope(1, 1))]
    assert max(lengths) - min(lengths) <= 1e-12


def test_word_length_examples():
    assert word_length(ZERO, FreeWord("")) == 0.0
    assert word_length(ZERO, FreeWord("ab")) == pytest.approx(2 * ACOSH_15, abs=1e-12)
    w = FreeWord("aabAB")
    assert word_length(ZERO, w) == pytest.approx(word_length(ZERO, w.inverse()), abs=1e-12)
    with pytest.raises(NotStandardTorus):
        word_length(ShearStructure(sphere3_triangulation(), (0.0, 0.0, 0.0)), FreeWord("ab"))


@given(complete_structures())
@settings(max_examples=30)
def test_nonperipheral_curves_have_positive_length(S):
    for s in (Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-2, 3)):
        assert curve_length(S, s) > 0.0


def test_shear_takes_its_trace_kernel_from_hypgeom():
    import ast
    import inspect

    import stretchlab.hypgeom as hypgeom
    import stretchlab.shear as shear

    kernel = {"_PARABOLIC_TOL", "_length_from_trace", "_length_from_paths", "_mul", "_inv", "_axis_eigenvalues"}
    defined = set()
    for node in ast.parse(inspect.getsource(shear)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert not kernel & defined
    for name in kernel:
        assert getattr(shear, name, getattr(hypgeom, name)) is getattr(hypgeom, name)


# -- holonomy representation -----------------------------------------------------------

def test_zero_shear_trace_triple():
    rep = shear_to_holonomy_rep(ZERO)
    assert [abs(t) for t in rep.trace_triple()] == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)


def test_commutator_trace_is_minus_two():
    rep = shear_to_holonomy_rep(ZERO)
    assert rep.commutator_trace() == pytest.approx(-2.0, abs=1e-12)


@given(complete_structures())
@settings(max_examples=60)
def test_markov_fricke_identity(S):
    x, y, z = shear_to_holonomy_rep(S).trace_triple()
    assert abs(x * x + y * y + z * z - x * y * z) <= 1e-9


def test_rep_requires_standard_torus():
    T3 = sphere3_triangulation()
    S3 = ShearStructure(T3, (0.0, 0.0, 0.0))
    with pytest.raises(NotStandardTorus):
        shear_to_holonomy_rep(S3)


def test_rep_validates_commutator():
    bad = IsometryMatrix(math.e, 0, 0, 1 / math.e)
    with pytest.raises(ValueError):
        HolonomyRep(bad, bad)


def test_slope_lengths_match_free_word_route():
    # two kernels: Fricke steps down the Farey tree against the word's spine product
    S = ShearStructure(TORUS, shears_from_coefficients(TORUS, (0.9, -0.2)))
    for s in (Slope(2, 1), Slope(-1, 2), Slope(3, 5)):
        assert curve_length(S, s) == pytest.approx(word_length(S, slope_word(s)), rel=1e-13)


# -- the Farey-tree trace kernel ----------------------------------------------------------

def test_slope_sweep_equals_single_slope_walk_bit_for_bit():
    rng = random.Random(41)
    slopes = enumerate_slopes(60)
    for _ in range(10):
        S = random_complete(rng)
        rep = shear_to_holonomy_rep(S)
        swept = slope_lengths(S, 60)
        from_rep = slope_lengths(rep, 60)
        assert sorted(swept) == sorted((s.p, s.q) for s in slopes)
        for s in slopes:
            assert swept[s.p, s.q] == slope_length(S, s) == curve_length(S, s)
            assert from_rep[s.p, s.q] == slope_length(rep, s)
            # two roots, one walk: shears in closed form against the holonomy matrices
            assert from_rep[s.p, s.q] == pytest.approx(swept[s.p, s.q], rel=1e-13)


def test_slope_sweep_bound_validation():
    with pytest.raises(ValueError):
        slope_lengths(shear_to_holonomy_rep(ZERO), 0)
    assert sorted(slope_lengths(shear_to_holonomy_rep(ZERO), 1)) == [(0, 1), (1, 0)]


def _word_product_lengths(rep, N):
    """50-digit lengths of all slopes with |p|+|q| <= N from matrix products of
    their Christoffel words, the mediant's matrix being the product of its
    parents' (no trace identity involved)."""
    ctx = mpmath.mp.clone()
    ctx.dps = 50

    def lift(m):
        return ctx.matrix([[m[0], m[1]], [m[2], m[3]]])

    def length(m):
        return 2 * ctx.acosh(abs(m[0, 0] + m[1, 1]) / 2)

    a, b = lift(rep.A.entries()), lift(rep.B.entries())
    out = {(1, 0): length(a), (0, 1): length(b)}
    for sign, left in ((1, a), (-1, a ** -1)):
        stack = [((1, 0), (0, 1), left, b)]
        while stack:
            lv, rv, ml, mr = stack.pop()
            mv = (lv[0] + rv[0], lv[1] + rv[1])
            if mv[0] + mv[1] > N:
                continue
            mm = ml * mr
            out[sign * mv[0], mv[1]] = length(mm)
            stack.append((lv, mv, ml, mm))
            stack.append((mv, rv, mm, mr))
    return out


@pytest.mark.parametrize("shears", [
    *(shears_from_coefficients(TORUS, (c1, c2)) for c1, c2 in ((0.4, -1.1), (1.6, 0.9), (-1.3, 0.2))),
    *((0.0, float(m), -float(m)) for m in range(6, 13)),
])
def test_slope_lengths_against_50_digit_word_products(shears):
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, shears))
    swept = slope_lengths(rep, 80)
    exact = _word_product_lengths(rep, 80)
    assert swept.keys() == exact.keys()
    worst = max(abs(swept[k] - exact[k]) / exact[k] for k in exact)
    assert worst <= 1e-12


FAMILIES = {
    "(0, m, -m)": lambda m: (0.0, m, -m),
    "(-m, 0, m)": lambda m: (-m, 0.0, m),
    "(m, -m, 0)": lambda m: (m, -m, 0.0),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_pinched_families_against_oracle(family):
    # one root curve (1/0, 0/1 or 1/1) shortens like 2 e^(-m/2): its length comes
    # from the closed-form excess; the measured worst is 4.2e-14
    worst = 0.0
    for m in range(31):
        shears = FAMILIES[family](float(m))
        swept = slope_lengths(ShearStructure(TORUS, shears), 40)
        exact = oracle_slope_lengths(shears, 40)
        assert swept.keys() == exact.keys()
        worst = max(worst, *(abs(swept[k] - exact[k]) / exact[k] for k in exact))
    assert worst <= 1e-12


@pytest.mark.parametrize("shears, N", [
    ((0.0, -8.0, 8.0), 40),
    ((-16.0, 0.0, 16.0), 40),
    ((20.0, -20.0, 0.0), 20),
    ((20.0, 0.0, -20.0), 20),
])
def test_structures_whose_holonomy_matrices_cancel(shears, N):
    # the edge-matrix products of the generators lose the commutator on these;
    # the spine product of each word does not cancel (the trace rule lost 3.7e-8
    # on ab of (20, -20, 0), whose trace is within 4e-9 of 2)
    S = ShearStructure(TORUS, shears)
    words = nonperipheral_classes(6)
    exact_words = oracle_word_lengths(shears, [w.letters for w in words])
    assert max(abs(word_length(S, w) - exact_words[w.letters]) / exact_words[w.letters] for w in words) <= 1e-13
    swept = slope_lengths(S, N)
    exact = oracle_slope_lengths(shears, N)
    errors = {k: abs(swept[k] - exact[k]) / exact[k] for k in exact}
    if shears == (20.0, 0.0, -20.0):
        # the Fricke step down to the short 2/1 (length 1.8e-4) cancels; item 1's flip walk
        assert errors.pop((2, 1)) <= 1e-7
    assert max(errors.values()) <= 1e-12


PINCHED_WORD_CORPUS = [
    shape(float(m))
    for m in range(1, 31)
    for shape in (
        lambda m: (m, -m, 0.0), lambda m: (-m, m, 0.0),
        lambda m: (m, 0.0, -m), lambda m: (-m, 0.0, m),
        lambda m: (0.0, m, -m), lambda m: (0.0, -m, m),
    )
]


@pytest.mark.parametrize("depth, corpus", [
    (4, PINCHED_WORD_CORPUS),
    (6, [(0.0, float(m), -float(m)) for m in (16, 20, 24, 30)]),
])
def test_pinched_word_lengths_against_oracle(depth, corpus):
    # one generator shortens like 2 e^(-m/2); the trace rule exited 2 on 1,406 of
    # the 180 x 116 evaluations and lost up to 6.1e-6 on the rest, where the spine
    # product measured 5.9e-16
    words = nonperipheral_classes(depth)
    worst = 0.0
    for shears in corpus:
        S = ShearStructure(TORUS, shears)
        exact = oracle_word_lengths(shears, [w.letters for w in words])
        worst = max(worst, *(abs(word_length(S, w) - exact[w.letters]) / exact[w.letters] for w in words))
    assert worst <= 1e-13


def test_word_lengths_need_no_holonomy_rep():
    # the normal form of (0, 20, -20) loses its commutator, but words never build one
    S = ShearStructure(TORUS, (0.0, 20.0, -20.0))
    with pytest.raises(NumericalOverflow):
        shear_to_holonomy_rep(S)
    assert word_length(S, FreeWord("a")) == pytest.approx(oracle_word_lengths(S.shears, ["a"])["a"], rel=1e-13)


# -- stretch -----------------------------------------------------------------------------

def test_stretch_scalar_action():
    S = ShearStructure(TORUS, (1.0, -1.0, 0.0))
    assert stretch(S, 0.0).shears == S.shears
    doubled = stretch(S, math.log(2.0))
    assert doubled.shears == pytest.approx((2.0, -2.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_stretch_log_ratio_bounded_by_t(t):
    from stretchlab import enumerate_slopes

    rng = random.Random(5)
    for _ in range(3):
        S = random_complete(rng)
        St = stretch(S, t)
        for s in enumerate_slopes(20):
            ratio = math.log(curve_length(St, s) / curve_length(S, s))
            assert ratio <= t + 1e-9


# -- earthquake twist ----------------------------------------------------------------------

def test_twist_zero_is_identity():
    rep = shear_to_holonomy_rep(ZERO)
    assert earthquake_twist(rep, Slope(1, 0), 0.0) is rep


@pytest.mark.parametrize("pq", [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (3, 2), (-3, 5)])
def test_twist_preserves_own_length(pq):
    rng = random.Random(hash(pq) & 0xFFFF)
    s = Slope(*pq)
    for _ in range(3):
        S = random_complete(rng, scale=1.0)
        tw = earthquake_twist(shear_to_holonomy_rep(S), s, 0.8)
        before = word_length(S, slope_word(s))
        after = slope_length(tw, s)
        # invariance is exact: the twisted holonomy of s is a conjugate
        assert abs(after - before) <= 1e-12


@given(complete_structures(), st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
@settings(max_examples=40)
def test_twist_preserves_completeness(S, t):
    rep = shear_to_holonomy_rep(S)
    tw = earthquake_twist(rep, Slope(1, 1), t)
    assert abs(tw.commutator_trace() + 2.0) <= 1e-9


def _twisted_triple_50(rep, s, t):
    """Trace triple of rep twisted by t along s, by matrix products in at
    least 50 digits.

    Walks the Farey bases (l, r) down to s, multiplying matrices; twists the
    bottom basis, taken with the orientation of (a, b), by the translation
    along the axis of s; and recovers each parent basis from its child by
    one product: r = l^-1 m below a left move, l = m r^-1 below a right one.
    No trace identity is involved.  The double matrices of rep have
    determinant 1 only to roundoff, which e^|t| amplifies, so they are
    rescaled to determinant 1 in the working precision; and the precision
    grows with |t|, since the products cancel about e^|t| (50 digits miss by
    1e-8 at t = 100).
    """
    ctx = mpmath.mp.clone()
    ctx.dps = 50 + 2 * int(abs(t))
    one = ctx.eye(2)

    def lift(m):
        m = ctx.matrix([[m[0], m[1]], [m[2], m[3]]])
        return m / ctx.sqrt(ctx.det(m))

    def translation(g):
        if g[0, 0] + g[1, 1] < 0:
            g = -g
        tr = g[0, 0] + g[1, 1]
        root = ctx.sqrt(tr * tr - 4)
        proj = (g - (tr - root) / 2 * one) / root  # onto the attracting eigenline
        return ctx.exp(ctx.mpf(t) / 2) * proj + ctx.exp(-ctx.mpf(t) / 2) * (one - proj)

    def trace(m):
        return m[0, 0] + m[1, 1]

    a, b = lift(rep.A.entries()), lift(rep.B.entries())
    if s.q == 0:
        b = translation(a) * b
    elif s.p == 0:  # (b, a^-1) has the orientation of (a, b)
        a = (translation(b) * a ** -1) ** -1
    else:
        p, q = abs(s.p), s.q
        l, r = (a if s.p > 0 else a ** -1), b
        lv, rv = (1, 0), (0, 1)
        moves = []
        while (lv[0] + rv[0], lv[1] + rv[1]) != (p, q):
            mv = (lv[0] + rv[0], lv[1] + rv[1])
            left = q * mv[0] < p * mv[1]
            if left:
                rv, r = mv, l * r
            else:
                lv, l = mv, l * r
            moves.append(left)
        x, y = l * r, r
        # below a^-1 the bases have the other orientation, so twist (s, r^-1)
        y = translation(x) * y if s.p > 0 else (translation(x) * y ** -1) ** -1
        for left in reversed([*moves, False]):
            x, y = (x, x ** -1 * y) if left else (x * y ** -1, y)
        a, b = (x if s.p > 0 else x ** -1), y
    return trace(a), trace(b), trace(a * b)


TWIST_SLOPES = [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (3, 2), (-3, 5), (6, 5), (-5, 7), (1, 8)]


@pytest.mark.parametrize("pq", TWIST_SLOPES)
def test_twisted_traces_against_50_digit_matrix_products(pq):
    rng = random.Random(hash(pq) & 0xFFFF)
    s = Slope(*pq)
    for _ in range(6):
        rep = shear_to_holonomy_rep(random_complete(rng, scale=1.0))
        t = rng.uniform(-1.5, 1.5)
        got = earthquake_twist(rep, s, t).trace_triple()
        exact = _twisted_triple_50(rep, s, t)
        for g, e in zip(got, exact):
            assert abs(abs(g) - abs(e)) <= 1e-11 * abs(e)


@pytest.mark.parametrize("shears, t", [
    ((0.08543815883556416, -0.17533392471298548, 0.08989576587742132), -1.3452826052320295),
    ((-1.0320064231849226, -1.486014616250563, 2.5180210394354856), 1.4607409650863872),
])
def test_twist_along_6_5_keeps_commutator_and_length(shears, t):
    # the 60-digit automorphism route rounded these commutators off by 1e-9 and 5e-9
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, shears))
    s = Slope(6, 5)
    tw = earthquake_twist(rep, s, t)
    assert abs(tw.commutator_trace() + 2.0) <= 1e-9
    assert slope_length(tw, s) == pytest.approx(slope_length(rep, s), rel=1e-12, abs=0.0)


def _round_trip_miss(rep, s, t):
    back = earthquake_twist(earthquake_twist(rep, s, t), s, -t)
    before = rep.A.entries() + rep.B.entries()
    after = back.A.entries() + back.B.entries()
    return max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(before, after))


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("family", [(0, 1, -1), (1, 0, -1), (1, -1, 0)])
def test_twist_round_trip_on_pinched_structures(family, m):
    # the 60-digit automorphism route missed (8, 0, -8) along 2/1 by 6e-5
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, tuple(m * c for c in family)))
    for pq in [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)]:
        for t in (0.5, -0.9):
            assert _round_trip_miss(rep, Slope(*pq), t) <= 1e-9


def _canonical(p, q):
    return Slope(-p, -q) if q < 0 or (q == 0 and p < 0) else Slope(p, q)


@pytest.mark.parametrize("pq", [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)])
def test_twist_by_full_length_is_the_dehn_twist(pq):
    # twisting by l_s maps every curve u to u - i(u, s) s, with
    # i(u, s) = u_p s_q - u_q s_p; no oracle is needed
    rng = random.Random(17)
    s = Slope(*pq)
    slopes = enumerate_slopes(12)
    for _ in range(10):
        rep = shear_to_holonomy_rep(random_complete(rng, scale=1.0))
        tw = earthquake_twist(rep, s, slope_length(rep, s))
        for u in slopes:
            i = u.p * s.q - u.q * s.p
            image = _canonical(u.p - i * s.p, u.q - i * s.q)
            assert slope_length(tw, u) == pytest.approx(slope_length(rep, image), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pq", [(1, 0), (0, 1), (-1, 1), (3, 2), (-3, 5)])
def test_twists_compose_additively(pq):
    rng = random.Random(23)
    s = Slope(*pq)
    for _ in range(5):
        rep = shear_to_holonomy_rep(random_complete(rng, scale=1.0))
        t1, t2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        twice = earthquake_twist(earthquake_twist(rep, s, t1), s, t2).trace_triple()
        once = earthquake_twist(rep, s, t1 + t2).trace_triple()
        for a, b in zip(twice, once):
            assert abs(abs(a) - abs(b)) <= 1e-11 * abs(b)


@pytest.mark.parametrize("t", [600.0, 1500.0, -1e4])
def test_twist_beyond_double_range_raises_overflow(t):
    rep = shear_to_holonomy_rep(ZERO)
    for pq in [(1, 0), (2, 1)]:
        if (pq, t) == ((1, 0), 600.0):
            # tr b and tr ab reach 1e130, which the normal form holds (measured 2.4e-17)
            got = earthquake_twist(rep, Slope(*pq), t).trace_triple()
            for g, e in zip(got, _twisted_triple_50(rep, Slope(*pq), t)):
                assert abs(abs(g) - abs(e)) <= 1e-15 * abs(e)
            continue
        with pytest.raises(NumericalOverflow):
            earthquake_twist(rep, Slope(*pq), t)


def test_twist_along_minus_11_keeps_commutator_and_round_trip():
    # the rebuild C N C^-1 from H's frame drifted this commutator by 1.4e-9
    rep = shear_to_holonomy_rep(
        ShearStructure(TORUS, (0.5621535382737227, 0.28493713950855376, -0.8470906777822773))
    )
    s, t = Slope(-11, 1), -1.346815801840032
    tw = earthquake_twist(rep, s, t)
    assert abs(tw.commutator_trace() + 2.0) <= 1e-9
    assert slope_length(tw, s) == pytest.approx(slope_length(rep, s), rel=1e-12, abs=0.0)
    assert _round_trip_miss(rep, s, t) <= 1e-9


def test_mirror_rep_keeps_its_orientation_through_a_twist():
    # conjugating by diag(1, -1) reverses the orientation of the commutator;
    # the twist keeps it, and twisting back returns the mirror (measured 2.4e-15)
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, shears_from_coefficients(TORUS, (0.7, -0.4))))
    mirror = HolonomyRep(*(IsometryMatrix(a, -b, -c, d) for a, b, c, d in (rep.A.entries(), rep.B.entries())))
    assert _orientation(rep) == 1.0 and _orientation(mirror) == -1.0
    for pq in [(1, 0), (0, 1), (2, 1), (-3, 5)]:
        tw = earthquake_twist(mirror, Slope(*pq), 0.9)
        assert _orientation(tw) == -1.0
        assert _round_trip_miss(mirror, Slope(*pq), 0.9) <= 1e-12


@pytest.mark.parametrize("pq", [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("t", [50.0, -50.0, 100.0, -100.0])
def test_twist_by_large_t_against_matrix_products(pq, t):
    # along 0/1, tr a reaches 1.5631e11 at t = 50 and 1.1255e22 at t = 100
    # (measured worst 4.6e-16)
    rep = shear_to_holonomy_rep(ZERO)
    got = earthquake_twist(rep, Slope(*pq), t).trace_triple()
    for g, e in zip(got, _twisted_triple_50(rep, Slope(*pq), t)):
        assert abs(abs(g) - abs(e)) <= 1e-13 * abs(e)


@pytest.mark.parametrize("shears, pq", [
    ((30.0, 0.0, -30.0), (2, 1)),
    ((24.0, -24.0, 0.0), (1, 1)),
    ((24.0, 0.0, -24.0), (2, 1)),
])
def test_twist_along_a_slope_whose_trace_rounds_to_2_raises(shears, pq):
    # the round trip by 0.5 and -0.5 missed by 2.0, 9.0e-6 and 6.2e-6 with no error
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, shears))
    with pytest.raises(NumericalOverflow, match="underflow"):
        earthquake_twist(rep, Slope(*pq), 0.5)


def test_twist_along_a_short_slope_still_round_trips():
    # 1/1 on (16, -16, 0) has trace 2 + 1.1e-7 (measured miss 1.05e-9)
    rep = shear_to_holonomy_rep(ShearStructure(TORUS, (16.0, -16.0, 0.0)))
    assert _round_trip_miss(rep, Slope(1, 1), 0.5) <= 2e-9


@pytest.mark.parametrize("shears", [(300.0, -300.0, 0.0), (1000.0, 0.0, -1000.0), (0.0, 1000.0, -1000.0)])
def test_holonomy_rep_beyond_double_precision_raises_overflow(shears):
    with pytest.raises(NumericalOverflow, match="overflow"):
        shear_to_holonomy_rep(ShearStructure(TORUS, shears))


def test_twist_derivative_finite_nonzero():
    d = twist_derivative(ZERO, Slope(1, 0), Slope(0, 1))
    assert math.isfinite(d)
    assert abs(d) > 0.1


def test_coordinate_cataclysm_differs_from_twist():
    # adding the slope's transverse-measure shear vector is a cataclysm along
    # the triangulation, not the twist along the slope: unlike the twist it
    # does not preserve the slope's own length
    s = Slope(1, 1)
    direction = shear_from_transverse(TORUS, transverse_slope_weights(s))
    h = 0.3
    moved = ShearStructure(TORUS, tuple(x + h * d for x, d in zip(ZERO.shears, direction)))
    assert abs(curve_length(moved, s) - curve_length(ZERO, s)) > 1e-3


# -- transverse weights --------------------------------------------------------------------

def test_alternating_sum_paper_arithmetic():
    # edge e0's quadrilateral reads weights (w1, w2, w1, w2) on the standard
    # torus; with (w1, w2) = (2, 1) the shear is (2 - 1 + 2 - 1)/2 = 1
    shears = shear_from_transverse(TORUS, (5.0, 2.0, 1.0))
    assert shears[0] == pytest.approx(1.0, abs=1e-15)


def test_symmetric_weights_give_zero_shears():
    assert shear_from_transverse(TORUS, (1.0, 1.0, 1.0)) == pytest.approx((0.0, 0.0, 0.0))


def test_slope_weights_small_cases():
    assert transverse_slope_weights(Slope(1, 1)).weights == (1.0, 1.0, 0.0)
    assert transverse_slope_weights(Slope(1, 0)).weights == (0.0, 1.0, 1.0)
    assert transverse_slope_weights(Slope(0, 1)).weights == (1.0, 0.0, 1.0)


def test_alternating_sum_hand_expansion_slope_11():
    # hand expansion on the standard gluing table, self-glued sides counted
    # twice: e0 reads (e1, e2, e1, e2), e1 reads (e2, e0, e2, e0), e2 reads
    # (e0, e1, e0, e1)
    w = transverse_slope_weights(Slope(1, 1)).weights
    by_hand = (
        0.5 * (w[1] - w[2] + w[1] - w[2]),
        0.5 * (w[2] - w[0] + w[2] - w[0]),
        0.5 * (w[0] - w[1] + w[0] - w[1]),
    )
    assert shear_from_transverse(TORUS, w) == pytest.approx(by_hand, abs=1e-15)
    assert by_hand == (1.0, -1.0, 0.0)


def test_earthquake_shear_vector_is_complete_direction():
    for pq in [(1, 0), (0, 1), (2, 1), (-1, 2)]:
        direction = shear_from_transverse(TORUS, transverse_slope_weights(Slope(*pq)))
        assert abs(sum(direction)) <= 1e-12


def test_degenerate_polygon_raises():
    T = folded_sphere3_triangulation()
    with pytest.raises(DegeneratePolygon):
        shear_from_transverse(T, (1.0, 1.0, 1.0))


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        shear_from_transverse(TORUS, (-1.0, 0.0, 0.0))


# -- analytic dependence proxy ----------------------------------------------------------------

def test_second_derivative_ratio_test():
    u = completeness_basis(TORUS)[0]
    s = Slope(1, 1)

    def length_at(offset):
        return curve_length(
            ShearStructure(TORUS, tuple(x + offset * ui for x, ui in zip(ZERO.shears, u))), s
        )

    def second_diff(h):
        return (length_at(h) - 2 * length_at(0.0) + length_at(-h)) / (h * h)

    d3, d4 = second_diff(1e-3), second_diff(1e-4)
    assert abs(d3 - d4) <= 1e-3 * max(1.0, abs(d4))


# -- completeness basis -------------------------------------------------------------------------

def test_completeness_basis_orthonormal_and_complete():
    basis = completeness_basis(TORUS)
    assert len(basis) == 2
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            dot = sum(a * b for a, b in zip(u, v))
            assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
        assert abs(sum(u)) <= 1e-12


def test_sphere3_has_rigid_structure():
    T3 = sphere3_triangulation()
    assert completeness_basis(T3) == ()
    S3 = ShearStructure(T3, (0.0, 0.0, 0.0))
    for loop in puncture_loops(T3):
        assert abs(abs(holonomy_of_loop(S3, loop).trace) - 2.0) <= 1e-9
        assert curve_length(S3, loop) == 0.0


# -- general triangulations from synthesized gluing tables -------------------------

def _random_triangulation(rng, triangles):
    from stretchlab import IdealTriangulation

    sides = list(range(3 * triangles))
    rng.shuffle(sides)
    table = [0] * (3 * triangles)
    for i in range(0, len(sides), 2):
        a, b = sides[i], sides[i + 1]
        table[a], table[b] = b, a
    try:
        T = IdealTriangulation(triangles, tuple(table))
        T.validate()
    except ValueError:
        return None
    return T


def test_random_triangulations_have_parabolic_punctures():
    rng = random.Random(31)
    from stretchlab import completeness_basis, shears_from_coefficients

    found = 0
    while found < 25:
        T = _random_triangulation(rng, rng.choice((2, 4)))
        if T is None:
            continue
        found += 1
        basis = completeness_basis(T)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in basis]
        S = ShearStructure(T, shears_from_coefficients(T, coeffs))
        for loop in puncture_loops(T):
            m = holonomy_of_loop(S, loop)
            assert abs(abs(m.trace) - 2.0) <= 1e-9
            assert curve_length(S, loop) == curve_length(S, loop.reversed()) == 0.0
