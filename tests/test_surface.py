"""Triangulation combinatorics and curve-class enumeration."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stretchlab import (
    CombinatorialLoop,
    FreeWord,
    Slope,
    Turn,
    enumerate_conjugacy_classes,
    enumerate_slopes,
    geometric_intersection,
    puncture_loops,
    slope_word,
    standard_torus_triangulation,
)
from stretchlab.surface import canonical_class_representative, cyclic_reduce, farey_path, invert_word

from util import sphere3_triangulation


# -- triangulations -------------------------------------------------------------

def test_standard_torus_counts():
    T = standard_torus_triangulation()
    T.validate()
    assert T.num_triangles == 2
    assert T.num_edges == 3
    assert T.num_punctures == 1
    assert T.genus == 1


def test_standard_torus_corner_orbit_length_six():
    T = standard_torus_triangulation()
    (orbit,) = T.vertex_classes()
    assert len(orbit) == 6
    assert len(set(orbit)) == 6


def test_sphere3_counts():
    T = sphere3_triangulation()
    T.validate()
    assert T.num_punctures == 3
    assert T.genus == 0


def test_gluing_table_must_be_involution():
    from stretchlab import IdealTriangulation

    with pytest.raises(ValueError):
        IdealTriangulation(2, (1, 0, 3, 2, 5, 5))
    with pytest.raises(ValueError):
        IdealTriangulation(2, (0, 1, 2, 3, 4, 5))


# -- slopes -----------------------------------------------------------------------

def test_enumerate_slopes_small():
    assert {(s.p, s.q) for s in enumerate_slopes(1)} == {(1, 0), (0, 1)}
    assert {(s.p, s.q) for s in enumerate_slopes(2)} == {(1, 0), (0, 1), (1, 1), (-1, 1)}


def test_enumerate_slopes_ordering_deterministic():
    slopes = enumerate_slopes(6)
    keys = [(abs(s.p) + abs(s.q), s.p, s.q) for s in slopes]
    assert keys == sorted(keys)


@given(st.integers(min_value=1, max_value=40))
def test_enumerate_slopes_canonical_no_duplicates(n):
    slopes = enumerate_slopes(n)
    assert len(slopes) == len(set(slopes))
    for s in slopes:
        assert math.gcd(abs(s.p), abs(s.q)) == 1
        assert s.q > 0 or (s.q == 0 and s.p == 1)
        assert abs(s.p) + abs(s.q) <= n


@given(st.integers(min_value=1, max_value=39))
def test_enumerate_slopes_monotone(n):
    assert len(enumerate_slopes(n)) <= len(enumerate_slopes(n + 1))


def test_slope_canonical_form_enforced():
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(1, -1)
    with pytest.raises(ValueError):
        Slope(-1, 0)


# -- Christoffel words --------------------------------------------------------------

def test_slope_word_conventions():
    assert slope_word(Slope(1, 0)).letters == "a"
    assert slope_word(Slope(0, 1)).letters == "b"
    assert slope_word(Slope(1, 1)).letters == "ab"
    assert slope_word(Slope(2, 1)).letters == "aab"


def test_slope_word_mirror_for_negative_p():
    assert slope_word(Slope(-1, 1)).letters == "Ab"
    assert slope_word(Slope(-2, 1)).letters == "AAb"


@given(st.integers(min_value=-12, max_value=12), st.integers(min_value=0, max_value=12))
def test_slope_word_length_and_abelianization(p, q):
    if math.gcd(abs(p), abs(q)) != 1 or not (q > 0 or (q == 0 and p == 1)):
        return
    w = slope_word(Slope(p, q)).letters
    assert len(w) == abs(p) + abs(q)
    assert w.count("a") - w.count("A") == p
    assert w.count("b") - w.count("B") == q
    assert cyclic_reduce(w) == w


def test_farey_path_ends_at_the_farey_parents():
    for p in range(1, 25):
        for q in range(1, 25):
            if math.gcd(p, q) != 1:
                continue
            l, r = (1, 0), (0, 1)
            for left in farey_path(p, q):
                m = (l[0] + r[0], l[1] + r[1])
                l, r = (l, m) if left else (m, r)
            assert (l[0] + r[0], l[1] + r[1]) == (p, q)
            assert l[0] * r[1] - l[1] * r[0] == 1  # Farey neighbours, l to the left of r
    assert farey_path(1, 1) == []
    assert farey_path(2, 1) == [True] and farey_path(1, 2) == [False]
    with pytest.raises(ValueError):
        farey_path(-1, 2)


# -- conjugacy classes ----------------------------------------------------------------

def _all_cyclically_reduced(n):
    letters = "abAB"
    for length in range(1, n + 1):
        for tup in itertools.product(letters, repeat=length):
            w = "".join(tup)
            if any(w[i] == w[(i + 1) % len(w)].swapcase() for i in range(len(w))):
                continue
            yield w


def _letter_key(w):
    return ["abAB".index(ch) for ch in w]


def _orbit_minima_oracle(n):
    """Independent class list: explicit orbit closure under rotation and
    inversion, each orbit's least word (letter order a<b<A<B) as its
    representative."""
    seen = set()
    minima = []
    for w in _all_cyclically_reduced(n):
        if w in seen:
            continue
        orbit = set()
        stack = [w]
        while stack:
            u = stack.pop()
            if u in orbit:
                continue
            orbit.add(u)
            stack.extend(u[i:] + u[:i] for i in range(len(u)))
            stack.append(invert_word(u))
        seen |= orbit
        minima.append(min(orbit, key=_letter_key))
    return minima


def test_conjugacy_classes_small():
    assert {w.letters for w in enumerate_conjugacy_classes(1)} == {"a", "b"}
    got = {w.letters for w in enumerate_conjugacy_classes(2)}
    assert got == {"a", "b", "aa", "bb", "ab", "aB"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_conjugacy_class_counts_match_bruteforce(n):
    expected = sorted(_orbit_minima_oracle(n), key=lambda w: (len(w), _letter_key(w)))
    assert [w.letters for w in enumerate_conjugacy_classes(n)] == expected


def _reference_canonical(word):
    """Literal reference: reduce with a stack, cancel the ends, then take the
    least of all rotations of the word and of its inverse."""
    stack = []
    for ch in word:
        if stack and stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
    while len(stack) >= 2 and stack[0] == stack[-1].swapcase():
        stack = stack[1:-1]
    w = "".join(stack)
    inverse = w[::-1].swapcase()
    rotations = [u[i:] + u[:i] for u in (w, inverse) for i in range(len(u))]
    return min(rotations, key=_letter_key, default="")


def test_canonical_representative_against_all_rotations():
    rng = random.Random(1201)
    words = ["", "aA", "abBA", "aAbB", "Ab", "abAB", "BAba"]
    words += ["".join(rng.choice("abAB") for _ in range(rng.randint(0, 12))) for _ in range(3000)]
    for w in words:
        assert canonical_class_representative(w) == _reference_canonical(w), w


def test_conjugacy_classes_cyclically_reduced_and_canonical():
    for w in enumerate_conjugacy_classes(5):
        assert cyclic_reduce(w.letters) == w.letters
        assert canonical_class_representative(w.letters) == w.letters


def test_freeword_validation():
    with pytest.raises(ValueError):
        FreeWord("aA")
    with pytest.raises(ValueError):
        FreeWord("abA")  # seam cancellation
    assert FreeWord.from_string("abA").letters == "b"
    assert FreeWord("").letters == ""


# -- intersection numbers ----------------------------------------------------------------

def test_geometric_intersection_examples():
    assert geometric_intersection(Slope(1, 0), Slope(0, 1)) == 1
    assert geometric_intersection(Slope(2, 1), Slope(2, 1)) == 0
    assert geometric_intersection(Slope(2, 1), Slope(1, 1)) == 1


coprime_slopes = st.builds(
    lambda p, q: (p, q),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=0, max_value=9),
).filter(lambda pq: math.gcd(abs(pq[0]), abs(pq[1])) == 1 and (pq[1] > 0 or pq[0] == 1))


@given(coprime_slopes, coprime_slopes)
def test_geometric_intersection_symmetric_and_faithful(pq, rs):
    s, t = Slope(*pq), Slope(*rs)
    assert geometric_intersection(s, t) == geometric_intersection(t, s)
    assert (geometric_intersection(s, t) == 0) == (s == t)


# -- puncture loops ------------------------------------------------------------------------

def test_puncture_loops_standard_torus():
    T = standard_torus_triangulation()
    loops = puncture_loops(T)
    assert len(loops) == 1
    assert len(loops[0].steps) == 6
    assert all(turn is Turn.LEFT for _, turn in loops[0].steps)


def test_puncture_loops_one_per_puncture():
    T = sphere3_triangulation()
    loops = puncture_loops(T)
    assert len(loops) == T.num_punctures == 3
    assert all(len(lp.steps) == 2 for lp in loops)


def test_loop_rotation_and_reversal_shapes():
    loop = CombinatorialLoop(((1, Turn.LEFT), (2, Turn.RIGHT)))
    assert loop.rotated(1).steps == ((2, Turn.RIGHT), (1, Turn.LEFT))
    rev = loop.reversed()
    assert sorted(e for e, _ in rev.steps) == [1, 2]
    assert rev.reversed() == loop


def test_empty_loop_rejected():
    with pytest.raises(ValueError):
        CombinatorialLoop(())
