"""Combinatorics of ideal triangulations and homotopy classes of closed curves.

Triangulations are stored as a side-gluing table: triangle sides are indexed
counterclockwise 0, 1, 2 and every side is glued to exactly one other side.
Corner i of a triangle sits between sides i and i+1 (the vertex where side i
ends); rotating around the ideal vertex at corner (t, i) crosses side i+1
into the glued triangle (t', j) and lands at corner (t', j).

Closed curves come in three combinatorial flavours: coprime slopes on the
once-punctured torus, cyclically reduced words in the rank-2 free group, and
step sequences in the dual spine of a triangulation.

`farey_path` is the one place that decides which child of a Farey basis
leads to a slope; Christoffel words, slope traces and twists all follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Union


class Turn(Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True, slots=True)
class IdealTriangulation:
    """Ideal triangulation given by a perfect side-gluing involution.

    ``gluings[3*t + s]`` is the flat index ``3*t' + s'`` of the side glued to
    side s of triangle t.  Sides are never glued to themselves.
    """

    num_triangles: int
    gluings: tuple[int, ...]

    def __post_init__(self):
        T = self.num_triangles
        if T <= 0 or T % 2 != 0:
            raise ValueError(f"triangle count must be a positive even number, got {T}")
        if len(self.gluings) != 3 * T:
            raise ValueError("gluing table must have one entry per triangle side")
        for i, j in enumerate(self.gluings):
            if not 0 <= j < 3 * T:
                raise ValueError(f"gluing target {j} out of range")
            if j == i:
                raise ValueError(f"side {i} glued to itself")
            if self.gluings[j] != i:
                raise ValueError(f"gluing table is not an involution at side {i}")

    # -- side bookkeeping ----------------------------------------------------

    def opposite(self, tri: int, side: int) -> tuple[int, int]:
        j = self.gluings[3 * tri + side]
        return divmod(j, 3)

    @property
    def num_edges(self) -> int:
        return 3 * self.num_triangles // 2

    @lru_cache(maxsize=None)
    def _edge_tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Edge index per flat side (edges ordered by their lexicographically least side)."""
        edge_of_side = [-1] * len(self.gluings)
        reps = []
        for i in range(len(self.gluings)):
            if edge_of_side[i] >= 0:
                continue
            j = self.gluings[i]
            idx = len(reps)
            edge_of_side[i] = idx
            edge_of_side[j] = idx
            reps.append(divmod(i, 3))
        return tuple(edge_of_side), tuple(reps)

    def edge_index(self, tri: int, side: int) -> int:
        return self._edge_tables()[0][3 * tri + side]

    def edge_sides(self, edge: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (triangle, side) incidences of an edge."""
        tri, side = self._edge_tables()[1][edge]
        return (tri, side), self.opposite(tri, side)

    # -- vertex classes ------------------------------------------------------

    def corner_orbit_next(self, tri: int, side: int) -> tuple[int, int]:
        """Rotate around the ideal vertex at corner (tri, side)."""
        return self.opposite(tri, (side + 1) % 3)

    @lru_cache(maxsize=None)
    def vertex_classes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Corner orbits, one per puncture, each starting at its least corner."""
        seen = set()
        orbits = []
        for t in range(self.num_triangles):
            for s in range(3):
                if (t, s) in seen:
                    continue
                orbit = []
                cur = (t, s)
                while cur not in seen:
                    seen.add(cur)
                    orbit.append(cur)
                    cur = self.corner_orbit_next(*cur)
                if cur != (t, s):
                    raise ValueError("corner rotation does not close up")
                orbits.append(tuple(orbit))
        return tuple(orbits)

    @property
    def num_punctures(self) -> int:
        return len(self.vertex_classes())

    @property
    def genus(self) -> int:
        chi = self.num_triangles - self.num_edges
        g2 = 2 - self.num_punctures - chi
        if g2 < 0 or g2 % 2 != 0:
            raise ValueError(f"inconsistent Euler characteristic {chi}")
        return g2 // 2

    def validate(self) -> None:
        """Raise ValueError if any structural invariant fails."""
        if 2 * self.num_edges != 3 * self.num_triangles:
            raise ValueError("edge count must be 3T/2")
        _ = self.genus
        for orbit in self.vertex_classes():
            if not orbit:
                raise ValueError("empty corner orbit")


@dataclass(frozen=True, slots=True)
class CombinatorialLoop:
    """Cyclic step sequence in the dual spine: cross an edge, then turn L/R."""

    steps: tuple[tuple[int, Turn], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("combinatorial loop needs at least one step")

    def rotated(self, k: int) -> "CombinatorialLoop":
        n = len(self.steps)
        k %= n
        return CombinatorialLoop(self.steps[k:] + self.steps[:k])

    def reversed(self) -> "CombinatorialLoop":
        """The loop run backwards: edges in reverse cyclic order, and each
        crossing picks up the flipped turn of the step that preceded it."""
        steps = self.steps
        flipped = []
        for k in range(len(steps) - 1, -1, -1):
            turn = steps[k - 1][1]
            flipped.append((steps[k][0], Turn.RIGHT if turn is Turn.LEFT else Turn.LEFT))
        return CombinatorialLoop(tuple(flipped))

    def spec(self) -> str:
        return ",".join(f"e{e}{t.value}" for e, t in self.steps)


@dataclass(frozen=True, slots=True)
class Slope:
    """Isotopy class of a simple closed curve on the once-punctured torus."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"slope ({self.p},{self.q}) is not coprime")
        if not (self.q > 0 or (self.q == 0 and self.p == 1)):
            raise ValueError(f"slope ({self.p},{self.q}) is not canonical (need q>0, or q=0 and p=1)")

    def spec(self) -> str:
        return f"{self.p}/{self.q}"


_LETTERS = "abAB"


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_reduce(word: str) -> str:
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


def invert_word(word: str) -> str:
    return word[::-1].swapcase()


def is_cyclically_reduced(word: str) -> bool:
    if any(ch not in _LETTERS for ch in word):
        return False
    n = len(word)
    return all(word[i] != word[(i + 1) % n].swapcase() for i in range(n)) if n else True


@dataclass(frozen=True, slots=True)
class FreeWord:
    """Cyclically reduced word over {a, b, A, B}; capitals are inverses."""

    letters: str

    def __post_init__(self):
        if not is_cyclically_reduced(self.letters):
            raise ValueError(f"word {self.letters!r} is not cyclically reduced over a,b,A,B")

    @classmethod
    def from_string(cls, raw: str) -> "FreeWord":
        return cls(cyclic_reduce(raw))

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(invert_word(self.letters))

    def spec(self) -> str:
        return self.letters


Curve = Union[Slope, FreeWord, CombinatorialLoop]


# -- the once-punctured torus ------------------------------------------------

@lru_cache(maxsize=1)
def standard_torus_triangulation() -> IdealTriangulation:
    """Two ideal triangles glued along three edges; one puncture, genus one.

    In the unit-square picture (diagonal from corner to corner) the edges are
    e0 = the horizontal square side, e1 = the vertical side, e2 = the diagonal.
    """
    gluing_pairs = {(0, 0): (1, 1), (0, 1): (1, 2), (0, 2): (1, 0)}
    table = [0] * 6
    for (t, s), (u, r) in gluing_pairs.items():
        table[3 * t + s] = 3 * u + r
        table[3 * u + r] = 3 * t + s
    return IdealTriangulation(2, tuple(table))


def enumerate_slopes(N: int) -> list[Slope]:
    """All canonical coprime slopes with |p| + |q| <= N, sorted by (|p|+|q|, p, q)."""
    if N < 1:
        raise ValueError("slope bound must be at least 1")
    found = []
    for total in range(1, N + 1):
        for p in range(-total, total + 1):  # p ascends, so each level comes out sorted
            q = total - abs(p)
            if (q > 0 and math.gcd(abs(p), q) == 1) or (p, q) == (1, 0):
                found.append(Slope(p, q))
    return found


@lru_cache(maxsize=None)
def slope_word(s: Slope) -> FreeWord:
    """Christoffel word of a slope: (1,0) -> a, (0,1) -> b, mediants concatenate.

    Negative p mirrors the word of (-p, q) through a -> a^{-1}.
    """
    if s.q == 0:
        return FreeWord("a")
    if s.p == 0:
        return FreeWord("b")
    lw, rw = ("a" if s.p > 0 else "A"), "b"  # the mediant's word is l.r
    for left in farey_path(abs(s.p), s.q):
        if left:
            rw = lw + rw
        else:
            lw = lw + rw
    return FreeWord(lw + rw)


def farey_path(p: int, q: int) -> list[bool]:
    """Moves down the Stern-Brocot tree from the Farey basis (1/0, 0/1) to the
    parents (l, r) of p/q, for coprime p, q > 0: True where the walk goes to
    the child (l, l+r), False where it goes to (l+r, r)."""
    if p <= 0 or q <= 0:
        raise ValueError(f"Farey path needs p, q > 0, got {p}/{q}")
    lp, lq, rp, rq = 1, 0, 0, 1
    moves = []
    while (lp + rp, lq + rq) != (p, q):
        mp, mq = lp + rp, lq + rq
        left = q * mp < p * mq
        if left:
            rp, rq = mp, mq
        else:
            lp, lq = mp, mq
        moves.append(left)
    return moves


# _LETTERS in its order a < b < A < B, translated to ordinary string order and back
_LETTER_ORDER = str.maketrans(_LETTERS, "abcd")
_LETTER_BACK = str.maketrans("abcd", _LETTERS)


def canonical_class_representative(word: str) -> str:
    """Least rotation over the cyclic word and its inverse (letter order a<b<A<B)."""
    w = cyclic_reduce(word)
    n = len(w)
    ww, vv = (2 * u.translate(_LETTER_ORDER) for u in (w, invert_word(w)))
    return min([u[i:i + n] for u in (ww, vv) for i in range(n)], default="").translate(_LETTER_BACK)


def is_peripheral(word: str) -> bool:
    """Whether a cyclically reduced word is a power of the puncture class abAB
    or of its inverse (the empty word included).  Up to rotation and
    inversion these are the words (abAB)^k, which are their own canonical
    representatives, so only a length that is a multiple of 4 is canonicalised."""
    n = len(word)
    return n % 4 == 0 and canonical_class_representative(word) == "abAB" * (n // 4)


def enumerate_conjugacy_classes(N: int) -> list[FreeWord]:
    """One representative per conjugacy class of cyclically reduced words of
    length <= N in the rank-2 free group, up to rotation and inversion.

    One depth-first pass over the reduced words from the roots a and b (a
    canonical word starts with one of them), children in letter order, keeps
    each word that is its own canonical representative.  Preorder is letter
    order, so each length comes out sorted.  The pass carries (w, w^-1),
    translated, and skips w's subtree when w^-1 or a suffix of w is below w's
    prefix of the same length: every extension has a smaller rotation.
    """
    if N < 1:
        raise ValueError("word length bound must be at least 1")
    by_length: list[list[FreeWord]] = [[] for _ in range(N + 1)]
    stack = [("b", "d"), ("a", "c")]  # pushed in reverse, so that the least letter pops first
    while stack:
        w, v = stack.pop()
        n = len(w)
        # (a suffix of w^-1 is the inverse of a prefix of w, checked as v there)
        if v < w or any(w[i:] < w[:n - i] for i in range(1, n)):
            continue
        word = w.translate(_LETTER_BACK)
        if w[0] != v[0] and canonical_class_representative(word) == word:
            by_length[n].append(FreeWord(word))
        if n < N:
            stack.extend((w + ch, inv + v) for ch, inv in zip("dcba", "badc") if ch != v[0])
    return [w for words in by_length for w in words]


def geometric_intersection(s: Slope, t: Slope) -> int:
    return abs(s.p * t.q - s.q * t.p)


def puncture_loops(T: IdealTriangulation) -> list[CombinatorialLoop]:
    """One dual-spine loop encircling each puncture (all left turns)."""
    loops = []
    for orbit in T.vertex_classes():
        steps = tuple((T.edge_index(t, (s + 1) % 3), Turn.LEFT) for t, s in orbit)
        loops.append(CombinatorialLoop(steps))
    return loops
