"""Shear-coordinate hyperbolic structures: holonomy, lengths, deformations.

Matrix convention for dual-spine holonomy (recorded design decision): crossing
an edge with shear x contributes E(x) = [[0, exp(x/2)], [-exp(-x/2), 0]], and
a turn inside the triangle entered through side s contributes
L = [[1, 1], [-1, 0]] (exit through side s+1) or R = [[0, -1], [1, 1]] (exit
through side s+2), with the product taken left to right along the loop.  The
convention is validated by two independent checks: completeness forces
parabolic puncture holonomy, and the zero-shear torus has traces (3, 3, 3).

With D(x) = diag(e^(x/2), e^(-x/2)), E(x) L = -D(x) [[1, 0], [1, 1]] and
E(x) R = D(x) [[1, 1], [0, 1]]: a loop's holonomy is +- a product of
nonnegative matrices (Fock-Goncharov positivity; Penner's lambda lengths), and
every word (read as its loop on the standard torus, `_word_steps`) and loop
takes its length from it (`_spine_product`, `hypgeom._length_from_paths`)
with no subtraction.  A peripheral class has length 0 by shape alone: a word
by `is_peripheral`, a loop when all its turns are alike.

A trace triple (tr a, tr b, tr ab) fixes a holonomy representation of the
once-punctured torus up to conjugacy, and every word trace with it.
`_normal_form` is the one place where a triple becomes matrices: A diagonal,
B symmetric, and the sign of B's off-diagonal entries sets the orientation,
the direction in which the parabolic commutator [A, B] turns (`_orientation`).
`shear_to_holonomy_rep` and `earthquake_twist` both return normal forms.

Slope lengths never multiply matrices along a word.  The Christoffel word of
a Stern-Brocot mediant is the product l.r of its parents' words, so the
Fricke identity tr(l.r) = tr(l) tr(r) - tr(l.r^-1) gives every slope trace
in O(1) from its parents.  A tree node carries (tr l, tr r, d = tr(l.r^-1));
its mediant m has trace tr l tr r - d, and its children are (l, m) with
d = tr r and (m, r) with d = tr l.
`slope_lengths` sweeps the whole tree down to a complexity bound from the
root Farey triangle {1/0, 0/1, 1/1}, the curves a, b and ab: the slopes with
p > 0 hang below its edges (1/0, 1/1), with d = tr b, and (1/1, 0/1), with
d = tr a; those with p < 0 below a^-1 = (-1,0) and b, with d = tr ab.
`slope_length` walks to one slope from the basis (a, b), or (a^-1, b) for
p < 0, along `surface.farey_path` (`_farey_walk`), the walk that the twist
shares.  It takes the same steps as the sweep, so the two agree bit for bit.

The root has two sources, which feed the same walk.  A ShearStructure gives
it in closed form (shear coordinates; Fock, "Dual Teichmueller spaces",
1997): with shears (x0, x1, x2) of the standard torus edges and
f(xi, xj) = e^u + e^v + e^-u, u = (xi + xj)/2, v = (xj - xi)/2, the traces
are |tr a| = f(x1, x2), |tr b| = f(x2, x0) and |tr ab| = f(x0, x1), all
positive, which is a valid lift since tr a tr b tr ab > 0.  The three root
lengths come from the excess |tr| - 2 = 4 sinh^2(u/2) + e^v, a sum of
positive terms, as l = 4 asinh(hypot(sinh(u/2), e^(v/2)/2)); so a pinched
generator of length 2 e^(v/2) keeps all its digits, down to the smallest
double.  A HolonomyRep, such as a twisted one, gives the root from its
matrices.  A shear with |u| or v beyond log(DBL_MAX) raises
NumericalOverflow, and so does a slope whose length comes out as 0: the
walk rounds a trace within 1e-9 of 2 to 2 (`hypgeom._length_from_trace`),
and a slope is never peripheral, so that is an underflow, not a length.

When tr l tr r - d would cancel, on the step down to a short curve whose
neighbours are long, `_fricke_step` takes tr m as (tr l^2 + tr r^2) / d, the
other root of z^2 - tr l tr r z + tr l^2 + tr r^2 = 0 (tr [l, r] = -2).

The Fenchel-Nielsen twist (`earthquake_twist`) works on trace triples too.
It walks down the Stern-Brocot path to s as `slope_length` does, twists the
basis (s, right parent of s) there in closed form (`_twist_pair`), and climbs
back to (tr a, tr b, tr ab) by the same steps.  A slope whose trace rounds to
2 at the bottom is an underflow, as in `slope_length`.  The result is the
normal form of the new triple with the orientation of H, so a twist by -t
returns H up to roundoff whenever H is in normal form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegeneratePolygon, IncompatibleLoop, NotStandardTorus, NumericalOverflow
from .hypgeom import IsometryMatrix, Mat, _axis_eigenvalues, _inv, _length_from_paths, _length_from_trace, _mul
from .surface import (
    CombinatorialLoop,
    Curve,
    FreeWord,
    IdealTriangulation,
    Slope,
    Turn,
    cyclic_reduce,
    farey_path,
    is_peripheral,
    standard_torus_triangulation,
)

COMPLETENESS_TOL = 1e-9
_MAX_EXP = math.log(sys.float_info.max)  # exp overflows a double beyond this
_TORUS = standard_torus_triangulation()


def _generator_length(m: Mat) -> float:
    """Length of a generator, from the exact sum of its diagonal (TwoSum)."""
    x, y = m[0], m[3]
    tr = x + y
    z = tr - x
    return _length_from_trace(tr, (x - (tr - z)) + (y - z))


@dataclass(frozen=True, slots=True)
class ShearStructure:
    """Point of Teichmueller space: an ideal triangulation plus one shear per edge.

    Always complete: the signed shear sum around every puncture must vanish
    (equivalently every puncture holonomy is parabolic).
    """

    triangulation: IdealTriangulation
    shears: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shears", tuple(float(x) for x in self.shears))
        T = self.triangulation
        if len(self.shears) != T.num_edges:
            raise ValueError(f"need {T.num_edges} shears, got {len(self.shears)}")
        if not all(math.isfinite(x) for x in self.shears):
            raise ValueError("shears must be finite")
        for k, total in enumerate(self.puncture_shear_sums()):
            if abs(total) > COMPLETENESS_TOL:
                raise ValueError(
                    f"incomplete structure: signed shear sum around puncture {k} is {total}"
                )

    def puncture_shear_sums(self) -> list[float]:
        T = self.triangulation
        sums = []
        for orbit in T.vertex_classes():
            sums.append(math.fsum(self.shears[T.edge_index(t, (s + 1) % 3)] for t, s in orbit))
        return sums


@dataclass(frozen=True, slots=True)
class HolonomyRep:
    """Images of the two generators of the once-punctured torus group.

    The commutator is the puncture class, so its trace must be -2.
    """

    A: IsometryMatrix
    B: IsometryMatrix

    def __post_init__(self):
        if abs(self.commutator_trace() + 2.0) > COMPLETENESS_TOL:
            raise ValueError(
                f"commutator trace {self.commutator_trace()} is not -2: not a cusped torus rep"
            )

    def commutator(self) -> Mat:
        a = self.A.entries()
        b = self.B.entries()
        return _mul(_mul(a, b), _mul(_inv(a), _inv(b)))

    def commutator_trace(self) -> float:
        m = self.commutator()
        return m[0] + m[3]

    def trace_triple(self) -> tuple[float, float, float]:
        a = self.A.entries()
        b = self.B.entries()
        ab = _mul(a, b)
        return (a[0] + a[3], b[0] + b[3], ab[0] + ab[3])


def _loop_steps(T: IdealTriangulation, loop: CombinatorialLoop) -> tuple[tuple[int, bool], ...]:
    """Check the steps against the gluing table; return them as the steps
    (edge, turn is left) of `_spine_product`.

    A flag (triangle, side) means "in this triangle, about to cross this side".
    Both flags of the first edge are tried in lexicographic order.
    """
    first_edge = loop.steps[0][0]
    if not 0 <= first_edge < T.num_edges:
        raise IncompatibleLoop(f"edge index {first_edge} out of range")
    for start in sorted(T.edge_sides(first_edge)):
        cur = start
        ok = True
        for edge, turn in loop.steps:
            if T.edge_index(*cur) != edge:
                ok = False
                break
            t2, s2 = T.opposite(*cur)
            offset = 1 if turn is Turn.LEFT else 2
            cur = (t2, (s2 + offset) % 3)
        if ok and cur == start:
            return tuple((e, turn is Turn.LEFT) for e, turn in loop.steps)
    raise IncompatibleLoop(f"loop {loop.spec()} does not close up against the gluing table")


@lru_cache(maxsize=64)
def _spine_factors(shears: tuple[float, ...]) -> tuple[tuple[tuple[float, float, float], ...], float]:
    """(e^(x/2), e^(-x/2), x) per edge, for the diagonal D(x) of the step factors, and max |x|/2."""
    top = max(map(abs, shears)) / 2.0
    if top > _MAX_EXP:
        raise NumericalOverflow(f"shears {shears} are too large: exp(x/2) overflows a double")
    return tuple((math.exp(x / 2.0), math.exp(-x / 2.0), x) for x in shears), top


def _spine_product(shears: tuple[float, ...], steps: tuple[tuple[int, bool], ...]) -> tuple[float, ...]:
    """(a, b, c, d, s, r, lost) for the loop with steps (edge, turn is left): its holonomy
    up to sign, the product of D(x) R+ per left and D(x) L+ per right turn, and s, r = a1 + d1
    (the off-diagonal paths' share of a and d) and lost of `hypgeom._length_from_paths`."""
    half, top = _spine_factors(shears)
    a, b, c, d, a1, d1, s = 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0
    for edge, left in steps:
        e, ei, x = half[edge]
        s += x
        if left:
            b, d, d1 = b * ei, d * ei, d1 * ei
            a, a1, c = a * e + b, a1 * e + b, c * e + d
        else:
            a, a1, c = a * e, a1 * e, c * e
            b, d, d1 = a + b * ei, c + d * ei, c + d1 * ei
    if not a + b + c + d < math.inf:
        raise NumericalOverflow(f"holonomy of shears {shears} overflows double precision")
    n, lost = len(steps), None
    if n * top > 708.0:  # an entry may go below e^-708: r loses < 8n 2^-1075 (2 e^t)^n <= eps e^lost
        lost = sum(abs(shears[edge]) for edge, _ in steps) / 2.0 + (2 * n - 1020) * math.log(2.0)
    return a, b, c, d, s, a1 + d1, lost


def holonomy_of_loop(S: ShearStructure, loop: CombinatorialLoop) -> IsometryMatrix:
    """Ordered product of edge-crossing and turn matrices along the loop."""
    return IsometryMatrix(*_spine_product(S.shears, _loop_steps(S.triangulation, loop))[:4])


@lru_cache(maxsize=4096)
def shear_to_holonomy_rep(S: ShearStructure) -> HolonomyRep:
    """Holonomy of the slope (1,0) and (0,1) curves: `_normal_form` of the
    closed-form trace triple of `_root`, with orientation +1 (sign -1), the
    orientation of the edge-matrix holonomy of those loops.  Zero shears give
    the maximally symmetric punctured torus with trace triple (3, 3, 3).
    """
    ta, tb, tab = _root(S)[:3]
    return _normal_form(ta, tb, tab, -1.0, f"holonomy of shears {S.shears}")


@lru_cache(maxsize=1 << 16)
def _word_steps(w: FreeWord) -> tuple[tuple[int, bool], ...]:
    """Steps (edge, turn is left) of a word's dual-spine loop, () if peripheral:
    its letters' edge paths, equal adjacent edges cancelled cyclically (by
    `cyclic_reduce`, as a digit is its own swapcase), left where f follows e."""
    if is_peripheral(w.letters):
        return ()
    left = {(_TORUS.edge_index(t, s), _TORUS.edge_index(t, (s + 1) % 3)) for t in range(2) for s in range(3)}
    paths = str.maketrans({"a": "12", "A": "21", "b": "20", "B": "02"})  # read from triangle 0
    edges = [int(e) for e in cyclic_reduce(w.letters.translate(paths))]
    return tuple((e, (e, f) in left) for e, f in zip(edges, edges[1:] + edges[:1]))


@lru_cache(maxsize=1 << 17)
def word_length(S: ShearStructure, w: FreeWord) -> float:
    """Length of a word's dual-spine loop (`_word_steps`); 0 for a peripheral class (`is_peripheral`)."""
    if S.triangulation is not _TORUS and S.triangulation != _TORUS:
        raise NotStandardTorus("free words need the standard torus triangulation")
    steps = _word_steps(w)
    return _length_from_paths(*_spine_product(S.shears, steps)[4:]) if steps else 0.0


def _fricke_step(tl: float, tr: float, d: float) -> float:
    """tr(l.r) from tr l, tr r and d = tr(l.r^-1), as the other root of
    z^2 - tl tr z + tl^2 + tr^2 = 0, in whichever form does not cancel."""
    p = tl * tr
    if abs(d) > 0.5 * abs(p):
        return (tl * tl + tr * tr) / d
    return p - d


def _shear_trace(xi: float, xj: float) -> tuple[float, float]:
    """(|tr|, length) of the curve that crosses the two edges with shears xi, xj
    of the standard torus, in cyclic order: |tr| = f(xi, xj) = e^u + e^v + e^-u
    with u = (xi + xj)/2 and v = (xj - xi)/2.

    The length comes from the excess |tr| - 2 = 4 sinh^2(u/2) + e^v, a sum of
    positive terms, as 4 asinh(sqrt(excess / 4)): it neither cancels nor
    underflows for a short curve.
    """
    u, v = (xi + xj) / 2.0, (xj - xi) / 2.0
    if abs(u) > _MAX_EXP or v > _MAX_EXP:
        raise NumericalOverflow(f"shears ({xi}, {xj}) give a trace that overflows a double")
    tr = math.exp(u) + math.exp(v) + math.exp(-u)
    if tr == math.inf:
        raise NumericalOverflow(f"shears ({xi}, {xj}) give a trace that overflows a double")
    return tr, 4.0 * math.asinh(math.hypot(math.sinh(u / 2.0), math.exp(v / 2.0) / 2.0))


def _root(X: ShearStructure | HolonomyRep) -> tuple[float, float, float, float, float, float]:
    """(tr a, tr b, tr ab, l_a, l_b, l_ab): traces and lengths of the three
    curves of the root Farey triangle {1/0, 0/1, 1/1}.

    A ShearStructure on the standard torus gives them in closed form from its
    shears (x0, x1, x2): |tr a| = f(x1, x2), |tr b| = f(x2, x0) and
    |tr ab| = f(x0, x1), with f as in `_shear_trace`.  A HolonomyRep (such as
    a twisted one, which has no shears) gives them from its matrices.
    """
    if isinstance(X, ShearStructure):
        if X.triangulation != _TORUS:
            raise NotStandardTorus("holonomy reps and slope lengths need the standard torus triangulation")
        x0, x1, x2 = X.shears
        (ta, la), (tb, lb), (tab, lab) = (
            _shear_trace(x1, x2), _shear_trace(x2, x0), _shear_trace(x0, x1)
        )
        return ta, tb, tab, la, lb, lab
    ta, tb, tab = X.trace_triple()
    if not abs(tab) < math.inf:
        raise NumericalOverflow(f"trace of ab is {tab}: it overflowed double precision")
    a, b = X.A.entries(), X.B.entries()
    return ta, tb, tab, _generator_length(a), _generator_length(b), _length_from_trace(tab)


def _underflow(p: int, q: int) -> NumericalOverflow:
    return NumericalOverflow(
        f"length of slope {p}/{q} underflows double precision: its trace rounds to 2"
    )


def slope_lengths(X: ShearStructure | HolonomyRep, N: int) -> dict[tuple[int, int], float]:
    """Length of every canonical slope (p, q) with |p| + |q| <= N, keyed by (p, q).

    X is a ShearStructure, whose root lengths and traces come from its shears
    in closed form, or a HolonomyRep (see `_root`).
    """
    if N < 1:
        raise ValueError("slope bound must be at least 1")
    ta, tb, tab, la, lb, lab = _root(X)
    out = {(1, 0): la, (0, 1): lb}
    if N >= 2:
        out[1, 1] = lab
    step, length = _fricke_step, _length_from_trace
    # nodes (l, r, tr l, tr r, tr l.r^-1): the p > 0 tree hangs below (1/0, 1/1)
    # and (1/1, 0/1), the p < 0 one below (a^-1, b), whose d is tr ab
    roots = (
        (1, [(1, 1, 0, 1, tab, tb, ta), (1, 0, 1, 1, ta, tab, tb)]),
        (-1, [(1, 0, 0, 1, ta, tb, tab)]),
    )
    for sign, stack in roots:
        pop, push = stack.pop, stack.append
        while stack:
            lp, lq, rp, rq, tl, tr, d = pop()
            mp, mq = lp + rp, lq + rq
            if mp + mq > N:
                continue
            tm = step(tl, tr, d)
            out[sign * mp, mq] = length(tm)
            push((mp, mq, rp, rq, tm, tr, tl))
            push((lp, lq, mp, mq, tl, tm, tr))
    if 0.0 in out.values():
        raise _underflow(*next(k for k, v in out.items() if v == 0.0))
    return out


def _farey_walk(tl: float, tr: float, tm: float, moves: list[bool]) -> tuple[float, float, float]:
    """(tr l, tr r, tr lr) of the Farey basis (l, r) that the moves of
    `farey_path` reach from a basis with traces (tl, tr, tm), by Fricke steps."""
    step = _fricke_step
    for left in moves:
        if left:
            tr, tm = tm, step(tl, tm, tr)
        else:
            tl, tm = tm, step(tm, tr, tl)
    return tl, tr, tm


def slope_length(X: ShearStructure | HolonomyRep, s: Slope) -> float:
    """Length of one slope, by the Fricke steps of `slope_lengths` along its
    `farey_path` from (a, b), or from (a^-1, b), with tr a^-1 b = step(tr a, tr b, tr ab)."""
    ta, tb, tab, la, lb, lab = _root(X)
    if s.q == 0:
        length = la
    elif s.p == 0:
        length = lb
    elif (s.p, s.q) == (1, 1):
        length = lab
    else:
        start = tab if s.p > 0 else _fricke_step(ta, tb, tab)
        length = _length_from_trace(_farey_walk(ta, tb, start, farey_path(abs(s.p), s.q))[2])
    if length == 0.0:
        raise _underflow(s.p, s.q)
    return length


def curve_length(S: ShearStructure, c: Curve) -> float:
    """Geodesic length of a curve class: translation length of its holonomy."""
    if isinstance(c, CombinatorialLoop):  # peripheral when it circles one puncture: all turns alike
        steps = _loop_steps(S.triangulation, c)
        peripheral = len({left for _, left in steps}) == 1
        return 0.0 if peripheral else _length_from_paths(*_spine_product(S.shears, steps)[4:])
    if isinstance(c, Slope):
        return slope_length(S, c)
    if isinstance(c, FreeWord):
        return word_length(S, c)
    raise TypeError(f"not a curve: {c!r}")


def stretch(S: ShearStructure, t: float) -> ShearStructure:
    """Scale every shear by exp(t); completeness is linear, so it is preserved."""
    factor = math.exp(t)
    return ShearStructure(S.triangulation, tuple(x * factor for x in S.shears))


# -- Fenchel-Nielsen twist in trace coordinates --------------------------------

def _axis_diagonal(x: float, y: float, z: float) -> tuple[float, float, float, float, float]:
    """(e, 1/e, e - 1/e, alpha, delta) for a basis (g, h) with tr g = x, tr h = y, tr gh = z.

    In the eigenframe of g, g = sign(x) diag(e, 1/e) with e = exp(L/2) > 1,
    and (alpha, delta) is the diagonal of h.  The linear system
    alpha + delta = y, e alpha + delta / e = sign(x) z gives the larger of
    the two, and alpha delta = coth^2(L/2) (commutator trace -2) the
    smaller, so neither is a difference of nearly equal numbers.
    """
    e, ei, sh = _axis_eigenvalues(x)
    v = z if x > 0.0 else -z
    alpha, delta = (v - y * ei) / sh, (y * e - v) / sh
    product = (abs(x) / sh) ** 2
    if abs(alpha) >= abs(delta):
        delta = product / alpha
    else:
        alpha = product / delta
    return e, ei, sh, alpha, delta


def _twist_pair(x: float, y: float, z: float, t: float) -> tuple[float, float]:
    """(tr h', tr gh') for h' = tau h, tau the translation by t along g's axis."""
    if abs(t) / 2.0 > _MAX_EXP:
        raise NumericalOverflow(f"twist {t} is too large: exp({t}/2) overflows a double")
    e, ei, _, alpha, delta = _axis_diagonal(x, y, z)
    et = math.exp(t / 2.0)
    alpha, delta = alpha * et, delta / et
    w = alpha * e + delta * ei
    return alpha + delta, (w if x > 0.0 else -w)


def _twisted_traces(x: float, y: float, z: float, s: Slope, t: float) -> tuple[float, float, float]:
    """(tr a, tr b, tr ab) after a twist by t along s, from (x, y, z) before it.

    The walk down the Stern-Brocot tree carries the traces (tr l, tr r,
    tr lr) of each Farey basis (l, r) on the path to s.  At the bottom the
    pair (s, right parent of s) is twisted in closed form; the walk back up
    recovers each parent from its child by the Fricke step, since the two
    roots of z^2 - tr X tr Y z + tr X^2 + tr Y^2 = 0 are tr XY and tr XY^-1.
    The bases below a^-1 = (-1,0), and (b, a), have the opposite orientation
    to (a, b), so the twist runs the other way in them.
    """
    step = _fricke_step
    if s.q == 0:
        y, z = _twist_pair(x, y, z, t)
        return x, y, z
    if s.p == 0:
        x, z = _twist_pair(y, x, z, -t)
        return x, y, z
    if s.p < 0:  # root (a^-1, b), whose product is a^-1 b
        z, t = step(x, y, z), -t
    moves = farey_path(abs(s.p), s.q)
    tl, tr, tm = _farey_walk(x, y, z, moves)
    if _length_from_trace(tm) == 0.0:  # the axis of s is lost, as in `slope_length`
        raise _underflow(s.p, s.q)
    x, y, z = tm, tr, step(tm, tr, tl)  # the basis (s, r) is the right child of (l, r)
    y, z = _twist_pair(x, y, z, t)
    moves.append(False)
    for left in reversed(moves):
        other = step(x, y, z)
        x, y, z = (x, other, y) if left else (other, y, x)
    return (x, y, step(x, y, z)) if s.p < 0 else (x, y, z)


def _normal_form(x: float, y: float, z: float, sign: float, what: str) -> HolonomyRep:
    """The rep with trace triple (x, y, z) whose A is diagonal (attracting
    eigenvalue first) and whose B is symmetric, with off-diagonal entries
    sign / sinh(l_a / 2).  Its orientation (`_orientation`) is -sign.

    The triple is that of a cusped torus, so |x|, |y| and |z| exceed 2: one
    that rounds to 2 (or is nan), an inf or nan entry, or a commutator that
    has lost its digits to the size of the traces is an overflow of `what`.
    """
    if not (abs(x) > 2.0 and abs(y) > 2.0 and abs(z) > 2.0):
        raise NumericalOverflow(
            f"{what} overflows double precision: the traces ({x}, {y}, {z}) do not all exceed 2"
        )
    e, ei, sh, alpha, delta = _axis_diagonal(x, y, z)
    beta = sign * 2.0 / sh
    a = (e, 0.0, 0.0, ei) if x > 0.0 else (-e, 0.0, 0.0, -ei)
    try:
        return HolonomyRep(IsometryMatrix(*a), IsometryMatrix(alpha, beta, beta, delta))
    except ValueError as exc:
        raise NumericalOverflow(f"{what} overflows double precision: {exc}") from None


def _orientation(H: HolonomyRep) -> float:
    """Sign of P.c - P.b for the commutator P = [A, B], which is parabolic:
    its direction of rotation, kept by conjugation in PSL(2, R)."""
    p = H.commutator()
    return math.copysign(1.0, p[2] - p[1])


def earthquake_twist(H: HolonomyRep, s: Slope, t: float) -> HolonomyRep:
    """Fenchel-Nielsen twist of distance t along the simple closed curve of slope s.

    The twisted trace triple comes from `_twisted_traces`, in doubles, and the
    result is its `_normal_form`, with the orientation of H.  So the result
    is a conjugate of the twisted representation, not a particular one:
    traces, lengths and the commutator are those of the twist.  Twisting
    back by -t returns H up to roundoff when H is in normal form, as every
    rep that the library builds is, and H's normal form otherwise.
    """
    if t == 0.0:
        return H
    x, y, z = _twisted_traces(*H.trace_triple(), s, t)
    return _normal_form(x, y, z, -_orientation(H), f"twist by {t} along {s.spec()}")


# -- transverse weights and the alternating-sum formula -----------------------

@dataclass(frozen=True, slots=True)
class TransverseWeights:
    """Total transverse measure of a foliation across each edge, nonnegative."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(w < 0.0 or not math.isfinite(w) for w in self.weights):
            raise ValueError("transverse weights must be finite and nonnegative")


def transverse_slope_weights(s: Slope) -> TransverseWeights:
    """Transverse measure of the slope curve across the standard torus edges."""
    return TransverseWeights((abs(s.q), abs(s.p), abs(s.p - s.q)))


def shear_from_transverse(T: IdealTriangulation, w) -> tuple[float, ...]:
    """Shears of the foliation with the given edge weights: for each edge, half
    the alternating sum of the weights on the sides of the gluing quadrilateral.

    The quadrilateral sides are read counterclockwise starting after the edge
    in its first triangle; sides glued to each other are counted with
    multiplicity.
    """
    weights = w.weights if isinstance(w, TransverseWeights) else TransverseWeights(tuple(w)).weights
    if len(weights) != T.num_edges:
        raise ValueError(f"need {T.num_edges} weights, got {len(weights)}")
    shears = []
    for e in range(T.num_edges):
        (t1, s1), (t2, s2) = T.edge_sides(e)
        quad = (
            (t1, (s1 + 1) % 3),
            (t1, (s1 + 2) % 3),
            (t2, (s2 + 1) % 3),
            (t2, (s2 + 2) % 3),
        )
        sides = [T.edge_index(t, s) for t, s in quad]
        if e in sides:
            raise DegeneratePolygon(f"edge e{e} appears on its own gluing quadrilateral")
        w1, w2, w3, w4 = (weights[k] for k in sides)
        shears.append(0.5 * (w1 - w2 + w3 - w4))
    return tuple(shears)


# -- completeness hyperplane ---------------------------------------------------

@lru_cache(maxsize=None)
def completeness_basis(T: IdealTriangulation) -> tuple[tuple[float, ...], ...]:
    """Deterministic orthonormal basis of the completeness hyperplane.

    Constructed by Gram-Schmidt on the coordinate directions projected off the
    puncture constraint vectors, in index order.
    """
    E = T.num_edges
    constraints: list[list[float]] = []
    for orbit in T.vertex_classes():
        row = [0.0] * E
        for t, s in orbit:
            row[T.edge_index(t, (s + 1) % 3)] += 1.0
        constraints.append(row)

    def _norm(v):
        return math.sqrt(math.fsum(x * x for x in v))

    def _project_off(v, basis):
        for u in basis:
            dot = math.fsum(vi * ui for vi, ui in zip(v, u))
            v = [vi - dot * ui for vi, ui in zip(v, u)]
        return v

    ortho_constraints: list[list[float]] = []
    for row in constraints:
        row = _project_off(row, ortho_constraints)
        n = _norm(row)
        if n > 1e-12:
            ortho_constraints.append([x / n for x in row])

    basis: list[tuple[float, ...]] = []
    for i in range(E):
        v = [0.0] * E
        v[i] = 1.0
        v = _project_off(v, ortho_constraints)
        v = _project_off(v, basis)
        n = _norm(v)
        if n > 1e-10:
            basis.append(tuple(x / n for x in v))
    return tuple(basis)


def shears_from_coefficients(T: IdealTriangulation, coeffs) -> tuple[float, ...]:
    """Shear vector with the given components in the completeness basis."""
    basis = completeness_basis(T)
    if len(coeffs) != len(basis):
        raise ValueError(f"need {len(basis)} coefficients, got {len(coeffs)}")
    E = T.num_edges
    out = [0.0] * E
    for c, u in zip(coeffs, basis):
        for k in range(E):
            out[k] += c * u[k]
    return tuple(out)
