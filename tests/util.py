"""Shared helpers for the test suite."""

import math
import random

from stretchlab import ShearStructure, shears_from_coefficients, standard_torus_triangulation

TORUS = standard_torus_triangulation()


def random_complete(rng: random.Random, scale: float = 1.5) -> ShearStructure:
    """Random point on the completeness hyperplane of the standard torus."""
    coeffs = (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
    return ShearStructure(TORUS, shears_from_coefficients(TORUS, coeffs))


def sphere3_triangulation():
    """Two triangles glued into the thrice-punctured sphere."""
    from stretchlab import IdealTriangulation

    pairs = {(0, 0): (1, 0), (0, 1): (1, 2), (0, 2): (1, 1)}
    table = [0] * 6
    for (t, s), (u, r) in pairs.items():
        table[3 * t + s] = 3 * u + r
        table[3 * u + r] = 3 * t + s
    return IdealTriangulation(2, tuple(table))


def folded_sphere3_triangulation():
    """Triangulation with a self-adjacent triangle: sides 1 and 2 of triangle 0
    are glued to each other, so edge e1 lies on its own gluing quadrilateral."""
    from stretchlab import IdealTriangulation

    pairs = {(0, 0): (1, 0), (0, 1): (0, 2), (1, 1): (1, 2)}
    table = [0] * 6
    for (t, s), (u, r) in pairs.items():
        table[3 * t + s] = 3 * u + r
        table[3 * u + r] = 3 * t + s
    return IdealTriangulation(2, tuple(table))


def _oracle_generators(ctx, shears):
    """A and B on the standard torus in the mpmath context ctx, as products of
    the documented edge and turn matrices (E(x) = [[0, e^(x/2)], [-e^(-x/2), 0]],
    L, R), the edge-matrix holonomy of the slope 1/0 and 0/1 loops."""

    def edge(x):
        e = ctx.exp(ctx.mpf(x) / 2)
        return ctx.matrix([[0, e], [-1 / e, 0]])

    L = ctx.matrix([[1, 1], [-1, 0]])
    R = ctx.matrix([[0, -1], [1, 1]])
    e0, e1, e2 = (edge(x) for x in shears)
    return e1 * L * e2 * R, L * (e2 * L * e0 * R) * L ** -1


def _oracle_lengths(traces: dict) -> dict:
    """2 acosh(|t|/2) = 4 asinh(sqrt((|t| - 2)/4)) per trace t, with |t| - 2
    taken at the precision of t."""
    import mpmath

    low = mpmath.mp.clone()
    low.dps = 30
    return {k: float(4 * low.asinh(low.sqrt(low.mpf(abs(t) - 2) / 4))) for k, t in traces.items()}


def oracle_slope_lengths(shears, N: int) -> dict:
    """Lengths of all slopes with |p|+|q| <= N on the standard torus, in mpmath.

    The generators' matrices come from `_oracle_generators`, and the other
    traces from the exact Fricke recursion tr(l.r) = tr l tr r - tr(l.r^-1)
    down the Stern-Brocot tree.  The precision covers the digits that cancel
    in the matrix products and in the recursion: about N (max|x| + 2) / ln 10
    of them.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 60 + int(N * (max(abs(x) for x in shears) + 2.0) / math.log(10.0))
    A, B = _oracle_generators(ctx, shears)
    ta, tb, tab = (m[0, 0] + m[1, 1] for m in (A, B, A * B))
    traces = {(1, 0): ta, (0, 1): tb}
    for sign, d in ((1, ta * tb - tab), (-1, tab)):
        stack = [(1, 0, 0, 1, ta, tb, d)]
        while stack:
            lp, lq, rp, rq, tl, tr, d = stack.pop()
            mp, mq = lp + rp, lq + rq
            if mp + mq > N:
                continue
            tm = tl * tr - d
            traces[sign * mp, mq] = tm
            stack.append((mp, mq, rp, rq, tm, tr, tl))
            stack.append((lp, lq, mp, mq, tl, tm, tr))
    return _oracle_lengths(traces)


def oracle_word_lengths(shears, words) -> dict:
    """Lengths of free words (strings over a, b, A, B) on the standard torus,
    from mpmath products of the `_oracle_generators` matrices, keyed by word.
    The precision covers the digits that cancel in a product of n letters:
    about n (max|x| + 2) / ln 10 of them."""
    import mpmath

    ctx = mpmath.mp.clone()
    n = max(len(w) for w in words)
    ctx.dps = 60 + int(n * (max(abs(x) for x in shears) + 2.0) / math.log(10.0))
    A, B = _oracle_generators(ctx, shears)
    table = {"a": A, "b": B, "A": A ** -1, "B": B ** -1}
    traces = {}
    for w in words:
        m = ctx.eye(2)
        for ch in w:
            m = m * table[ch]
        traces[w] = m[0, 0] + m[1, 1]
    return _oracle_lengths(traces)
