"""Independent 50-digit oracle for geodesic lengths on the once-punctured torus.

This module shares no code with stretchlab.  It builds the two holonomy
generators from the shears with the convention written in README.md, at 50
significant digits in a private mpmath context (the global ``mpmath.mp``
that stretchlab uses is never touched).  Slope traces come from the
Fricke/Farey recursion

    tr(l.r) = tr(l) tr(r) - tr(l.r^-1)

down the Stern-Brocot tree, and the traces of other words from direct matrix
products.  Lengths are 2 acosh(|tr| / 2).

Every function takes an arithmetic context: ``MP`` (50 digits) for checks,
``FLOAT`` (doubles) only where the benchmark calibrates its own inputs.
"""

from __future__ import annotations

import functools
import math

from mpmath.ctx_mp import MPContext

DIGITS = 50

MP = MPContext()
MP.dps = DIGITS


class _FloatContext:
    """Double-precision stand-in for the mpmath context (input calibration only)."""

    mpf = float
    exp = staticmethod(math.exp)
    acosh = staticmethod(math.acosh)
    log = staticmethod(math.log)
    sqrt = staticmethod(math.sqrt)


FLOAT = _FloatContext()

# [[a, b], [c, d]] as (a, b, c, d); all matrices have determinant one.
_L = (1, 1, -1, 0)
_R = (0, -1, 1, 1)  # also the inverse of _L


def _mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _inv(m):
    return (m[3], -m[1], -m[2], m[0])


def _product(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = _mul(out, m)
    return out


def generators(shears, ctx=MP):
    """Holonomy of the slope 1/0 and 0/1 loops of the standard torus triangulation.

    With E(x) = [[0, e^(x/2)], [-e^(-x/2), 0]], L = [[1, 1], [-1, 0]] and
    R = [[0, -1], [1, 1]] = L^-1, shears (x0, x1, x2) give

        A = E(x1) L E(x2) R
        B = L E(x2) L E(x0) R L^-1
    """
    x0, x1, x2 = (ctx.mpf(x) for x in shears)

    def edge(x):
        e = ctx.exp(x / 2)
        return (0, e, -1 / e, 0)

    a = _product(edge(x1), _L, edge(x2), _R)
    b = _product(_L, edge(x2), _L, edge(x0), _R, _R)
    return a, b


def from_entries(a_entries, b_entries, ctx=MP):
    """Generators given as double entries (a, b, c, d), lifted exactly to the context."""
    return Holonomy(tuple(ctx.mpf(x) for x in a_entries), tuple(ctx.mpf(x) for x in b_entries))


def trace(m):
    return m[0] + m[3]


def word_trace(a, b, letters: str):
    """Trace of a word over a, b, A = a^-1, B = b^-1 by direct products."""
    table = {"a": a, "b": b, "A": _inv(a), "B": _inv(b)}
    m = (1, 0, 0, 1)
    for ch in letters:
        m = _mul(m, table[ch])
    return trace(m)


def commutator_trace(a, b):
    return word_trace(a, b, "abAB")


def length_from_trace(tr, ctx=MP):
    t = abs(tr)
    if not t > 2:
        raise ValueError(f"trace {t} is not hyperbolic")
    return 2 * ctx.acosh(t / 2)


class Holonomy:
    """The two generators of a punctured-torus group, with their Farey-tree roots."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        ta, tb = trace(a), trace(b)
        # Slopes p/q with p >= 0 lie between 1/0 (word a) and 0/1 (word b);
        # slopes with p < 0 between -1/0 (word a^-1) and 0/1.  A root is
        # (left, right, tr left, tr right, tr(left.right^-1)).
        self.roots = (
            ((1, 0), (0, 1), ta, tb, word_trace(a, b, "aB")),
            ((-1, 0), (0, 1), ta, tb, word_trace(a, b, "ab")),
        )

    @classmethod
    def from_shears(cls, shears, ctx=MP):
        return cls(*generators(shears, ctx))

    def slope_traces(self, n: int) -> dict:
        """Trace of every canonical coprime slope (p, q) with |p| + |q| <= n."""
        out = {(1, 0): trace(self.a), (0, 1): trace(self.b)}
        for root in self.roots:
            stack = [root]
            while stack:
                lv, rv, tl, tr_, d = stack.pop()
                mv = (lv[0] + rv[0], lv[1] + rv[1])
                if abs(mv[0]) + mv[1] > n:
                    continue
                tm = tl * tr_ - d
                out[mv] = tm
                stack.append((lv, mv, tl, tm, tr_))
                stack.append((mv, rv, tm, tr_, tl))
        return out

    def slope_trace(self, p: int, q: int):
        """Trace of the single slope (p, q), walking the Stern-Brocot tree to it."""
        if (p, q) == (1, 0):
            return trace(self.a)
        if (p, q) == (0, 1):
            return trace(self.b)
        if q <= 0 or math.gcd(abs(p), q) != 1:
            raise ValueError(f"({p}, {q}) is not a canonical coprime slope")
        lv, rv, tl, tr_, d = self.roots[0 if p > 0 else 1]
        orientation = lv[0] * rv[1] - lv[1] * rv[0]
        while True:
            mv = (lv[0] + rv[0], lv[1] + rv[1])
            tm = tl * tr_ - d
            if mv == (p, q):
                return tm
            if (mv[0] * q - mv[1] * p) * orientation > 0:  # target lies on the right side
                lv, tl, d = mv, tm, tl
            else:
                rv, tr_, d = mv, tm, tr_

    def slope_length(self, p: int, q: int, ctx=MP):
        return length_from_trace(self.slope_trace(p, q), ctx)


def slope_length(shears, p: int, q: int, ctx=MP):
    return Holonomy.from_shears(shears, ctx).slope_length(p, q, ctx)


@functools.lru_cache(maxsize=None)
def slope_count(n: int) -> int:
    """Number of canonical coprime slopes with |p| + |q| <= n (q > 0, or the slope 1/0)."""
    return 1 + sum(
        1 for q in range(1, n + 1) for p in range(q - n, n - q + 1) if math.gcd(abs(p), q) == 1
    )


def k_over_slopes(g_shears, h_shears, n: int, ctx=MP):
    """max over slopes with |p| + |q| <= n of log(len_h / len_g)."""
    tg = Holonomy.from_shears(g_shears, ctx).slope_traces(n)
    th = Holonomy.from_shears(h_shears, ctx).slope_traces(n)
    return max(
        ctx.log(length_from_trace(th[s], ctx) / length_from_trace(tg[s], ctx)) for s in tg
    )


# Orthonormal basis of the completeness plane x0 + x1 + x2 = 0, by Gram-Schmidt
# on the coordinate directions in index order.
def completeness_basis(ctx=MP):
    s6, s2 = ctx.sqrt(6), ctx.sqrt(2)
    return ((2 / s6, -1 / s6, -1 / s6), (ctx.mpf(0), 1 / s2, -1 / s2))


def grad_log_length(shears, p: int, q: int, ctx=MP):
    """Directional derivatives of log len(p/q) along the completeness basis.

    Central differences with step 1e-20 at 50 digits: truncation ~1e-40 and
    rounding ~1e-30, far below the double precision being checked.
    """
    h = ctx.mpf("1e-20")
    base = [ctx.mpf(x) for x in shears]
    out = []
    for u in completeness_basis(ctx):
        plus = [x + h * ui for x, ui in zip(base, u)]
        minus = [x - h * ui for x, ui in zip(base, u)]
        lp = ctx.log(slope_length(plus, p, q, ctx))
        lm = ctx.log(slope_length(minus, p, q, ctx))
        out.append((lp - lm) / (2 * h))
    return tuple(out)
