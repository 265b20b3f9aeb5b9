"""Planar hyperbolic geometry kernel.

Isometries of the upper half-plane as projective 2x2 real matrices of
determinant one, trace classification, the hyperbolic metric, and the
Lipschitz self-map of an ideal triangle that expands its sides by a
constant factor.

All lengths and distances are in natural hyperbolic units (curvature -1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import NotHyperbolic, OutsideTriangle

_SIGN_EPS = 1e-12
_PARABOLIC_TOL = 1e-9
_IDENTITY_TOL = 1e-12


def _normalize(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """Scale to determinant one and canonical projective sign.

    A determinant within its own rounding error of one is taken as one: the
    rescale would move every entry, and so the trace, by that error.
    """
    ad, bc = a * d, b * c
    det = ad - bc
    if not det > 0.0 or not math.isfinite(det):
        raise ValueError(f"matrix determinant must be positive and finite, got {det}")
    if abs(det - 1.0) > 4.0 * sys.float_info.epsilon * max(abs(ad), abs(bc)):
        s = 1.0 / math.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
    for entry in (a, b, c, d):
        if abs(entry) > _SIGN_EPS:
            if entry < 0.0:
                a, b, c, d = -a, -b, -c, -d
            break
    return a, b, c, d


@dataclass(frozen=True, slots=True)
class IsometryMatrix:
    """Element of PSL(2, R): det-1 representative with the first significant entry positive."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = _normalize(self.a, self.b, self.c, self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "IsometryMatrix":
        return IsometryMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = IsometryMatrix(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class HPoint:
    """Point of the upper half-plane model."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError(f"upper half-plane point needs y > 0, got y = {self.y}")


class IsometryKind(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True, slots=True)
class IsometryClass:
    kind: IsometryKind
    translation_length: float = 0.0


def compose(m: IsometryMatrix, n: IsometryMatrix) -> IsometryMatrix:
    return IsometryMatrix(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def classify(m: IsometryMatrix) -> IsometryClass:
    if (
        abs(abs(m.a) - 1.0) <= _IDENTITY_TOL
        and abs(abs(m.d) - 1.0) <= _IDENTITY_TOL
        and abs(m.b) <= _IDENTITY_TOL
        and abs(m.c) <= _IDENTITY_TOL
        and abs(m.a - m.d) <= 2 * _IDENTITY_TOL
    ):
        return IsometryClass(IsometryKind.IDENTITY)
    t = abs(m.trace)
    if abs(t - 2.0) <= _PARABOLIC_TOL:
        return IsometryClass(IsometryKind.PARABOLIC)
    if t < 2.0:
        return IsometryClass(IsometryKind.ELLIPTIC)
    return IsometryClass(IsometryKind.HYPERBOLIC, 2.0 * math.acosh(t / 2.0))


def translation_length(m: IsometryMatrix) -> float:
    """Translation length of a hyperbolic isometry, 0 for parabolic/identity."""
    cls = classify(m)
    if cls.kind is IsometryKind.ELLIPTIC:
        raise NotHyperbolic(f"elliptic isometry has no translation length (trace {m.trace})")
    return cls.translation_length


def apply(m: IsometryMatrix, p: HPoint) -> HPoint:
    z = complex(p.x, p.y)
    w = (m.a * z + m.b) / (m.c * z + m.d)
    return HPoint(w.real, w.imag)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    u = 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)
    return math.acosh(max(u, 1.0))


def axis_translation(m: IsometryMatrix, t: float) -> IsometryMatrix:
    """Isometry sharing axis and fixed points with m, translating |t| (sign follows m's direction)."""
    if classify(m).kind is not IsometryKind.HYPERBOLIC:
        raise NotHyperbolic(f"axis_translation needs a hyperbolic isometry, trace is {m.trace}")
    a, b, c, d = m.entries()
    if a + d < 0.0:
        a, b, c, d = -a, -b, -c, -d
    tr = a + d
    root = math.sqrt(tr * tr - 4.0)
    lam = (tr + root) / 2.0  # attracting eigenvalue, > 1
    mu = (tr - root) / 2.0
    # spectral projector onto the attracting eigenline: (M - mu I) / (lam - mu)
    s = 1.0 / (lam - mu)
    pa, pb, pc, pd = (a - mu) * s, b * s, c * s, (d - mu) * s
    eplus = math.exp(t / 2.0)
    eminus = math.exp(-t / 2.0)
    return IsometryMatrix(
        eplus * pa + eminus * (1.0 - pa),
        (eplus - eminus) * pb,
        (eplus - eminus) * pc,
        eplus * pd + eminus * (1.0 - pd),
    )


# --- the side-expanding self-map of the ideal triangle (0, 1, oo) ---
#
# Corner horocycles are the symmetric pairwise-tangent triple: the line y = 1
# at oo and the circles of Euclidean diameter 1 tangent at 0 and 1.  The
# region between them is fixed pointwise; the corner at v maps the horocycle
# at distance s from the central region to the one at distance K*s, linearly
# in horocyclic arc length.  In the oo-corner this is (x, y) |-> (x, y**K);
# the other corners are conjugates under the order-3 rotation z |-> 1/(1-z).

_ROT = (0.0, 1.0, -1.0, 1.0)  # 0 -> 1 -> oo -> 0
_TRIANGLE_TOL = 1e-12


def _mobius(mat: tuple[float, float, float, float], z: complex) -> complex:
    a, b, c, d = mat
    return (a * z + b) / (c * z + d)


_ROT2 = (-1.0, 1.0, -1.0, 0.0)  # _ROT applied twice: 0 -> oo
_ROT_INV = (1.0, -1.0, 1.0, 0.0)
_ROT2_INV = (0.0, -1.0, 1.0, -1.0)


def in_ideal_triangle(p: HPoint, tol: float = _TRIANGLE_TOL) -> bool:
    """Closed ideal triangle with vertices 0, 1, oo."""
    if p.x < -tol or p.x > 1.0 + tol:
        return False
    # above the geodesic 0--1, the semicircle |z - 1/2| = 1/2
    return (p.x - 0.5) ** 2 + p.y**2 >= 0.25 - tol


def stretch_triangle_map(p: HPoint, K: float) -> HPoint:
    if K < 1.0:
        raise ValueError(f"stretch factor must satisfy K >= 1, got {K}")
    if not in_ideal_triangle(p):
        raise OutsideTriangle(f"({p.x}, {p.y}) is outside the ideal triangle (0, 1, oo)")
    if K == 1.0:
        return p
    z = complex(p.x, p.y)
    if p.y >= 1.0:  # oo-corner
        w = complex(z.real, z.imag**K)
    elif p.x * p.x + p.y * p.y <= p.y:  # 0-corner: inside |z - i/2| <= 1/2
        u = _mobius(_ROT2, z)
        u = complex(u.real, u.imag**K)
        w = _mobius(_ROT2_INV, u)
    elif (p.x - 1.0) ** 2 + p.y * p.y <= p.y:  # 1-corner
        u = _mobius(_ROT, z)
        u = complex(u.real, u.imag**K)
        w = _mobius(_ROT_INV, u)
    else:  # central region, fixed pointwise
        w = z
    return HPoint(w.real, w.imag)
