"""Planar hyperbolic geometry kernel.

Isometries of the upper half-plane as projective 2x2 real matrices of
determinant one, trace classification, the hyperbolic metric, and the
Lipschitz self-map of an ideal triangle that expands its sides by a
constant factor.

It is also the one home of the package's trace kernel: the tuple 2x2 algebra,
the rules from a trace (with its parabolic tolerance) and from the paths of a
nonnegative product to a length, and the eigenvalues of a hyperbolic element.

All lengths and distances are in natural hyperbolic units (curvature -1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import EllipticHolonomy, NotHyperbolic, NumericalOverflow, OutsideTriangle

_SIGN_EPS = 1e-12
_PARABOLIC_TOL = 1e-9
_IDENTITY_TOL = 1e-12

Mat = tuple[float, float, float, float]


def _mul(m: Mat, n: Mat) -> Mat:
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _inv(m: Mat) -> Mat:
    return (m[3], -m[1], -m[2], m[0])


def _length_from_trace(tr: float, err: float = 0.0) -> float:
    """Translation length 2 acosh(|tr|/2); 0 for |tr| within _PARABOLIC_TOL of 2.

    A nonzero `err` is the rounding error of `tr` (the exact trace is
    tr + err).  A trace near 2 then gives its length as 4 asinh(sqrt(e/4))
    with e = |tr| - 2 + sign(tr) err, which keeps digits that the rounding of
    tr would lose: a pinched curve of length l has |tr| - 2 ~ l^2/4.
    """
    t = abs(tr)
    if not t < math.inf:
        raise NumericalOverflow(f"holonomy trace is {tr}: it overflowed double precision")
    if t <= 2.0 + _PARABOLIC_TOL:
        if t < 2.0 - _PARABOLIC_TOL:
            raise EllipticHolonomy(f"elliptic holonomy, |trace| = {t}")
        return 0.0
    if err and t <= 4.0:  # t - 2 is exact here
        return 4.0 * math.asinh(math.sqrt(((t - 2.0) + (err if tr > 0.0 else -err)) / 4.0))
    return 2.0 * math.acosh(t / 2.0)


def _length_from_paths(s: float, r: float, lost: float | None) -> float:
    """Length 4 asinh(sqrt(x) / 2) of a product of nonnegative det-1 factors D(x_k) U_k, from
    x = tr - 2 = 4 sinh^2(s/4) + r: the diagonal path adds e^(s/2) + e^(-s/2), s = sum x_k, and
    the other paths r > 0.  If r may have lost eps e^lost to underflow, x <= e^lost underflows."""
    y = math.hypot(math.sinh(s / 4.0), math.sqrt(r) / 2.0)
    if lost is not None and not (y > 0.0 and 2.0 * math.log(2.0 * y) > lost):
        raise NumericalOverflow("length underflows double precision: so may its holonomy")
    return 4.0 * math.asinh(y)


def _axis_eigenvalues(x: float) -> tuple[float, float, float]:
    """(e, 1/e, e - 1/e) for e = exp(L/2), L the translation length of trace x.

    e - 1/e = 2 sinh(L/2) is taken from the trace, since the difference of
    e and 1/e cancels for a short axis.
    """
    ax = abs(x)
    if not ax > 2.0:
        raise NotHyperbolic(f"axis is not hyperbolic, trace {x}")
    sh = math.sqrt((ax - 2.0) * (ax + 2.0))
    return (ax + sh) / 2.0, 2.0 / (ax + sh), sh


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
        return IsometryMatrix(*_inv(self.entries()))

    def entries(self) -> Mat:
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
    return IsometryMatrix(*_mul(m.entries(), n.entries()))


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
    return IsometryClass(IsometryKind.HYPERBOLIC, _length_from_trace(t))


def apply(m: IsometryMatrix, p: HPoint) -> HPoint:
    z = complex(p.x, p.y)
    w = (m.a * z + m.b) / (m.c * z + m.d)
    return HPoint(w.real, w.imag)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """2 asinh(|p - q| / (2 sqrt(y_p y_q))): a short distance keeps its digits."""
    return 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y) / (2.0 * math.sqrt(p.y) * math.sqrt(q.y)))


def axis_translation(m: IsometryMatrix, t: float) -> IsometryMatrix:
    """Isometry sharing axis and fixed points with m, translating |t| (sign follows m's direction)."""
    if classify(m).kind is not IsometryKind.HYPERBOLIC:
        raise NotHyperbolic(f"axis_translation needs a hyperbolic isometry, trace is {m.trace}")
    a, b, c, d = m.entries()
    if a + d < 0.0:
        a, b, c, d = -a, -b, -c, -d
    _, mu, gap = _axis_eigenvalues(a + d)  # mu = 1/lam and gap = lam - mu, lam > 1
    # spectral projector onto the attracting eigenline: (M - mu I) / (lam - mu)
    s = 1.0 / gap
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
