"""Exception types shared across the package."""


class StretchlabError(Exception):
    """Base class for all stretchlab-specific errors."""


class NotHyperbolic(StretchlabError):
    """An operation requiring a hyperbolic isometry got something else."""


class OutsideTriangle(StretchlabError):
    """Point is not inside the closed ideal triangle with vertices 0, 1, oo."""


class IncompatibleLoop(StretchlabError):
    """Combinatorial loop steps do not close up against the gluing table."""


class EllipticHolonomy(StretchlabError):
    """Holonomy of a curve came out elliptic; the structure is invalid."""


class NotStandardTorus(StretchlabError):
    """Operation is only defined on the standard once-punctured-torus triangulation."""


class NumericalOverflow(StretchlabError):
    """A shear, a holonomy product or a holonomy trace lies beyond double precision,
    so no finite length can be given."""


class ZeroLength(StretchlabError):
    """Curve has zero length (puncture-parallel class) where positive length is required."""


class NoProgress(StretchlabError):
    """Descent march stalled: the length-ratio bound stopped decreasing."""


class DegeneratePolygon(StretchlabError):
    """Edge whose gluing polygon degenerates (the edge appears on its own quadrilateral)."""
