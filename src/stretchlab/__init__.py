"""Asymmetric length-ratio metric on Teichmueller space, at desk scale.

Shear-coordinate hyperbolic structures on cusped surfaces, holonomy lengths
of closed curves, stretch and twist deformations, train tracks, and sweep
estimation of the minimal-Lipschitz metric K(g, h).
"""

from .errors import (
    DegeneratePolygon,
    EllipticHolonomy,
    IncompatibleLoop,
    NoProgress,
    NotHyperbolic,
    NotStandardTorus,
    NumericalOverflow,
    OutsideTriangle,
    StretchlabError,
    ZeroLength,
)
from .hypgeom import (
    HPoint,
    IsometryClass,
    IsometryKind,
    IsometryMatrix,
    apply,
    axis_translation,
    classify,
    compose,
    hyp_distance,
    stretch_triangle_map,
)
from .surface import (
    CombinatorialLoop,
    Curve,
    FreeWord,
    IdealTriangulation,
    Slope,
    Turn,
    enumerate_conjugacy_classes,
    enumerate_slopes,
    geometric_intersection,
    puncture_loops,
    slope_word,
    standard_torus_triangulation,
)
from .shear import (
    HolonomyRep,
    TransverseWeights,
    ShearStructure,
    completeness_basis,
    curve_length,
    earthquake_twist,
    holonomy_of_loop,
    shear_from_transverse,
    shear_to_holonomy_rep,
    shears_from_coefficients,
    slope_length,
    slope_lengths,
    stretch,
    transverse_slope_weights,
    word_length,
)
from .traintrack import (TrainTrack, WeightVector, carries_positive, cone_dimension, is_recurrent, switch_matrix,
                         weight_cone_basis)
from .metric import (
    RatioReport,
    TangentCovector,
    antisymmetry_residual,
    asymmetry_probe,
    convex_cloud,
    grad_log_length,
    k_estimate,
    k_lower_bound,
    stretch_march,
)

__version__ = "0.1.0"
