"""curvekit: plane-curve geometry through complex numbers.

Polar curves r = f(theta) as sets of complex points f(theta)*e^(i*theta):
intersection solving, symmetry and period analysis, region areas, and the
trajectories of circles rolling without slipping along parameterized curves
(cycloids, epicycloids, hypocycloids and their generalizations).
"""

from .area import (
    LimaconAnalysis,
    SectorRegion,
    limacon_analysis,
    limacon_common_area,
    loop_area,
    region_intersection_area,
    rose_intersection_area,
)
from .expr import (
    DifferentiationError,
    EvalError,
    ExprError,
    ExprSyntaxError,
    compile_program,
    differentiate,
    evaluate,
    parse,
    to_string,
)
from .intersect import (
    IdenticalCurvesError,
    IntersectionPoint,
    IntersectionResult,
    intersections,
    origin_on_curve,
)
from .numerics import RootList, find_roots, integrate
from .polar import (
    Piece,
    PolarCurve,
    is_reflection_symmetric,
    is_rotation_symmetric,
    positive_pieces,
)
from .roulette import (
    ParamCurve,
    RegularityError,
    RollConfig,
    RollState,
    arc_length,
    circle,
    ellipse,
    limacon,
    line,
    roll_state,
    trace,
)

__version__ = "0.1.0"

__all__ = [
    "LimaconAnalysis",
    "SectorRegion",
    "limacon_analysis",
    "limacon_common_area",
    "loop_area",
    "region_intersection_area",
    "rose_intersection_area",
    "DifferentiationError",
    "EvalError",
    "ExprError",
    "ExprSyntaxError",
    "compile_program",
    "differentiate",
    "evaluate",
    "parse",
    "to_string",
    "IdenticalCurvesError",
    "IntersectionPoint",
    "IntersectionResult",
    "intersections",
    "origin_on_curve",
    "RootList",
    "find_roots",
    "integrate",
    "Piece",
    "PolarCurve",
    "is_reflection_symmetric",
    "is_rotation_symmetric",
    "positive_pieces",
    "ParamCurve",
    "RegularityError",
    "RollConfig",
    "RollState",
    "arc_length",
    "circle",
    "ellipse",
    "limacon",
    "line",
    "roll_state",
    "trace",
    "__version__",
]
