"""Domination certificates for compact sets of invertible matrices.

Two independent detection routes: uniform exponential decay of
singular-value gap ratios over word products, and construction of strictly
invariant multicones in the Grassmannian.  A closed-form 4-dimensional
two-curve family ships as the worked example where every multicone fails
local semiconvexity.
"""

from .errors import (
    ConditioningError,
    DomsplitError,
    IllDefinedSplittingError,
    MulticoneConstructionError,
    NumericalError,
    SingularMatrixError,
)
from .grassmann import ConeSample, Plane, act, grass_distance, transverse
from .linalg import (
    SingularSpectrum,
    conorm,
    cross_ratio,
    exterior_norm,
    gap_ratio,
    operator_norm,
    principal_angles,
    singular_spectrum,
)
from .multicone import Multicone, build_multicone, strictly_invariant
from .splitting import SplittingEstimate, splitting_from_window, verify_domination
from .words import (
    GapReport,
    MatrixFamily,
    SearchConfig,
    Verdict,
    enumerate_gaps,
    fit_decay,
    is_dominated,
)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    "ConeSample",
    "DomsplitError",
    "GapReport",
    "IllDefinedSplittingError",
    "MatrixFamily",
    "Multicone",
    "MulticoneConstructionError",
    "NumericalError",
    "Plane",
    "SearchConfig",
    "SingularMatrixError",
    "SingularSpectrum",
    "SplittingEstimate",
    "Verdict",
    "act",
    "build_multicone",
    "conorm",
    "cross_ratio",
    "enumerate_gaps",
    "exterior_norm",
    "fit_decay",
    "gap_ratio",
    "grass_distance",
    "is_dominated",
    "operator_norm",
    "principal_angles",
    "singular_spectrum",
    "splitting_from_window",
    "strictly_invariant",
    "transverse",
    "verify_domination",
]
