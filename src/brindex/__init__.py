"""Exact local invariants of 1-forms along hypersurface singularities.

Everything is computed over the rationals: sparse polynomials with Fraction
coefficients, local standard bases for colengths, and the indices built from
them (Milnor, Tjurina, GSV, Bruce-Roberts and its relative version, radial
index, Euler obstruction, tangency order), plus quadratic blow-ups and the
global check on the projective plane.
"""

from .config import Limits, get_limits, reset_limits, set_limits
from .errors import (
    BrindexError,
    ComputationError,
    ExprParseError,
    InvariantCurveError,
    IrrationalPointError,
    NonIsolatedError,
    NotTangentError,
    ResourceLimitError,
    SessionError,
    UnsupportedError,
)
from .invariants import (
    HypersurfaceGerm,
    InvariantReport,
    LocalPair,
    ThetaGenerators,
    br_function,
    bruce_roberts_user_theta,
    gsv_hyp,
    gsv_icis,
    icis_pair_milnor,
    intersection_mult,
    is_invariant,
    milnor_form,
    milnor_hyp,
    tjurina,
)
from .foliation import (
    Parametrization,
    PlaneFoliation,
    blowup,
    generalized_curve_check,
    order_pullback,
    strict_transform_curve,
    verify_blowup_formula,
)
from .localalg import LocalIdeal, colength, colength_oracle
from .parsing import parse_form, parse_poly
from .poly import MPoly, OneForm, Ring, ring
from .projective import (
    ProjectiveCurve,
    ProjectiveFoliation,
    foliation_milnor_sum,
    global_br_check,
)

__version__ = "0.1.0"
