"""Free holomorphic functions on matrix tuples.

Evaluation of free polynomials and rational expressions at every matrix
level, membership in basic free open sets, transfer-function realizations
with certified series evaluation, isometry fitting from finite sample data,
certified polynomial approximation, and explicit inversion certificates.
"""

from .errors import (
    BelowFloor,
    DimensionTooSmall,
    ExprSyntaxError,
    FreeholoError,
    GramMismatch,
    NoCover,
    NotInvertible,
    NotPolynomial,
    OutsideDomain,
    RankOverflow,
    RootFindingFailure,
    SchemaError,
    ShapeMismatch,
    SingularMatrix,
    SingularityHit,
    TermBlowup,
    UnknownVariable,
)
from .mat import complete_to_isometry, direct_sum, inv, isometry_defect, op_norm
from .freepoly import (
    FreePoly,
    GradedPoint,
    MatrixPoly,
    PolyMatrix,
    commutator_delta,
    delta_pad_columns,
    eval_poly,
    eval_poly_matrix,
)
from .exprlang import eval_expr, parse, print_expr, to_free_poly
from .ncpoint import (
    Membership,
    check_nc_axioms,
    conjugate,
    in_gdelta,
    nc_derivative,
    point_direct_sum,
)
from .model import ModelSampleSet, model_from_realization, model_residual
from .realize import (
    Realization,
    corona_solve,
    eval_direct,
    eval_neumann,
    fit_lurking_isometry,
)
from .approx import (
    certify_error,
    choose_truncation,
    expand_polynomial,
    select_covering_delta,
)
from .mero import inversion_certificate, singular_scan
from .jsonio import SCHEMA_VERSION

__version__ = "0.1.0"
