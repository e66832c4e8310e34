"""Free holomorphic functions on matrix tuples.

Evaluation of free polynomials and rational expressions at every matrix
level, membership in basic free open sets, transfer-function realizations
with certified series evaluation, isometry fitting from finite sample data,
certified polynomial approximation, and explicit inversion certificates.

The names below are exported lazily (PEP 562): ``import freeholo`` loads no
submodule, and ``freeholo.name`` imports the one module that defines it on
first use, so a command line run pays only for the modules it calls.
"""

import importlib

_EXPORTS = {
    "errors": "BelowFloor DimensionTooSmall ExprSyntaxError FreeholoError GramMismatch "
    "NoCover NotInvertible NotPolynomial OutsideDomain RankOverflow RootFindingFailure "
    "SchemaError ShapeMismatch SingularMatrix SingularityHit TermBlowup UnknownVariable",
    "mat": "complete_to_isometry direct_sum inv isometry_defect op_norm",
    "freepoly": "FreePoly GradedPoint MatrixPoly PolyMatrix commutator_delta "
    "delta_pad_columns eval_poly eval_poly_matrix",
    "exprlang": "eval_expr parse print_expr to_free_poly",
    "ncpoint": "Membership check_nc_axioms conjugate in_gdelta nc_derivative point_direct_sum",
    "model": "ModelSampleSet model_from_realization model_residual",
    "realize": "Realization corona_solve eval_direct eval_neumann fit_lurking_isometry",
    "approx": "certify_error choose_truncation expand_polynomial select_covering_delta",
    "mero": "inversion_certificate singular_scan",
    "jsonio": "SCHEMA_VERSION",
}
# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
