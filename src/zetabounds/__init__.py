"""Certified critical-line zeta-derivative evaluation and explicit
upper-bound machinery: bound assembly, parameter tuning, and numerical
verification sweeps for every supporting inequality."""

from .bounds import (
    BoundCoefficients,
    BoundCurve,
    BoundParams,
    DEFAULT_PARAMS,
    head_sum_bound,
    mid_tail_sum_bound,
    tail_error_bound,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
    theorem2_parts_exact,
)
from .expsums import (
    VdCParams,
    exp_sum_exact,
    shifted_diff_maxima,
    vdc_params_for_log_block,
    vdc_second_derivative_bound,
    vertex_max_bound,
    weyl_differencing_rhs,
)
from .numerics import (
    bernoulli_number,
    compensated_sum,
    geometric_grid,
)
from .optimize import (
    Objective,
    OptResult,
    crossover_scan,
    optimize_params,
)
from .verify import (
    SampleSpec,
    SUPPORTED_CHECKS,
    VerificationReport,
    verify_lemma,
    verify_theorem_envelope,
)
from .zeta import (
    CertifiedComplex,
    EMConfig,
    EvalPoint,
    default_em_config,
    zeta_em,
    zeta_prime_em,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCoefficients",
    "BoundCurve",
    "BoundParams",
    "CertifiedComplex",
    "DEFAULT_PARAMS",
    "EMConfig",
    "EvalPoint",
    "Objective",
    "OptResult",
    "SampleSpec",
    "SUPPORTED_CHECKS",
    "VdCParams",
    "VerificationReport",
    "bernoulli_number",
    "compensated_sum",
    "crossover_scan",
    "default_em_config",
    "exp_sum_exact",
    "geometric_grid",
    "head_sum_bound",
    "mid_tail_sum_bound",
    "optimize_params",
    "shifted_diff_maxima",
    "tail_error_bound",
    "theorem1_bound",
    "theorem2_bound",
    "theorem2_coeffs",
    "theorem2_parts_exact",
    "vdc_params_for_log_block",
    "vdc_second_derivative_bound",
    "verify_lemma",
    "verify_theorem_envelope",
    "vertex_max_bound",
    "weyl_differencing_rhs",
    "zeta_em",
    "zeta_prime_em",
]
