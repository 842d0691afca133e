"""Certified critical-line zeta-derivative evaluation and explicit
upper-bound machinery: bound assembly, parameter tuning, and numerical
verification sweeps for every supporting inequality.

Each public name, and each submodule in ``_PUBLIC``, loads its submodule
on first use (PEP 562): ``import zetabounds`` alone loads neither numpy
nor any submodule, and ``zeta_prime_em`` loads only ``zeta`` and
``numerics``.  The names of ``bounds`` and ``optimize``, and
``compensated_sum``, ``bernoulli_number`` and ``geometric_grid``, need no
numpy; the names of ``zeta``, ``expsums`` and ``verify`` load it.  The
command line (``zetabounds.cli``) loads ``zeta``, ``expsums`` and
``verify`` only in the subcommands that call them, so ``bound`` and
``optimize`` run without numpy.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_PUBLIC = {
    "bounds": (
        "BoundCoefficients", "BoundCurve", "BoundParams", "DEFAULT_PARAMS",
        "head_sum_bound", "mid_tail_sum_bound", "tail_error_bound",
        "theorem1_bound", "theorem2_bound", "theorem2_coeffs", "theorem2_parts_exact",
    ),
    "expsums": (
        "VdCParams", "exp_sum_exact", "shifted_diff_maxima", "vdc_params_for_log_block",
        "vdc_second_derivative_bound", "vertex_max_bound", "weyl_differencing_rhs",
    ),
    "numerics": ("bernoulli_number", "compensated_sum", "geometric_grid"),
    "optimize": ("Objective", "OptResult", "crossover_scan", "optimize_params"),
    "verify": (
        "SampleSpec", "SUPPORTED_CHECKS", "VerificationReport", "verify_lemma",
        "verify_theorem_envelope",
    ),
    "zeta": (
        "CertifiedComplex", "EMConfig", "EvalPoint", "default_em_config", "zeta_em",
        "zeta_prime_em",
    ),
}

__all__ = [name for names in _PUBLIC.values() for name in names]

_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name: str):
    module = name if name in _PUBLIC else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not an import statement: this module's import statements
    # may bind only the names it exports
    loaded = __import__(f"{__name__}.{module}", fromlist=[name])
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value  # later lookups never reach this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
