"""Multivariate Krawtchouk polynomials as eigenfunctions of a
multidimensional birth-death process: lattice and operator construction,
spectral data, polynomial tables with dual orthogonality, the rational
two-dimensional family with its explicit dual system, and stochastic /
uniformized evolution.

The public names below are resolved on first use (PEP 562), so
``import mvkraw`` loads neither a submodule nor numpy; each name imports
only the submodule that defines it."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "bdcore": ("generator_from_tables", "verify_structure"),
    "errors": (
        "AbsorbingState",
        "CapExceeded",
        "ExceptionalParameters",
        "NoConvergence",
        "SingularParameters",
        "ValidationError",
    ),
    "lattice": ("StateSpace", "simplex_size"),
    "model": (
        "ModelParams",
        "check_rate_tables",
        "probabilities",
        "rate_tables",
        "weight_vector",
    ),
    "polynomials": (
        "eval_P",
        "eval_P_via_generating_function",
        "kr_P",
        "orthonormal_map",
        "orthonormality",
        "table",
        "table_checks",
        "table_via_generating_function",
    ),
    "rational": (
        "DualPair",
        "RationalParams",
        "derive_dual_pair",
        "eval_rational",
        "verify_recurrence",
    ),
    "report": ("Check", "Report"),
    "simulate": (
        "EvolveResult",
        "GillespieResult",
        "RelaxationFit",
        "evolve_distribution",
        "gillespie_run",
        "relaxation_rate",
    ),
    "spectrum": (
        "EigenBasis",
        "SpectralData",
        "identity_checks",
        "numeric_eigenbasis",
        "rational_case_n2",
        "secular_function",
        "solve_spectrum",
    ),
    "sympower": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
