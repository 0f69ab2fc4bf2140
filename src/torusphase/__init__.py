"""Finite-dimensional quantum mechanics on the discrete torus.

Unitary operator bases on Z_D x Z_D, their deformed subalgebras, discrete
canonical transformations, Wigner functions, a unitary number-phase pair,
and large-D diagnostics.

Importing the package imports none of its modules: each public name below is
imported from its module on first use (PEP 562), so `from torusphase import
wigner_function` loads the Wigner layer and what it needs, nothing else.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CaseConditionError", "CollinearVectorsError", "DegenerateSpectrumError",
        "DimensionTooLargeError", "NonPrimeDimensionError", "NonRealWignerError",
        "NonSymplecticMapError", "PhaseMismatchError", "SingularDeformationError",
        "TorusPhaseError", "UnsupportedBasisError",
    ),
    "lattice": (
        "Dimension", "basis_state", "build_clock_operator", "build_fourier_operator",
        "build_shift_operator", "canonical_vector", "canonical_window", "is_prime",
        "lattice_cross", "make_dimension", "max_abs", "random_state",
    ),
    "schwinger": (
        "SchwingerEigensystem", "eigensystem_by_recursion",
        "schwinger_matrix", "sine_commutator_check", "standard_pair_suite",
        "weyl_commutator_check",
    ),
    "deformed": (
        "CoproductReport", "QOscillator", "TranslationReport", "bracket_values",
        "build_q_oscillator", "coproduct_check", "translated_lattice_deformation",
    ),
    "transforms": (
        "MetaplecticOperator", "SymplecticMap", "build_metaplectic", "closure_check",
        "covariance_report", "fourier_check", "phase_flattening_report",
        "random_symplectic",
    ),
    "wigner": (
        "WignerGrid", "characteristic", "classical_symbol", "kernel_suite",
        "property_suite", "symbol_reconstruct", "wigner_function",
    ),
    "numberphase": (
        "ActionAngleKernel", "NumberExpansion", "PhasePair", "action_angle_values",
        "build_action_angle_kernel", "build_phase_pair", "expand_number_function",
        "identification_suite", "kernel_form_residual", "phase_pair_residuals",
        "wigner_number_phase",
    ),
    "limits": (
        "ConvergenceReport", "SpectrumProfile", "fujikawa_index",
        "index_report", "limiting_spectrum", "linear_profile", "oscillator_profile",
        "phase_basis_wigner_function", "phase_basis_wigner_limit", "weak_convergence_sweep",
        "wigner_even_odd_decomposition",
    ),
    "fock": (
        "ShiftedFockBasis", "build_shifted_fock", "fractional_phase_power",
        "oscillator_fock_alpha", "oscillator_fock_match", "shift_isomorphism_check",
        "shifted_overlap", "shifted_overlap_expansion",
    ),
    "verify": ("CheckRow", "run_suite"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
