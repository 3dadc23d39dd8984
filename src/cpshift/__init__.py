"""Spontaneous decay and Casimir-Polder shifts above planar media.

Body-modified decay rates and resonant/nonresonant frequency shifts of a
circularly polarized dipole transition at height z above a half-space:
a perfect conductor, a perfect nonreciprocal (polarization-flipping) mirror,
or an axion-coupled magnetoelectric medium.  Everything downstream of the
reflection coefficients is expressed through the scattering part of the
electromagnetic Green's tensor evaluated on the real or imaginary
frequency axis.
"""
from .version import __version__
from .constants import ALPHA_FS, Constants, SCALED, SCALED_DIPOLE_MAGNITUDE, SI
from .units import (AtomModel, Transition, UnitsPolicy, canonical_transition,
                    circular_dipole, free_space_rate_formula)
from .quadrature import QuadratureConfig, QuadratureError, QuadResult, integrate
from .media import (AxionMedium, ConstantReflectionMedium,
                    PerfectConductor, PerfectNonreciprocalMirror,
                    PoleError, ReflectionMatrix, delta,
                    nonretarded_limit_coefficients, retarded_limit_coefficients)
from .greens import (EvaluationPoint, PlanarTensors, generalized_im,
                     generalized_re, greens_nonreciprocal_mirror,
                     greens_perfect_conductor, scattering_greens_numeric)
from .atomics import (AsymptoticCase, NonresonantTerms, PopulationState,
                      ShiftBreakdown, asymptotic, axion_difference, decay_rate,
                      evolve_populations, greens_tensor, nonresonant_shift,
                      nonresonant_shift_terms, resonant_shift,
                      self_consistent_shift, total_shift)
from .config import ConfigError, ScanConfig, parse_config
from .scan import (FIGURE_NAMES, RunManifest, ScanError, ScanResult, figure,
                   run_scan)

__all__ = [
    "__version__",
    "ALPHA_FS", "Constants", "SCALED", "SCALED_DIPOLE_MAGNITUDE", "SI",
    "AtomModel", "Transition", "UnitsPolicy", "canonical_transition",
    "circular_dipole", "free_space_rate_formula",
    "QuadratureConfig", "QuadratureError", "QuadResult", "integrate",
    "AxionMedium", "ConstantReflectionMedium", "PerfectConductor",
    "PerfectNonreciprocalMirror", "PoleError",
    "ReflectionMatrix", "delta", "nonretarded_limit_coefficients",
    "retarded_limit_coefficients",
    "EvaluationPoint", "PlanarTensors", "generalized_im", "generalized_re",
    "greens_nonreciprocal_mirror", "greens_perfect_conductor",
    "scattering_greens_numeric",
    "AsymptoticCase", "NonresonantTerms", "PopulationState", "ShiftBreakdown",
    "asymptotic", "axion_difference", "decay_rate", "evolve_populations",
    "greens_tensor", "nonresonant_shift", "nonresonant_shift_terms",
    "resonant_shift", "self_consistent_shift", "total_shift",
    "ConfigError", "ScanConfig", "parse_config",
    "FIGURE_NAMES", "RunManifest", "ScanError", "ScanResult", "figure",
    "run_scan",
]
