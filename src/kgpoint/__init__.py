"""kgpoint: 1D Klein-Gordon field coupled to a point nonlinear oscillator.

Simulation (Volterra trace solver plus Duhamel reconstruction), the
solitary-wave manifold, and the spectral diagnostics used to observe the
global attraction of finite-energy solutions to that manifold.
"""

from .fields import FieldState, Grid, TraceSeries, zero_state
from .kernel import bessel_j0, free_evolve, free_trace
from .model import OscillatorModel, alpha, check_bound_below, force, potential
from .observables import charge, energy, norm_e
from .solitary import (LinearSpanFit, LinearWaveFamily, ManifoldDistance,
                       SolitaryWave, ZeroWave, distance_to_manifold, sample_profile,
                       waves_at_omega, waves_from_amplitude)
from .spectral import (SpectrumEstimate, TitchmarshResult, Window, dominant_frequency,
                       gap_mass_fraction, late_window, modulus_variation, titchmarsh_check,
                       windowed_spectrum)
from .volterra import (SolveReport, SolveStatus, reconstruct_field, reconstruct_fields,
                       solve_full, solve_trace)

__all__ = [
    "FieldState", "Grid", "LinearSpanFit", "LinearWaveFamily",
    "ManifoldDistance", "OscillatorModel",
    "SolitaryWave", "SolveReport", "SolveStatus", "SpectrumEstimate",
    "TitchmarshResult", "TraceSeries", "Window", "ZeroWave",
    "alpha", "bessel_j0", "charge", "check_bound_below", "distance_to_manifold",
    "dominant_frequency", "energy", "force", "free_evolve", "free_trace",
    "gap_mass_fraction",
    "late_window", "modulus_variation", "norm_e",
    "potential", "reconstruct_field", "reconstruct_fields", "sample_profile", "solve_full",
    "solve_trace", "titchmarsh_check",
    "waves_at_omega", "waves_from_amplitude", "windowed_spectrum", "zero_state",
]

__version__ = "0.1.0"
