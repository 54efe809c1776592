"""kgpoint: 1D Klein-Gordon field coupled to a point nonlinear oscillator.

Simulation (Volterra trace solver plus Duhamel reconstruction), the
solitary-wave manifold, and the spectral diagnostics used to observe the
global attraction of finite-energy solutions to that manifold.

The public names below are resolved on first use (PEP 562), so importing
one module, say `kgpoint.config`, loads only what that module imports and
not the solver.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "FieldState": "fields", "Grid": "fields", "TraceSeries": "fields", "zero_state": "fields",
    "bessel_j0": "kernel", "free_evolve": "kernel", "free_trace": "kernel",
    "OscillatorModel": "model", "alpha": "model", "check_bound_below": "model",
    "force": "model", "potential": "model",
    "charge": "observables", "energy": "observables", "norm_e": "observables",
    "LinearSpanFit": "solitary", "LinearWaveFamily": "solitary", "ManifoldDistance": "solitary",
    "SolitaryWave": "solitary", "ZeroWave": "solitary", "distance_to_manifold": "solitary",
    "sample_profile": "solitary", "waves_at_omega": "solitary",
    "waves_from_amplitude": "solitary",
    "SpectrumEstimate": "spectral", "TitchmarshResult": "spectral", "Window": "spectral",
    "dominant_frequency": "spectral", "gap_mass_fraction": "spectral",
    "late_window": "spectral", "modulus_variation": "spectral",
    "titchmarsh_check": "spectral", "windowed_spectrum": "spectral",
    "SolveReport": "volterra", "SolveStatus": "volterra", "reconstruct_field": "volterra",
    "reconstruct_fields": "volterra", "solve_full": "volterra", "solve_trace": "volterra",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
