"""Qubit coherence in dissipative cavity networks.

Single-excitation dynamics of a monitored qubit coupled to lossy cavities
reduce to a non-Hermitian tight-binding generator; chains with non-trivial
winding number host quasi-dark edge modes whose lifetime grows exponentially
with system size, protecting the qubit's coherence.  The package builds the
generators, analyzes their spectra, evolves the coherence, classifies the
phases, and averages over detuning disorder.

``import nhtop`` loads no submodule and no numpy.  Each public name below,
and each submodule, is imported on first use (PEP 562): ``nhtop.decompose``
is ``nhtop.spectral.decompose`` looked up at every access, so a name patched
on its submodule is the name the package returns.
"""

import importlib as _importlib

#: every public name, with the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("GapClosureError", "NumericError", "PhaseBoundaryError",
                     "ResolutionError", "RootFindingError", "SpecificationError"), "errors"),
    **dict.fromkeys(("CAVITY", "QUBIT", "EffectiveHamiltonian", "NetworkSpec", "SiteSpec",
                     "Superoperator", "apply_detuning_disorder", "build_effective_hamiltonian",
                     "build_impurity_model", "build_model", "build_ssh_model",
                     "build_three_site_model", "parse_network_json",
                     "superoperator_from_hamiltonian"), "netmodel"),
    **dict.fromkeys(("EdgeMode", "SpectralData", "decompose", "default_eps_dark",
                     "find_quasi_dark_modes", "localization_profile", "overlap_weights",
                     "site_overlap"), "spectral"),
    **dict.fromkeys(("CoherenceTrace", "coherence_trace", "coherence_trace_superoperator",
                     "log_time_grid", "strong_dissipative_rate",
                     "weak_dissipative_spectrum"), "dynamics"),
    **dict.fromkeys(("BlochHamiltonian", "WindingResult", "bloch_ssh", "bloch_three_site",
                     "bulk_edge_report", "winding_number_numeric", "winding_ssh_closed_form",
                     "winding_three_site_closed_form"), "topology"),
    **dict.fromkeys(("ImpurityPrediction", "SshEvenPrediction", "dark_sector_prediction",
                     "impurity_prediction", "impurity_quasimomentum_roots",
                     "quasimomentum_eigenvalues", "quasimomentum_residual",
                     "ssh_even_prediction", "ssh_odd_asymptotic_coherence",
                     "ssh_odd_dark_state", "table1"), "analytics"),
    **dict.fromkeys(("DisorderConfig", "EnsembleResult", "draw_detunings",
                     "run_ensemble"), "disorder"),
}
_SUBMODULES = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
