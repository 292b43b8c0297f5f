"""Qubit coherence in dissipative cavity networks.

Single-excitation dynamics of a monitored qubit coupled to lossy cavities
reduce to a non-Hermitian tight-binding generator; chains with non-trivial
winding number host quasi-dark edge modes whose lifetime grows exponentially
with system size, protecting the qubit's coherence.  The package builds the
generators, analyzes their spectra, evolves the coherence, classifies the
phases, and averages over detuning disorder.
"""

from .errors import (
    GapClosureError,
    NumericError,
    PhaseBoundaryError,
    ResolutionError,
    RootFindingError,
    SpecificationError,
)
from .netmodel import (
    CAVITY,
    QUBIT,
    EffectiveHamiltonian,
    NetworkSpec,
    SiteSpec,
    Superoperator,
    apply_detuning_disorder,
    build_effective_hamiltonian,
    build_impurity_model,
    build_model,
    build_ssh_model,
    build_three_site_model,
    parse_network_json,
    superoperator_from_hamiltonian,
)
from .spectral import (
    EdgeMode,
    SpectralData,
    decompose,
    default_eps_dark,
    find_quasi_dark_modes,
    localization_profile,
    overlap_weights,
    site_overlap,
)
from .dynamics import (
    CoherenceTrace,
    coherence_trace,
    coherence_trace_superoperator,
    log_time_grid,
    strong_dissipative_rate,
    weak_dissipative_spectrum,
)
from .topology import (
    BlochHamiltonian,
    WindingResult,
    bloch_ssh,
    bloch_three_site,
    bulk_edge_report,
    winding_number_numeric,
    winding_ssh_closed_form,
    winding_three_site_closed_form,
)
from .analytics import (
    ImpurityPrediction,
    SshEvenPrediction,
    dark_sector_prediction,
    impurity_prediction,
    impurity_quasimomentum_roots,
    quasimomentum_eigenvalues,
    quasimomentum_residual,
    ssh_even_prediction,
    ssh_odd_asymptotic_coherence,
    ssh_odd_dark_state,
    table1,
)
from .disorder import DisorderConfig, EnsembleResult, draw_detunings, run_ensemble

__version__ = "0.1.0"
