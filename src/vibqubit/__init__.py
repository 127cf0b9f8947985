"""Vibrating trapped-ion qubits in ideal cavities: dynamics and verification.

Analytic closed-form evolution on the red sideband (single qubit and pairs
of locally coupled qubits), the observables built on it (l1 coherence,
photon-phonon correlation, concurrence), a brute-force matrix-exponential
oracle for cross-validation, and a CLI that sweeps the dynamics to CSV.
"""
from .composite import (
    BellSpec,
    TwoQubitDensity,
    bell_state,
    concurrence,
    evolve_two_qubit,
    two_qubit_coherence,
)
from .curves import Envelope, revival_peak, upper_envelope
from .dynamics import (
    GlobalState,
    ModeParams,
    ProcessMatrix,
    QubitAmplitudes,
    evolve_state,
    reduced_qubit_density,
    single_qubit_map,
    stationary_evolve,
)
from .errors import ParameterError, ResourceError
from .fock import CoherentAmplitudes, choose_truncation, coherent_amplitudes
from .observables import CorrelationSample, l1_coherence, mode_moments
from .scenarios import (
    ALL_MODES,
    STATIONARY_MODES,
    VIBRATING_MODES,
    Scenario,
    emit_plot_script,
    read_csv_header,
    run_scenario,
    stationary_variant,
    write_csv,
)

__all__ = [
    "ALL_MODES",
    "BellSpec",
    "CoherentAmplitudes",
    "CorrelationSample",
    "Envelope",
    "GlobalState",
    "ModeParams",
    "ParameterError",
    "ProcessMatrix",
    "QubitAmplitudes",
    "ResourceError",
    "STATIONARY_MODES",
    "Scenario",
    "TwoQubitDensity",
    "VIBRATING_MODES",
    "bell_state",
    "choose_truncation",
    "coherent_amplitudes",
    "concurrence",
    "emit_plot_script",
    "evolve_state",
    "evolve_two_qubit",
    "l1_coherence",
    "mode_moments",
    "read_csv_header",
    "reduced_qubit_density",
    "revival_peak",
    "run_scenario",
    "single_qubit_map",
    "stationary_evolve",
    "stationary_variant",
    "two_qubit_coherence",
    "upper_envelope",
]
