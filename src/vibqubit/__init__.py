"""Vibrating trapped-ion qubits in ideal cavities: dynamics and verification.

Analytic closed-form evolution on the red sideband (single qubit and pairs
of locally coupled qubits), the observables built on it (l1 coherence,
photon-phonon correlation, concurrence), a brute-force matrix-exponential
oracle for cross-validation, and a CLI that sweeps the dynamics to CSV.
"""
from .composite import (
    BellSpec,
    bell_state,
    concurrence,
    evolve_two_qubit,
    two_qubit_coherence,
)
from .curves import first_crossing_below, revival_peak, upper_envelope
from .dynamics import (
    ModeParams,
    QubitAmplitudes,
    Subsystem,
    apply_map,
    evolve,
    reduced_qubit_density,
    single_qubit_map,
    stationary_subsystem,
    vibrating_subsystem,
)
from .errors import ParameterError, ResourceError
from .fock import CoherentAmplitudes, coherent_amplitudes, windowed_amplitudes
from .observables import CorrelationSample, l1_coherence, mode_moments
from .scenarios import (
    ALL_MODES,
    STATIONARY_MODES,
    VIBRATING_MODES,
    Scenario,
    emit_plot_script,
    run_scenario,
    write_csv,
)

__all__ = [
    "ALL_MODES",
    "BellSpec",
    "CoherentAmplitudes",
    "CorrelationSample",
    "ModeParams",
    "ParameterError",
    "QubitAmplitudes",
    "ResourceError",
    "STATIONARY_MODES",
    "Scenario",
    "Subsystem",
    "VIBRATING_MODES",
    "apply_map",
    "bell_state",
    "coherent_amplitudes",
    "concurrence",
    "emit_plot_script",
    "evolve",
    "evolve_two_qubit",
    "first_crossing_below",
    "l1_coherence",
    "mode_moments",
    "reduced_qubit_density",
    "revival_peak",
    "run_scenario",
    "single_qubit_map",
    "stationary_subsystem",
    "two_qubit_coherence",
    "upper_envelope",
    "vibrating_subsystem",
    "windowed_amplitudes",
]
