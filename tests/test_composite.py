"""Bell-like states, local-map composition, concurrence, two-qubit coherence."""
import math

import numpy as np
import pytest

from vibqubit import (
    BellSpec,
    ModeParams,
    ParameterError,
    bell_state,
    coherent_amplitudes,
    concurrence,
    evolve_two_qubit,
    single_qubit_map,
    two_qubit_coherence,
    vibrating_subsystem,
    windowed_amplitudes,
)
from vibqubit.oracle import two_subsystem_oracle

HALF = 2.0**-0.5


def vibrating_map(t, alpha_sq=1.0, beta_sq=1.0, tail_tol=1e-12):
    p = ModeParams(alpha_mag=math.sqrt(alpha_sq), beta_mag=math.sqrt(beta_sq))
    wa = windowed_amplitudes(alpha_sq, tail_tol)
    wb = windowed_amplitudes(beta_sq, tail_tol)
    return single_qubit_map(vibrating_subsystem(p, wa, wb), t)


# ------------------------------------------------------------------ bell_state


def test_phi_state_entries():
    rho = bell_state(BellSpec("phi", HALF, HALF))
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_psi_state_entries():
    rho = bell_state(BellSpec("psi", HALF, HALF))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_degenerate_bell_is_product():
    rho = bell_state(BellSpec("phi", 1.0, 0.0))
    assert rho[1, 1] == pytest.approx(1.0)
    assert concurrence(rho) == 0.0


def test_bell_spec_validation():
    with pytest.raises(ParameterError):
        BellSpec("chi", HALF, HALF)
    with pytest.raises(ParameterError):
        BellSpec("phi", 1.0, 1.0)
    with pytest.raises(ParameterError):
        BellSpec("phi", math.nan, 0.0)


# ------------------------------------------------------------ evolve_two_qubit


def test_two_qubit_identity_at_time_zero():
    rho0 = bell_state(BellSpec("phi", HALF, HALF))
    m = vibrating_map(0.0)
    rho = evolve_two_qubit(rho0, m)
    assert np.allclose(rho, rho0, atol=1e-12)


def test_product_input_stays_product():
    # local maps cannot create entanglement
    rho0 = bell_state(BellSpec("phi", 1.0, 0.0))
    for t in (30.0, 250.0, 900.0):
        m = vibrating_map(t)
        rho = evolve_two_qubit(rho0, m)
        assert concurrence(rho) == 0.0


def test_trace_and_hermiticity_preserved():
    rho0 = bell_state(BellSpec("psi", 0.6, 0.8))
    for t in (12.0, 340.0, 2100.0):
        m = vibrating_map(t)
        rho = evolve_two_qubit(rho0, m)
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-8


def test_two_qubit_map_matches_joint_oracle_vacuum():
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    rho0 = bell_state(spec)
    for t in (0.0, 40.0, 111.0):
        m = single_qubit_map(vibrating_subsystem(p, w, w), t)
        via_map = evolve_two_qubit(rho0, m)
        via_oracle = two_subsystem_oracle(spec, p, 4, t)
        assert np.max(np.abs(via_map - via_oracle)) < 1e-9


def test_two_qubit_map_matches_joint_oracle_coherent():
    spec = BellSpec("psi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    n_max = 12
    w = coherent_amplitudes(1.0, n_max)
    rho0 = bell_state(spec)
    m = single_qubit_map(vibrating_subsystem(p, w, w), 400.0)
    via_map = evolve_two_qubit(rho0, m)
    via_oracle = two_subsystem_oracle(spec, p, n_max, 400.0)
    diff = via_map - via_oracle
    trace_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    assert trace_distance < 1e-6


# ----------------------------------------------------------------- concurrence


def test_concurrence_of_bell_states_is_one():
    assert concurrence(bell_state(BellSpec("phi", HALF, HALF))) == pytest.approx(1.0)
    assert concurrence(bell_state(BellSpec("psi", HALF, HALF))) == pytest.approx(1.0)


def test_concurrence_of_partially_entangled_state():
    assert concurrence(bell_state(BellSpec("phi", 0.6, 0.8))) == pytest.approx(2 * 0.6 * 0.8)


def test_concurrence_of_maximally_mixed_is_zero():
    assert concurrence(np.eye(4) / 4.0) == 0.0


def test_concurrence_clamped_to_unit_interval():
    rho = bell_state(BellSpec("phi", HALF, HALF))
    assert 0.0 <= concurrence(rho) <= 1.0


def test_vacuum_concurrence_closed_form():
    # with both modes empty each qubit undergoes a pure Rabi rotation, and
    # the Bell coherence picks up cos^2(eta*kappa*t)
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    rho0 = bell_state(spec)
    for t in (0.0, 19.0, math.pi / 4 / p.rabi_rate):
        m = single_qubit_map(vibrating_subsystem(p, w, w), t)
        value = concurrence(evolve_two_qubit(rho0, m))
        expected = math.cos(p.rabi_rate * t) ** 2
        assert value == pytest.approx(expected, abs=1e-12)


def test_concurrence_matches_oracle_route():
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    t = math.pi / 4 / p.rabi_rate
    m = single_qubit_map(vibrating_subsystem(p, w, w), t)
    via_map = concurrence(evolve_two_qubit(bell_state(spec), m))
    via_oracle = concurrence(two_subsystem_oracle(spec, p, 4, t))
    assert via_map == pytest.approx(via_oracle, abs=1e-8)


def test_concurrence_swap_invariance():
    # the dynamics is symmetric in the two identical subsystems
    spec = BellSpec("phi", 0.6, 0.8)
    m = vibrating_map(170.0)
    rho = evolve_two_qubit(bell_state(spec), m)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert concurrence(swap @ rho @ swap) == pytest.approx(concurrence(rho), abs=1e-12)


def _phi_psi_curves(times):
    phi, psi = BellSpec("phi", HALF, HALF), BellSpec("psi", HALF, HALF)
    c_phi, c_psi = [], []
    for t in times:
        m = vibrating_map(float(t))
        c_phi.append(concurrence(evolve_two_qubit(bell_state(phi), m)))
        c_psi.append(concurrence(evolve_two_qubit(bell_state(psi), m)))
    return np.array(c_phi), np.array(c_psi)


@pytest.mark.xfail(
    strict=True,
    reason="the two Bell families genuinely differ pointwise during the initial "
    "decay (gap up to 0.19 at eta*kappa*t = 0.4, confirmed by the joint oracle "
    "at every intensity tried); their agreement is qualitative, not pointwise",
)
def test_phi_and_psi_concurrence_pointwise_close():
    times = np.linspace(0.0, 2500.0, 501)
    c_phi, c_psi = _phi_psi_curves(times)
    assert float(np.max(np.abs(c_phi - c_psi))) < 1e-2


def test_phi_and_psi_concurrence_same_time_behavior():
    # what does hold: identical envelope extinction time and matching
    # revival heights, i.e. the same time behavior at envelope level
    from vibqubit import upper_envelope

    times = np.linspace(0.0, 2500.0, 501)
    c_phi, c_psi = _phi_psi_curves(times)
    ext_phi = upper_envelope(times, c_phi).first_crossing_below(0.01)
    ext_psi = upper_envelope(times, c_psi).first_crossing_below(0.01)
    assert abs(ext_phi - ext_psi) <= 2.0 * (times[1] - times[0])
    late = times > 200.0
    assert abs(float(np.max(c_phi[late])) - float(np.max(c_psi[late]))) < 0.05


def test_concurrence_input_validation():
    with pytest.raises(ParameterError):
        concurrence(np.eye(3) / 3.0)
    with pytest.raises(ParameterError):
        concurrence(np.eye(4))  # trace 4


# ---------------------------------------------------------- two-qubit coherence


def test_tqc_of_bell_state_is_one():
    assert two_qubit_coherence(bell_state(BellSpec("phi", HALF, HALF))) == pytest.approx(1.0)


def test_tqc_of_diagonal_state_is_zero():
    assert two_qubit_coherence(np.diag([0.25, 0.25, 0.25, 0.25])) == 0.0


def test_tqc_matches_l1_of_oracle_density():
    from vibqubit import l1_coherence

    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    n_max = 12
    w = coherent_amplitudes(1.0, n_max)
    t = 1.0 / p.rabi_rate
    m = single_qubit_map(vibrating_subsystem(p, w, w), t)
    via_map = two_qubit_coherence(evolve_two_qubit(bell_state(spec), m))
    via_oracle = l1_coherence(two_subsystem_oracle(spec, p, n_max, t))
    assert via_map == pytest.approx(via_oracle, abs=1e-8)
