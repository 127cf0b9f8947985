"""Bell-like states, local-map composition, concurrence, two-qubit coherence."""
import math

import numpy as np
import pytest

from vibqubit import (
    BellSpec,
    ModeParams,
    ParameterError,
    Scenario,
    bell_state,
    concurrence,
    evolve_two_qubit,
    single_qubit_map,
    two_qubit_coherence,
    vibrating_subsystem,
    windowed_amplitudes,
)
from vibqubit import dynamics, scenarios
from vibqubit.fock import TAIL_TOL
from vibqubit.oracle import two_subsystem_oracle

HALF = 2.0**-0.5
EPS = np.finfo(float).eps
#: the local unitary V^H (x) V^H, V = diag(1, i) in the (e, g) basis
FRAME = np.kron(np.diag([1.0, -1j]), np.diag([1.0, -1j]))


def vibrating_map(t, alpha_sq=1.0, beta_sq=1.0):
    p = ModeParams(alpha_mag=math.sqrt(alpha_sq), beta_mag=math.sqrt(beta_sq))
    return single_qubit_map(vibrating_subsystem(p), t)


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
    sub = vibrating_subsystem(p)
    rho0 = bell_state(spec)
    for t in (0.0, 40.0, 111.0):
        m = single_qubit_map(sub, t)
        via_map = evolve_two_qubit(rho0, m)
        via_oracle = two_subsystem_oracle(spec, p.rabi_rate, sub.modes, t)
        assert np.max(np.abs(via_map - via_oracle)) < 1e-9


def test_two_qubit_map_matches_joint_oracle_coherent():
    spec = BellSpec("psi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    sub = vibrating_subsystem(p)
    rho0 = bell_state(spec)
    m = single_qubit_map(sub, 400.0)
    via_map = evolve_two_qubit(rho0, m)
    via_oracle = two_subsystem_oracle(spec, p.rabi_rate, sub.modes, 400.0)
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
    rho0 = bell_state(spec)
    for t in (0.0, 19.0, math.pi / 4 / p.rabi_rate):
        m = single_qubit_map(vibrating_subsystem(p), t)
        value = concurrence(evolve_two_qubit(rho0, m))
        expected = math.cos(p.rabi_rate * t) ** 2
        assert value == pytest.approx(expected, abs=1e-12)


def test_concurrence_matches_oracle_route():
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    sub = vibrating_subsystem(p)
    t = math.pi / 4 / p.rabi_rate
    m = single_qubit_map(sub, t)
    via_map = concurrence(evolve_two_qubit(bell_state(spec), m))
    via_oracle = concurrence(two_subsystem_oracle(spec, p.rabi_rate, sub.modes, t))
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
    from vibqubit import first_crossing_below, upper_envelope

    times = np.linspace(0.0, 2500.0, 501)
    c_phi, c_psi = _phi_psi_curves(times)
    ext_phi = first_crossing_below(times, upper_envelope(times, c_phi), 0.01)
    ext_psi = first_crossing_below(times, upper_envelope(times, c_psi), 0.01)
    assert abs(ext_phi - ext_psi) <= 2.0 * (times[1] - times[0])
    late = times > 200.0
    assert abs(float(np.max(c_phi[late])) - float(np.max(c_psi[late]))) < 0.05


def test_concurrence_input_validation():
    with pytest.raises(ParameterError):
        concurrence(np.eye(3) / 3.0)
    with pytest.raises(ParameterError):
        concurrence(np.eye(4))  # trace 4
    with pytest.raises(ParameterError):
        two_qubit_coherence(np.eye(4))  # trace 4, as for concurrence


def test_evolve_two_qubit_matches_the_kronecker_map():
    # m (x) m on vec(rho0) in the (i1, j1, i2, j2) order that the map pairs
    pair = lambda x: x.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
    unpair = lambda v: v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    m = vibrating_map(np.linspace(0.0, 2500.0, 301), alpha_sq=1.0, beta_sq=4.0)
    for spec in (BellSpec("phi", 0.6, 0.8), BellSpec("psi", 0.6, 0.8)):
        rho0 = bell_state(spec)
        reference = np.array([unpair(np.kron(x, x) @ pair(rho0)) for x in m])
        assert np.max(np.abs(evolve_two_qubit(rho0, m) - reference)) <= 1e-15


# ------------------------------------------------- concurrence: the real frame


def _route_spy(monkeypatch):
    """dtypes of the matrices concurrence hands to eigvals: float on the
    real route, complex on the complex route."""
    seen, eigvals = [], np.linalg.eigvals

    def spy(a):
        seen.append(np.asarray(a).dtype.kind)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return seen


def _scenario_densities(monkeypatch, s):
    """Every density ``run_scenario(s)`` hands to concurrence, and the route
    each took."""
    densities, seen = [], _route_spy(monkeypatch)

    def recording(rho):
        densities.append(rho)
        return concurrence(rho)

    monkeypatch.setattr(scenarios, "concurrence", recording)
    scenarios.run_scenario(s)
    return densities, seen


@pytest.mark.parametrize("kind", ["phi", "psi"])
@pytest.mark.parametrize("steps", [301, 2001], ids=["walked", "spectral"])
@pytest.mark.parametrize("intensity", [4.0, 36.0], ids=["from level 0", "windowed"])
@pytest.mark.parametrize("mode", ["concurrence", "stationary-concurrence"])
def test_scenario_densities_are_real_in_the_frame(monkeypatch, mode, intensity, steps, kind):
    # the real route rests on exact zeros: a change that breaks them must fail here
    assert 301 < dynamics.SPECTRAL_MIN_TIMES <= 2001
    assert (windowed_amplitudes(intensity, TAIL_TOL).n_min > 0) == (intensity > 30)
    s = Scenario(mode, bell_kind=kind, mu=0.6, alpha_sq=intensity, beta_sq=intensity, n_steps=steps)
    densities, seen = _scenario_densities(monkeypatch, s)
    assert len(densities) == 1 and densities[0].shape == (steps, 4, 4)
    assert not (FRAME @ densities[0] @ FRAME.conj().T).imag.any()
    assert seen == ["f"]


def test_real_route_matches_an_independent_real_route():
    # near the pure initial state, where the complex route loses half its digits
    s = Scenario("concurrence", alpha_sq=1.0, beta_sq=4.0, n_steps=2001)
    sub = vibrating_subsystem(s.mode_params())
    rho = scenarios._two_qubit_density(s, sub, s.times()[:40])
    framed = (FRAME @ rho @ FRAME.conj().T).real
    # l_i are the eigenvalues of sqrt(rho') S sqrt(rho'), up to sign
    w, v = np.linalg.eigh(framed)
    root = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ np.swapaxes(v, -1, -2)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    spin_flip = np.kron(sy, sy).real
    lam = np.sort(np.abs(np.linalg.eigvalsh(root @ spin_flip @ root)), axis=-1)
    reference = np.clip(lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0], 0.0, 1.0)
    assert np.max(np.abs(concurrence(rho) - reference)) <= 1e-12


def test_density_not_real_in_the_frame_takes_the_complex_route(monkeypatch):
    rho = evolve_two_qubit(bell_state(BellSpec("psi", 0.6, 0.8)), vibrating_map(np.linspace(0.0, 300.0, 41)))
    hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) * HALF, np.eye(2))
    rotated = hadamard @ rho @ hadamard.T
    assert (FRAME @ rotated @ FRAME.conj().T).imag.any()
    seen = _route_spy(monkeypatch)
    value, expected = concurrence(rotated), concurrence(rho)
    assert seen == ["c", "f"]
    assert np.max(np.abs(value - expected)) <= 3 * math.sqrt(16 * EPS)


def test_walked_and_spectral_concurrence_agree(monkeypatch):
    s = Scenario("concurrence", alpha_sq=1.0, beta_sq=4.0, n_steps=2001)
    spectral = scenarios.run_scenario(s)[:, 2]
    monkeypatch.setattr(dynamics, "SPECTRAL_MIN_TIMES", math.inf)
    walked = scenarios.run_scenario(s)[:, 2]
    assert np.max(np.abs(walked - spectral)) <= 1e-10


def test_evolve_two_qubit_input_validation():
    m = np.eye(4)
    with pytest.raises(ParameterError, match="4x4 density"):
        evolve_two_qubit(np.eye(3), m)
    with pytest.raises(ParameterError, match=r"\(\.\.\., 4, 4\) map"):
        evolve_two_qubit(np.eye(4) / 4, np.eye(3))


# ---------------------------------------------------------- two-qubit coherence


def test_tqc_of_bell_state_is_one():
    assert two_qubit_coherence(bell_state(BellSpec("phi", HALF, HALF))) == pytest.approx(1.0)


def test_tqc_of_diagonal_state_is_zero():
    assert two_qubit_coherence(np.diag([0.25, 0.25, 0.25, 0.25])) == 0.0


def test_tqc_matches_l1_of_oracle_density():
    from vibqubit import l1_coherence

    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    sub = vibrating_subsystem(p)
    t = 1.0 / p.rabi_rate
    m = single_qubit_map(sub, t)
    via_map = two_qubit_coherence(evolve_two_qubit(bell_state(spec), m))
    via_oracle = l1_coherence(two_subsystem_oracle(spec, p.rabi_rate, sub.modes, t))
    assert via_map == pytest.approx(via_oracle, abs=1e-8)
