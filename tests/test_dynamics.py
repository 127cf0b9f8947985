"""Closed-form sideband evolution against the matrix-exponential oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibqubit import (
    ModeParams,
    ParameterError,
    QubitAmplitudes,
    choose_truncation,
    coherent_amplitudes,
    dynamics,
    evolve,
    reduced_qubit_density,
    single_qubit_map,
    stationary_subsystem,
    vibrating_subsystem,
)
from vibqubit.oracle import (
    build_jaynes_cummings,
    build_red_sideband,
    coherent_product_state,
    evolve_exact,
    fidelity,
)

BALANCED = QubitAmplitudes(2.0**-0.5, 2.0**-0.5)
EXCITED = QubitAmplitudes(1.0, 0.0)
GROUND = QubitAmplitudes(0.0, 1.0)


def default_params(alpha_sq=1.0, beta_sq=1.0):
    p = ModeParams(alpha_mag=math.sqrt(alpha_sq), beta_mag=math.sqrt(beta_sq))
    wa = coherent_amplitudes(p.alpha_mag, choose_truncation(alpha_sq, 1e-12))
    wb = coherent_amplitudes(p.beta_mag, choose_truncation(beta_sq, 1e-12))
    return p, wa, wb


def pack_state(state):
    """Flatten analytic grids into the oracle's basis ordering."""
    return np.concatenate([state.e_branch.reshape(-1), state.g_branch.reshape(-1)])


def oracle_state(q0, p, wa, wb, t):
    """Evolve the truncated product state by the sparse matrix exponential.

    The oracle space matches the analytic grids: one level past each
    coherent truncation.
    """
    h = build_red_sideband(p, wa.n_max + 1, wb.n_max + 1)
    psi0 = coherent_product_state(q0, wa, wb, wa.n_max + 1, wb.n_max + 1)
    return evolve_exact(psi0, h, t)


def oracle_reduced_density(psi, n_levels_a, n_levels_b):
    grid = psi.reshape(2, n_levels_a, n_levels_b)
    return np.einsum("imn,jmn->ij", grid, grid.conj())


# ---------------------------------------------------- coefficient families
# Evolving the pure basis states isolates the four coefficient families of
# the closed form: c_e = 1 gives E = a and F = d, c_g = 1 gives E = b and F = c.


def test_coefficients_at_time_zero():
    p, wa, wb = default_params()
    from_e = evolve(vibrating_subsystem(p, wa, wb), EXCITED, 0.0)
    from_g = evolve(vibrating_subsystem(p, wa, wb), GROUND, 0.0)
    for m, n in ((0, 0), (1, 2), (5, 3)):
        assert from_e.e_branch[m, n] == pytest.approx(wa.weights[m] * wb.weights[n])  # a
        assert from_g.g_branch[m, n] == pytest.approx(wa.weights[m] * wb.weights[n])  # c
        assert from_g.e_branch[m, n] == 0.0  # b
        assert from_e.g_branch[m, n] == 0.0  # d


def test_lowering_coefficient_dark_for_empty_mode():
    # |g, m, n> with an empty mode cannot have come from any excited state
    p, wa, wb = default_params()
    from_e = evolve(vibrating_subsystem(p, wa, wb), EXCITED, 37.0)
    for m, n in ((0, 0), (0, 3), (3, 0)):
        assert from_e.g_branch[m, n] == 0.0  # d


def test_coefficient_values_against_oracle_amplitudes():
    p, wa, wb = default_params()
    t = 25.0
    m, n = 1, 2
    flat_e = (0 * (wa.n_max + 2) + m) * (wb.n_max + 2) + n
    flat_g = (1 * (wa.n_max + 2) + m) * (wb.n_max + 2) + n

    from_e = evolve(vibrating_subsystem(p, wa, wb), EXCITED, t)
    from_g = evolve(vibrating_subsystem(p, wa, wb), GROUND, t)
    a, d = from_e.e_branch[m, n], from_e.g_branch[m, n]
    b, c = from_g.e_branch[m, n], from_g.g_branch[m, n]
    psi_e = oracle_state(EXCITED, p, wa, wb, t)
    psi_g = oracle_state(GROUND, p, wa, wb, t)
    # the oracle's initial state is renormalized; undo that for amplitudes
    scale = math.sqrt((1.0 - wa.tail_mass) * (1.0 - wb.tail_mass))
    assert psi_e[flat_e] * scale == pytest.approx(a, abs=1e-9)
    assert psi_e[flat_g] * scale == pytest.approx(d, abs=1e-9)
    assert psi_g[flat_e] * scale == pytest.approx(b, abs=1e-9)
    assert psi_g[flat_g] * scale == pytest.approx(c, abs=1e-9)


# --------------------------------------------------------------------- evolve


def test_ground_vacuum_is_stationary():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    for t in (0.0, 13.0, 400.0):
        s = evolve(vibrating_subsystem(p, w, w), GROUND, t)
        assert s.g_branch[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(s.e_branch)) == 0.0


def test_vacuum_rabi_pair():
    # |e, 0, 0> <-> |g, 1, 1> is an isolated two-level rotation
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    for t in (0.0, 7.0, 60.0):
        s = evolve(vibrating_subsystem(p, w, w), EXCITED, t)
        theta = p.rabi_rate * t
        assert s.e_branch[0, 0] == pytest.approx(math.cos(theta), abs=1e-12)
        assert s.g_branch[1, 1] == pytest.approx(-1j * math.sin(theta), abs=1e-12)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_grids_extend_one_level_past_truncation():
    p, wa, wb = default_params()
    s = evolve(vibrating_subsystem(p, wa, wb), BALANCED, 11.0)
    assert s.e_branch.shape == (wa.n_max + 2, wb.n_max + 2)


def test_norm_deficit_is_static_truncation_tail():
    # with the extended grids nothing leaks during evolution, so the norm
    # deficit equals the initial tail mass at every time
    p, wa, wb = default_params()
    expected = (1.0 - wa.tail_mass) * (1.0 - wb.tail_mass)
    for t in (0.0, 25.0, 500.0, 2500.0):
        s = evolve(vibrating_subsystem(p, wa, wb), BALANCED, t)
        assert s.norm_sq() == pytest.approx(expected, abs=1e-13)


def test_fidelity_against_oracle_balanced():
    p, wa, wb = default_params()
    for t in (2.0 / p.rabi_rate, 500.0, 2500.0):
        analytic = pack_state(evolve(vibrating_subsystem(p, wa, wb), BALANCED, t))
        exact = oracle_state(BALANCED, p, wa, wb, t)
        assert fidelity(analytic, exact) >= 1.0 - 1e-8


def test_fidelity_against_oracle_large_intensity():
    p, wa, wb = default_params(alpha_sq=4.0, beta_sq=4.0)
    analytic = pack_state(evolve(vibrating_subsystem(p, wa, wb), EXCITED, 300.0))
    exact = oracle_state(EXCITED, p, wa, wb, 300.0)
    assert fidelity(analytic, exact) >= 1.0 - 1e-10


def test_unshifted_lowering_coefficient_breaks_norm():
    # regression for the corrected lowering coefficient: the unshifted
    # variant loses a reproducible 0.1267 of probability by eta*kappa*t = 2
    p, wa, wb = default_params()
    t = 2.0 / p.rabi_rate
    bad = evolve(vibrating_subsystem(p, wa, wb), BALANCED, t, unshifted_d=True)
    deviation = abs(bad.norm_sq() - 1.0)
    assert deviation > 1e-3
    assert deviation == pytest.approx(0.1267071897586367, abs=1e-12)
    good = evolve(vibrating_subsystem(p, wa, wb), BALANCED, t)
    assert abs(good.norm_sq() - 1.0) < 1e-9


def test_negative_time_rejected():
    # and every time that is not finite
    p, wa, wb = default_params()
    for bad in (-0.5, math.nan, math.inf):
        for t in (bad, np.array([0.0, bad])):
            with pytest.raises(ParameterError):
                evolve(vibrating_subsystem(p, wa, wb), BALANCED, t)
            with pytest.raises(ParameterError):
                evolve(stationary_subsystem(p, wb), BALANCED, t)
            with pytest.raises(ParameterError):
                single_qubit_map(vibrating_subsystem(p, wa, wb), t)


def test_mismatched_weights_rejected():
    p, wa, wb = default_params()
    w_wrong = coherent_amplitudes(2.0, 18)
    with pytest.raises(ParameterError):
        evolve(vibrating_subsystem(p, w_wrong, wb), BALANCED, 1.0)


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False),
)
def test_norm_conserved_for_any_qubit_state(t, angle):
    q0 = QubitAmplitudes(math.cos(angle), math.sin(angle))
    p, wa, wb = default_params()
    s = evolve(vibrating_subsystem(p, wa, wb), q0, t)
    assert abs(s.norm_sq() - 1.0) < 1e-9


# ------------------------------------------------------------ reduced density


def test_reduced_density_at_time_zero():
    p, wa, wb = default_params()
    rho = reduced_qubit_density(evolve(vibrating_subsystem(p, wa, wb), BALANCED, 0.0))
    expected = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(rho, expected, atol=1e-12)


def test_populations_sum_to_one():
    p, wa, wb = default_params()
    for t in (3.0, 77.0, 1200.0):
        rho = reduced_qubit_density(evolve(vibrating_subsystem(p, wa, wb), BALANCED, t))
        assert abs(rho[1, 1].real - (1.0 - rho[0, 0].real)) < 1e-9


def test_excited_vacuum_population_oscillates():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    for t in (0.0, 10.0, 42.0):
        rho = reduced_qubit_density(evolve(vibrating_subsystem(p, w, w), EXCITED, t))
        assert rho[0, 0].real == pytest.approx(math.cos(p.rabi_rate * t) ** 2, abs=1e-12)


def test_reduced_density_matches_oracle_partial_trace():
    p, wa, wb = default_params(alpha_sq=4.0, beta_sq=4.0)
    t = 150.0
    rho = reduced_qubit_density(evolve(vibrating_subsystem(p, wa, wb), BALANCED, t))
    psi = oracle_state(BALANCED, p, wa, wb, t)
    rho_oracle = oracle_reduced_density(psi, wa.n_max + 2, wb.n_max + 2)
    assert np.max(np.abs(rho - rho_oracle)) < 1e-9


def test_reduced_density_invariants():
    p, wa, wb = default_params(alpha_sq=3.0, beta_sq=2.0)
    for t in np.linspace(0.0, 2000.0, 9):
        rho = reduced_qubit_density(evolve(vibrating_subsystem(p, wa, wb), BALANCED, float(t)))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


# ------------------------------------------------------------------ stationary


def test_stationary_excited_vacuum_is_rabi():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    for t in (0.0, 0.3, 2.0):
        rho = reduced_qubit_density(evolve(stationary_subsystem(p, w), EXCITED, t))
        expected = math.cos(p.kappa * t) ** 2
        assert rho[0, 0].real == pytest.approx(expected, abs=1e-12)


def test_stationary_ground_vacuum_is_dark():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    s = evolve(stationary_subsystem(p, w), GROUND, 5.0)
    assert s.g_branch[0] == pytest.approx(1.0)
    assert np.max(np.abs(s.e_branch)) == 0.0


def test_stationary_against_jaynes_cummings_oracle():
    beta_sq = 4.0
    p = ModeParams(alpha_mag=0.0, beta_mag=math.sqrt(beta_sq))
    wb = coherent_amplitudes(p.beta_mag, choose_truncation(beta_sq, 1e-12))
    n_levels = wb.n_max + 2
    h = build_jaynes_cummings(p.kappa, n_levels - 1)

    grid = np.zeros(n_levels)
    grid[: wb.n_max + 1] = wb.weights
    psi0 = np.concatenate([EXCITED.c_e * grid, EXCITED.c_g * grid]).astype(complex)
    psi0 /= np.linalg.norm(psi0)

    from scipy.sparse.linalg import expm_multiply

    for t in (1.0, 7.5, 30.0):
        exact = expm_multiply((-1j * t) * h, psi0)
        s = evolve(stationary_subsystem(p, wb), EXCITED, t)
        analytic = np.concatenate([s.e_branch, s.g_branch])
        assert fidelity(analytic, exact) >= 1.0 - 1e-10


def test_stationary_couples_at_kappa():
    p = ModeParams(kappa=2.5, alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    rho = reduced_qubit_density(evolve(stationary_subsystem(p, w), EXCITED, 0.4))
    assert rho[0, 0].real == pytest.approx(math.cos(2.5 * 0.4) ** 2, abs=1e-12)


# -------------------------------------------------------------- process matrix


def vibrating_map(p, wa, wb, t):
    return single_qubit_map(vibrating_subsystem(p, wa, wb), t)


def test_map_at_time_zero_is_identity():
    p, wa, wb = default_params()
    m = vibrating_map(p, wa, wb, 0.0)
    assert np.allclose(m.matrix, np.eye(4), atol=1e-9)


def test_map_agrees_with_direct_evolution():
    p, wa, wb = default_params()
    rng = np.random.default_rng(7)
    for t in (5.0, 90.0, 700.0):
        m = vibrating_map(p, wa, wb, t)
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            q0 = QubitAmplitudes(v[0], v[1])
            direct = reduced_qubit_density(evolve(vibrating_subsystem(p, wa, wb), q0, t))
            via_map = m.apply(np.outer(v, v.conj()))
            assert np.max(np.abs(direct - via_map)) < 1e-9


def test_map_vacuum_modes_is_rabi_channel():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    t = 33.0
    theta = p.rabi_rate * t
    m = vibrating_map(p, w, w, t)
    rho = m.apply(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    assert rho[0, 0].real == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    assert rho[1, 1].real == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
    assert abs(rho[0, 1]) < 1e-12


def test_map_is_trace_preserving():
    p, wa, wb = default_params(alpha_sq=2.0, beta_sq=3.0)
    m = vibrating_map(p, wa, wb, 400.0)
    # row (ee) + row (gg) of the map must sum to the trace functional
    trace_row = m.matrix[0] + m.matrix[3]
    assert np.allclose(trace_row, [1.0, 0.0, 0.0, 1.0], atol=1e-9)


def test_map_is_completely_positive():
    p, wa, wb = default_params(alpha_sq=2.0, beta_sq=3.0)
    for t in (0.0, 50.0, 1000.0):
        choi = vibrating_map(p, wa, wb, t).choi()
        assert np.min(np.linalg.eigvalsh(choi)) > -1e-8


def test_map_bounds_its_own_tables(monkeypatch):
    # the map walks time_chunks itself: no kernel call builds tables for more
    # times than CHUNK_BYTES holds, and the cut leaves the map unchanged
    p, wa, wb = default_params()
    sub = vibrating_subsystem(p, wa, wb)
    times = np.linspace(0.0, 2500.0, 301)
    whole = single_qubit_map(sub, times).matrix
    sizes = []
    rotate = dynamics._rotate_blocks

    def recording(sub, times, *args, **kwargs):
        sizes.append(times.size)
        return rotate(sub, times, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_rotate_blocks", recording)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 7 * 4 * sub.weights.nbytes)
    chunked = single_qubit_map(sub, times).matrix
    assert max(sizes) <= 7
    assert sum(sizes) == 301
    assert np.array_equal(chunked, whole)


def test_map_rejects_bad_density_shape():
    p, wa, wb = default_params()
    m = vibrating_map(p, wa, wb, 1.0)
    with pytest.raises(ParameterError):
        m.apply(np.eye(3))


def test_stationary_map_mode():
    p = ModeParams(alpha_mag=0.0, beta_mag=1.0)
    wb = coherent_amplitudes(1.0, 14)
    m = single_qubit_map(stationary_subsystem(p, wb), 2.0)
    trace_row = m.matrix[0] + m.matrix[3]
    assert np.allclose(trace_row, [1.0, 0.0, 0.0, 1.0], atol=1e-9)


# ------------------------------------------------------------------ parameters


def test_lamb_dicke_bounds():
    with pytest.raises(ParameterError):
        ModeParams(eta=0.0)
    with pytest.raises(ParameterError):
        ModeParams(eta=0.35)
    with pytest.warns(UserWarning):
        ModeParams(eta=0.15)


def test_qubit_amplitudes_must_be_normalized():
    with pytest.raises(ParameterError):
        QubitAmplitudes(1.0, 1.0)
    with pytest.raises(ParameterError):
        QubitAmplitudes(math.nan, 0.0)


def test_negative_coupling_rejected():
    with pytest.raises(ParameterError):
        ModeParams(kappa=-1.0)


def test_magnitudes_must_be_finite_and_non_negative():
    # inf would also pass the weights' consistency check, since inf > inf is False
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            ModeParams(alpha_mag=bad)
        with pytest.raises(ParameterError):
            ModeParams(beta_mag=bad)
