"""The brute-force reference: Hamiltonian structure, propagators, joint oracle."""
import math

import numpy as np
import pytest

from vibqubit import (
    BellSpec,
    ModeParams,
    ParameterError,
    QubitAmplitudes,
    ResourceError,
    bell_state,
    coherent_amplitudes,
    oracle,
)
from vibqubit.oracle import (
    basis_index,
    build_jaynes_cummings,
    build_red_sideband,
    coherent_product_state,
    evolve_exact_series,
    fidelity,
    two_subsystem_oracle,
)

BALANCED = QubitAmplitudes(2.0**-0.5, 2.0**-0.5)
EXCITED = QubitAmplitudes(1.0, 0.0)
HALF = 2.0**-0.5


# ------------------------------------------------------------------ Hamiltonian


def test_sideband_matrix_elements():
    p = ModeParams()
    h = build_red_sideband(p, 6, 6)
    dense = h.matrix.toarray()
    i = basis_index(0, 0, 0, 6, 6)
    j = basis_index(1, 1, 1, 6, 6)
    assert dense[i, j] == pytest.approx(p.rabi_rate)
    i = basis_index(0, 2, 3, 6, 6)
    j = basis_index(1, 3, 4, 6, 6)
    assert dense[i, j] == pytest.approx(p.rabi_rate * math.sqrt(3.0 * 4.0))


def test_sideband_selection_rule():
    # nothing but |e, m, n> <-> |g, m+1, n+1> may appear
    h = build_red_sideband(ModeParams(), 5, 5)
    coo = h.matrix.tocoo()
    for i, j in zip(coo.row, coo.col):
        qi, rest = divmod(int(i), 36)
        mi, ni = divmod(rest, 6)
        qj, rest = divmod(int(j), 36)
        mj, nj = divmod(rest, 6)
        assert {qi, qj} == {0, 1}
        if qi == 0:
            assert (mj, nj) == (mi + 1, ni + 1)
        else:
            assert (mi, ni) == (mj + 1, nj + 1)


def test_sideband_is_hermitian():
    h = build_red_sideband(ModeParams(), 8, 5)
    assert (h.matrix - h.matrix.getH()).nnz == 0


def test_sideband_minimum_size():
    with pytest.raises(ParameterError):
        build_red_sideband(ModeParams(), 3, 8)


def test_jaynes_cummings_elements():
    h = build_jaynes_cummings(2.0, 5)
    dense = h.toarray()
    assert dense[0, 7] == pytest.approx(2.0)  # |e,0> <-> |g,1>
    assert dense[3, 10] == pytest.approx(2.0 * math.sqrt(4.0))  # |e,3> <-> |g,4>
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def test_basis_index_bounds():
    with pytest.raises(ParameterError):
        basis_index(2, 0, 0, 5, 5)
    with pytest.raises(ParameterError):
        basis_index(0, 6, 0, 5, 5)


def test_product_state_places_a_window_at_its_levels():
    wa = coherent_amplitudes(6.0, 86, 3)
    wb = coherent_amplitudes(1.0, 14)
    psi = coherent_product_state(EXCITED, wa, wb, 87, 15)
    grid = psi.reshape(2, 88, 16)[0]
    assert not grid[:3].any() and not grid[87].any()
    expected = np.outer(wa.weights, wb.weights)
    assert np.allclose(grid[3:87, :15], expected / np.linalg.norm(expected), rtol=1e-12, atol=0.0)


# ------------------------------------------------------------------- propagators


def test_evolution_at_time_zero_is_identity():
    p = ModeParams()
    w = coherent_amplitudes(1.0, 14)
    h = build_red_sideband(p, 15, 15)
    psi0 = coherent_product_state(BALANCED, w, w, 15, 15)
    assert np.allclose(evolve_exact_series(psi0, h, [0.0])[0], psi0, atol=1e-12)


def test_vacuum_rabi_oscillation():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    h = build_red_sideband(p, 5, 5)
    psi0 = coherent_product_state(EXCITED, w, w, 5, 5)
    t = 0.7 / p.rabi_rate
    psi = evolve_exact_series(psi0, h, [t])[0]
    i_e = basis_index(0, 0, 0, 5, 5)
    i_g = basis_index(1, 1, 1, 5, 5)
    assert psi[i_e] == pytest.approx(math.cos(0.7), abs=1e-10)
    assert psi[i_g] == pytest.approx(-1j * math.sin(0.7), abs=1e-10)


def test_norm_preserved_over_long_times():
    p = ModeParams()
    w = coherent_amplitudes(1.0, 14)
    h = build_red_sideband(p, 15, 15)
    psi0 = coherent_product_state(BALANCED, w, w, 15, 15)
    series = evolve_exact_series(psi0, h, np.linspace(0.0, 5000.0, 21))
    norms = np.linalg.norm(series, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_energy_is_conserved():
    p = ModeParams()
    w = coherent_amplitudes(1.0, 14)
    h = build_red_sideband(p, 15, 15)
    psi0 = coherent_product_state(BALANCED, w, w, 15, 15)
    e0 = np.vdot(psi0, h.matrix @ psi0).real
    for t in (10.0, 500.0, 2500.0):
        psi = evolve_exact_series(psi0, h, [t])[0]
        assert np.vdot(psi, h.matrix @ psi).real == pytest.approx(e0, abs=1e-10)


def test_nonuniform_time_grid():
    p = ModeParams()
    w = coherent_amplitudes(1.0, 14)
    h = build_red_sideband(p, 15, 15)
    psi0 = coherent_product_state(BALANCED, w, w, 15, 15)
    times = np.array([0.0, 1.0, 10.0, 100.0])
    series = evolve_exact_series(psi0, h, times)
    for k, t in enumerate(times):
        single = evolve_exact_series(psi0, h, [float(t)])[0]
        assert np.max(np.abs(series[k] - single)) < 1e-10


def test_nonuniform_grid_steps_from_the_previous_time(monkeypatch):
    h = build_red_sideband(ModeParams(), 15, 15)
    psi0 = _basis_block(3)[2]
    times = np.linspace(2000.0, 2500.0, 11)
    times[-1] = 2500.5
    from_zero = np.stack([evolve_exact_series(psi0, h, [t])[0] for t in times])
    # the time each call covers: its operator's largest entry over H's
    scale = abs(h.matrix).max()
    covered = []
    expm_multiply = oracle.expm_multiply

    def measured(a, b, **kwargs):
        covered.append(abs(a).max() / scale)
        return expm_multiply(a, b, **kwargs)

    monkeypatch.setattr(oracle, "expm_multiply", measured)
    series = evolve_exact_series(psi0, h, times)
    assert np.max(np.abs(series - from_zero)) < 1e-12
    assert len(covered) == times.size
    assert sum(covered) == pytest.approx(times[-1], rel=1e-12)


def test_propagator_input_validation():
    p = ModeParams()
    w = coherent_amplitudes(1.0, 14)
    h = build_red_sideband(p, 15, 15)
    psi0 = coherent_product_state(BALANCED, w, w, 15, 15)
    with pytest.raises(ParameterError):
        evolve_exact_series(psi0 * 2.0, h, [1.0])  # not normalized
    with pytest.raises(ParameterError):
        evolve_exact_series(psi0[:-1], h, [1.0])  # wrong dimension
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            evolve_exact_series(psi0, h, np.array([0.0, bad]))


def _basis_block(k):
    """The first ``k`` of |e>, |g>, balanced, each with |1>|1> on 16 levels."""
    w = coherent_amplitudes(1.0, 14)
    qubits = (EXCITED, QubitAmplitudes(0.0, 1.0), BALANCED)[:k]
    return np.stack([coherent_product_state(q0, w, w, 15, 15) for q0 in qubits])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "times",
    [np.linspace(0.0, 5000.0, 21), np.array([0.0, 1.0, 10.0, 100.0, 2500.0])],
    ids=["uniform", "nonuniform"],
)
def test_block_of_states_matches_separate_passes(k, times):
    h = build_red_sideband(ModeParams(), 15, 15)
    block = _basis_block(k)
    series = evolve_exact_series(block, h, times)
    assert series.shape == (times.size, k, h.dimension)
    for j in range(k):
        single = evolve_exact_series(block[j], h, times)
        assert np.max(np.abs(series[:, j] - single)) < 1e-13


def test_block_input_validation():
    h = build_red_sideband(ModeParams(), 15, 15)
    block = _basis_block(3)
    times = np.array([0.0, 1.0])
    unnormalized = block.copy()
    unnormalized[1] *= 1.0 + 1e-9
    for bad in (unnormalized, block[:, :-1], block[None], block[:0]):
        with pytest.raises(ParameterError):
            evolve_exact_series(bad, h, times)


def test_unnormalized_product_state_rejected_by_contract():
    w = coherent_amplitudes(1.0, 14)
    psi = coherent_product_state(BALANCED, w, w, 14, 14)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14  # renormalized; the tail is 3e-13 per mode
    small_grid = coherent_amplitudes(2.0, 6)
    with pytest.raises(ParameterError):
        coherent_product_state(BALANCED, small_grid, small_grid, 5, 5)


# ---------------------------------------------------------------------- fidelity


def test_fidelity_basics():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert fidelity(u, u) == pytest.approx(1.0)
    assert fidelity(u, v) == 0.0
    assert fidelity(u, 1j * u) == pytest.approx(1.0)  # phase invariant
    assert fidelity(u, 3.0 * u) == pytest.approx(1.0)  # scale invariant


def test_fidelity_validation():
    with pytest.raises(ParameterError):
        fidelity(np.ones(3), np.ones(4))
    with pytest.raises(ParameterError):
        fidelity(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------- joint oracle


def test_joint_oracle_at_time_zero_is_bell_state():
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    rho = two_subsystem_oracle(spec, p, 4, 0.0)
    assert np.allclose(rho, bell_state(spec), atol=1e-12)


def test_joint_oracle_density_invariants():
    spec = BellSpec("psi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    for t in (0.0, 200.0, 800.0):
        rho = two_subsystem_oracle(spec, p, 10, t)
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_joint_oracle_memory_budget(monkeypatch):
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    monkeypatch.setattr(oracle, "JOINT_BYTES", 1024)
    with pytest.raises(ResourceError) as err:
        two_subsystem_oracle(spec, p, 12, 1.0)
    assert err.value.required_bytes > err.value.budget_bytes
    assert err.value.budget_bytes == 1024


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_joint_oracle_time_grid_matches_scalar_calls(kind):
    spec = BellSpec(kind, HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    times = np.linspace(0.0, 1000.0, 16)
    grid = two_subsystem_oracle(spec, p, 12, times)
    assert grid.shape == (16, 4, 4)
    for k, t in enumerate(times):
        scalar = two_subsystem_oracle(spec, p, 12, float(t))
        assert scalar.shape == (4, 4)
        assert np.max(np.abs(grid[k] - scalar)) < 1e-12


def test_joint_oracle_time_grid_validation(monkeypatch):
    spec = BellSpec("phi", HALF, HALF)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    for bad in (np.nan, -1.0):
        with pytest.raises(ParameterError):
            two_subsystem_oracle(spec, p, 6, np.array([0.0, bad, 2.0]))
    monkeypatch.setattr(oracle, "JOINT_BYTES", 1024)
    with pytest.raises(ResourceError):
        two_subsystem_oracle(spec, p, 12, np.linspace(0.0, 10.0, 4))
