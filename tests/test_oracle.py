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
    windowed_amplitudes,
)
from vibqubit.oracle import (
    TruncatedOperator,
    build_jaynes_cummings,
    build_red_sideband,
    coherent_product_state,
    evolve_coherent,
    evolve_exact_series,
    fidelity,
    two_subsystem_oracle,
)

BALANCED = QubitAmplitudes(2.0**-0.5, 2.0**-0.5)
EXCITED = QubitAmplitudes(1.0, 0.0)
HALF = 2.0**-0.5
#: the sideband rate eta * kappa of the default parameters
RATE = ModeParams().rabi_rate


# ------------------------------------------------------------------ Hamiltonian


def test_sideband_matrix_elements():
    p = ModeParams()
    h = build_red_sideband(p, 6, 6)
    dense = h.matrix.toarray()
    i = np.ravel_multi_index((0, 0, 0), (2, 7, 7))
    j = np.ravel_multi_index((1, 1, 1), (2, 7, 7))
    assert dense[i, j] == pytest.approx(p.rabi_rate)
    i = np.ravel_multi_index((0, 2, 3), (2, 7, 7))
    j = np.ravel_multi_index((1, 3, 4), (2, 7, 7))
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
    with pytest.raises(ParameterError, match="n_max must be >= 0"):
        build_jaynes_cummings(1.0, -1)


def test_jaynes_cummings_elements():
    h = build_jaynes_cummings(2.0, 5)
    dense = h.toarray()
    assert dense[0, 7] == pytest.approx(2.0)  # |e,0> <-> |g,1>
    assert dense[3, 10] == pytest.approx(2.0 * math.sqrt(4.0))  # |e,3> <-> |g,4>
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def test_product_state_places_a_window_at_its_levels():
    wa = coherent_amplitudes(6.0, 86, 3)
    wb = coherent_amplitudes(1.0, 14)
    psi = coherent_product_state(EXCITED, wa, wb, 87, 15)
    grid = psi.reshape(2, 88, 16)[0]
    assert not grid[:3].any() and not grid[87].any()
    # the weights as they are, on the closed form's truncation convention
    assert np.array_equal(grid[3:87, :15], np.outer(wa.weights, wb.weights))


# ------------------------------------------------------------------- propagators


def test_evolution_at_time_zero_is_identity():
    h = build_red_sideband(ModeParams(), 15, 15)
    psi0 = _basis_block(3)[2]  # balanced
    assert np.allclose(evolve_exact_series(psi0, h, [0.0])[0], psi0, atol=1e-12)


def test_vacuum_rabi_oscillation():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    psi = evolve_coherent(p.rabi_rate, [EXCITED], (w, w), [0.7 / p.rabi_rate])[0, 0]
    assert psi[0, 0, 0] == pytest.approx(math.cos(0.7), abs=1e-10)
    assert psi[1, 1, 1] == pytest.approx(-1j * math.sin(0.7), abs=1e-10)


def test_norm_preserved_over_long_times():
    w = coherent_amplitudes(1.0, 14)
    series = evolve_coherent(ModeParams().rabi_rate, [BALANCED], (w, w), np.linspace(0.0, 5000.0, 21))
    norms = np.linalg.norm(series.reshape(21, -1), axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-10


def test_energy_is_conserved():
    h = build_red_sideband(ModeParams(), 15, 15)
    psi0 = _basis_block(3)[2]  # balanced
    e0 = np.vdot(psi0, h.matrix @ psi0).real
    for t in (10.0, 500.0, 2500.0):
        psi = evolve_exact_series(psi0, h, [t])[0]
        assert np.vdot(psi, h.matrix @ psi).real == pytest.approx(e0, abs=1e-10)


def test_nonuniform_time_grid():
    h = build_red_sideband(ModeParams(), 15, 15)
    psi0 = _basis_block(3)[2]  # balanced
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
    h = build_red_sideband(ModeParams(), 15, 15)
    psi0 = _basis_block(3)[2]  # balanced
    for entry in (np.nan, np.inf):
        bad = psi0.copy()
        bad[3] = entry
        with pytest.raises(ParameterError):
            evolve_exact_series(bad, h, [1.0])  # not finite
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
    with_nan, with_inf = block.copy(), block.copy()
    with_nan[1, 3], with_inf[2, 5] = np.nan, np.inf
    for bad in (with_nan, with_inf, block[:, :-1], block[None], block[:0]):
        with pytest.raises(ParameterError):
            evolve_exact_series(bad, h, times)


def test_unnormalized_product_state_rejected_by_contract():
    w = coherent_amplitudes(1.0, 14)
    psi = coherent_product_state(BALANCED, w, w, 14, 14)
    # not rescaled: the norm squared is the kept mass, the tail is 3e-13 per mode
    assert abs(np.vdot(psi, psi).real - (1.0 - w.tail_mass) ** 2) < 1e-15
    small_grid = coherent_amplitudes(2.0, 6)
    with pytest.raises(ParameterError):
        coherent_product_state(BALANCED, small_grid, small_grid, 5, 5)


# ------------------------------------------------------------------ entry point


@pytest.mark.parametrize(
    "intensities, times",
    [((1.0, 4.0), np.linspace(0.0, 400.0, 5)), ((36.0, 36.0), np.array([0.0, 5.0])),
     ((36.0,), np.linspace(0.0, 30.0, 7))],
    ids=["level-0", "windowed", "stationary-windowed"],
)
def test_evolve_coherent_is_the_hand_written_recipe(intensities, times):
    modes = [windowed_amplitudes(x, 1e-12) for x in intensities]
    levels = tuple(w.n_max + 2 for w in modes)
    p = ModeParams()  # only the rates eta * kappa and kappa enter
    qubits = (EXCITED, BALANCED)
    if len(modes) == 2:
        rate, h = p.rabi_rate, build_red_sideband(p, *(n - 1 for n in levels))
        psi0 = [coherent_product_state(q0, *modes, *(n - 1 for n in levels)) for q0 in qubits]
    else:
        rate, h = p.kappa, TruncatedOperator(2 * levels[0], build_jaynes_cummings(p.kappa, levels[0] - 1))
        grid = np.pad(modes[0].weights, (modes[0].n_min, 1))
        psi0 = [np.concatenate([q0.c_e * grid, q0.c_g * grid]).astype(complex) for q0 in qubits]
    out = evolve_coherent(rate, qubits, modes, times)
    assert out.shape == (times.size, 2, 2, *levels)
    flat = out.reshape(times.size, 2, -1)
    assert np.array_equal(flat, evolve_exact_series(np.stack(psi0), h, times))
    for axis, w in enumerate(modes, start=2):
        # at t = 0 nothing lies below the window (n_min is 3 at 36) or on the padding level
        assert not np.take(out[0], [*range(w.n_min), w.n_max + 1], axis=axis).any()
    kept = np.prod([1.0 - w.tail_mass for w in modes])
    want = [(abs(q0.c_e) ** 2 + abs(q0.c_g) ** 2) * kept for q0 in qubits]
    assert np.allclose(np.sum(np.abs(flat) ** 2, axis=-1), want, rtol=0.0, atol=1e-12)


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
    w = coherent_amplitudes(0.0, 4)
    rho = two_subsystem_oracle(spec, RATE, (w, w), 0.0)
    assert np.allclose(rho, bell_state(spec), atol=1e-12)


def test_joint_oracle_density_invariants():
    spec = BellSpec("psi", HALF, HALF)
    w = coherent_amplitudes(1.0, 10)
    kept = (1.0 - w.tail_mass) ** 4  # four truncated modes
    for t in (0.0, 200.0, 800.0):
        rho = two_subsystem_oracle(spec, RATE, (w, w), t)
        assert abs(np.trace(rho).real - kept) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_joint_oracle_memory_budget(monkeypatch):
    spec = BellSpec("phi", HALF, HALF)
    w = coherent_amplitudes(1.0, 12)
    monkeypatch.setattr(oracle, "JOINT_BYTES", 1024)
    with pytest.raises(ResourceError) as err:
        two_subsystem_oracle(spec, RATE, (w, w), 1.0)
    assert err.value.required_bytes > err.value.budget_bytes
    assert err.value.budget_bytes == 1024
    # sized from each mode's own grid, levels 0 .. n_max + 1
    with pytest.raises(ResourceError) as err:
        two_subsystem_oracle(spec, RATE, (w, coherent_amplitudes(1.0, 6)), 1.0)
    assert err.value.required_bytes == 16 * oracle._JOINT_WORKSPACE_FACTOR * (2 * 14 * 8) ** 2


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_joint_oracle_time_grid_matches_scalar_calls(kind):
    spec = BellSpec(kind, HALF, HALF)
    w = coherent_amplitudes(1.0, 12)
    times = np.linspace(0.0, 1000.0, 16)
    grid = two_subsystem_oracle(spec, RATE, (w, w), times)
    assert grid.shape == (16, 4, 4)
    for k, t in enumerate(times):
        scalar = two_subsystem_oracle(spec, RATE, (w, w), float(t))
        assert scalar.shape == (4, 4)
        assert np.max(np.abs(grid[k] - scalar)) < 1e-12


def test_joint_oracle_time_grid_validation(monkeypatch):
    spec = BellSpec("phi", HALF, HALF)
    small, large = coherent_amplitudes(1.0, 6), coherent_amplitudes(1.0, 12)
    for bad in (np.nan, -1.0):
        with pytest.raises(ParameterError):
            two_subsystem_oracle(spec, RATE, (small, small), np.array([0.0, bad, 2.0]))
    monkeypatch.setattr(oracle, "JOINT_BYTES", 1024)
    with pytest.raises(ResourceError):
        two_subsystem_oracle(spec, RATE, (large, large), np.linspace(0.0, 10.0, 4))
