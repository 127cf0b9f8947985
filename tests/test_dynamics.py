"""Closed-form sideband evolution against the matrix-exponential oracle."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibqubit import (
    ModeParams,
    ParameterError,
    QubitAmplitudes,
    apply_map,
    dynamics,
    evolve,
    reduced_qubit_density,
    single_qubit_map,
    stationary_subsystem,
    vibrating_subsystem,
)
from vibqubit.errors import ResourceError
from vibqubit.fock import TAIL_TOL, windowed_amplitudes
from vibqubit.observables import mode_moments
from vibqubit.oracle import evolve_coherent, fidelity

BALANCED = QubitAmplitudes(2.0**-0.5, 2.0**-0.5)
EXCITED = QubitAmplitudes(1.0, 0.0)
GROUND = QubitAmplitudes(0.0, 1.0)


def default_params(alpha_sq=1.0, beta_sq=1.0):
    return ModeParams(alpha_mag=math.sqrt(alpha_sq), beta_mag=math.sqrt(beta_sq))


def norm_sq(state):
    """Total probability on the grid, per time: the reduced density's trace."""
    return np.trace(reduced_qubit_density(state), axis1=-2, axis2=-1).real


def branches(psi, sub):
    """The excited and ground branches of a state of ``evolve`` as grids of
    ``sub``, behind the state's time axis if it has one."""
    shape = psi.shape[:-2] + sub.weights.shape
    return psi[..., 0, :].reshape(shape), psi[..., 1, :].reshape(shape)


def oracle_state(q0, p, sub, t):
    """Evolve the truncated product state of ``sub``'s weights by the sparse
    matrix exponential.

    The oracle space matches the analytic grids: one level past each
    coherent truncation.
    """
    return evolve_coherent(p.rabi_rate, [q0], sub.modes, [t])[0, 0]


def oracle_reduced_density(psi):
    return np.einsum("imn,jmn->ij", psi, psi.conj())


# ---------------------------------------------------- coefficient families
# Evolving the pure basis states isolates the four coefficient families of
# the closed form: c_e = 1 gives E = a and F = d, c_g = 1 gives E = b and F = c.


def test_coefficients_at_time_zero():
    sub = vibrating_subsystem(default_params())
    wa, wb = sub.modes
    e_from_e, g_from_e = branches(evolve(sub, EXCITED, 0.0), sub)
    e_from_g, g_from_g = branches(evolve(sub, GROUND, 0.0), sub)
    for m, n in ((0, 0), (1, 2), (5, 3)):
        assert e_from_e[m, n] == pytest.approx(wa.weights[m] * wb.weights[n])  # a
        assert g_from_g[m, n] == pytest.approx(wa.weights[m] * wb.weights[n])  # c
        assert e_from_g[m, n] == 0.0  # b
        assert g_from_e[m, n] == 0.0  # d


def test_lowering_coefficient_dark_for_empty_mode():
    # |g, m, n> with an empty mode cannot have come from any excited state
    sub = vibrating_subsystem(default_params())
    _, g_from_e = branches(evolve(sub, EXCITED, 37.0), sub)
    for m, n in ((0, 0), (0, 3), (3, 0)):
        assert g_from_e[m, n] == 0.0  # d


def test_coefficient_values_against_oracle_amplitudes():
    p = default_params()
    t = 25.0
    m, n = 1, 2

    sub = vibrating_subsystem(p)
    a, d = (x[m, n] for x in branches(evolve(sub, EXCITED, t), sub))
    b, c = (x[m, n] for x in branches(evolve(sub, GROUND, t), sub))
    psi_e = oracle_state(EXCITED, p, sub, t)
    psi_g = oracle_state(GROUND, p, sub, t)
    assert psi_e[0, m, n] == pytest.approx(a, abs=1e-9)
    assert psi_e[1, m, n] == pytest.approx(d, abs=1e-9)
    assert psi_g[0, m, n] == pytest.approx(b, abs=1e-9)
    assert psi_g[1, m, n] == pytest.approx(c, abs=1e-9)


# --------------------------------------------------------------------- evolve


def test_ground_vacuum_is_stationary():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    sub = vibrating_subsystem(p)
    for t in (0.0, 13.0, 400.0):
        e, g = branches(evolve(sub, GROUND, t), sub)
        assert g[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(e)) == 0.0


def test_vacuum_rabi_pair():
    # |e, 0, 0> <-> |g, 1, 1> is an isolated two-level rotation
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    sub = vibrating_subsystem(p)
    for t in (0.0, 7.0, 60.0):
        psi = evolve(sub, EXCITED, t)
        e, g = branches(psi, sub)
        theta = p.rabi_rate * t
        assert e[0, 0] == pytest.approx(math.cos(theta), abs=1e-12)
        assert g[1, 1] == pytest.approx(-1j * math.sin(theta), abs=1e-12)
        assert norm_sq(psi) == pytest.approx(1.0, abs=1e-12)


def test_grids_extend_one_level_past_truncation():
    sub = vibrating_subsystem(default_params())
    wa, wb = sub.modes
    assert sub.weights.shape == (wa.n_max + 2, wb.n_max + 2)
    assert evolve(sub, BALANCED, 11.0).shape == (2, (wa.n_max + 2) * (wb.n_max + 2))


def test_norm_deficit_is_static_truncation_tail():
    # with the extended grids nothing leaks during evolution, so the norm
    # deficit equals the initial tail mass at every time
    sub = vibrating_subsystem(default_params())
    wa, wb = sub.modes
    expected = (1.0 - wa.tail_mass) * (1.0 - wb.tail_mass)
    for t in (0.0, 25.0, 500.0, 2500.0):
        s = evolve(sub, BALANCED, t)
        assert norm_sq(s) == pytest.approx(expected, abs=1e-13)


def test_fidelity_against_oracle_balanced():
    p = default_params()
    sub = vibrating_subsystem(p)
    for t in (2.0 / p.rabi_rate, 500.0, 2500.0):
        analytic = evolve(sub, BALANCED, t)
        exact = oracle_state(BALANCED, p, sub, t)
        assert fidelity(analytic, exact) >= 1.0 - 1e-8


def test_fidelity_against_oracle_large_intensity():
    p = default_params(alpha_sq=4.0, beta_sq=4.0)
    sub = vibrating_subsystem(p)
    analytic = evolve(sub, EXCITED, 300.0)
    exact = oracle_state(EXCITED, p, sub, 300.0)
    assert fidelity(analytic, exact) >= 1.0 - 1e-10


def test_unshifted_lowering_coefficient_breaks_norm():
    # regression for the corrected lowering coefficient: the unshifted
    # variant loses a reproducible 0.1267 of probability by eta*kappa*t = 2
    p = default_params()
    t = 2.0 / p.rabi_rate
    sub = vibrating_subsystem(p)
    bad = evolve(dataclasses.replace(sub, weights_down=sub.weights), BALANCED, t)
    deviation = abs(norm_sq(bad) - 1.0)
    assert deviation > 1e-3
    assert deviation == pytest.approx(0.1267071897586367, abs=1e-12)
    good = evolve(sub, BALANCED, t)
    assert abs(norm_sq(good) - 1.0) < 1e-9


def test_negative_time_rejected():
    # and every time that is not finite
    p = default_params()
    for bad in (-0.5, math.nan, math.inf):
        for t in (bad, np.array([0.0, bad])):
            with pytest.raises(ParameterError):
                evolve(vibrating_subsystem(p), BALANCED, t)
            with pytest.raises(ParameterError):
                evolve(stationary_subsystem(p), BALANCED, t)
            with pytest.raises(ParameterError):
                single_qubit_map(vibrating_subsystem(p), t)


def test_time_past_double_phase_rejected():
    # theta ~ 1e298 keeps no phase: this used to return zeta = 0.1062 at t = 1e300
    p = default_params()
    for sub in (vibrating_subsystem(p), stationary_subsystem(p)):
        limit = dynamics._PHASE_TOL / np.finfo(float).eps / (sub.rate * sub.freqs[-1])
        # the last is a sweep long enough for the spectral sums
        long = np.linspace(0.0, 1.01 * limit, dynamics.SPECTRAL_MIN_TIMES)
        for t in (1e300, np.array([0.0, 1e300]), 1.01 * limit, long):
            with pytest.raises(ParameterError, match="past"):
                evolve(sub, BALANCED, t)
            with pytest.raises(ParameterError, match="past"):
                single_qubit_map(sub, t)
            if sub.weights.ndim == 2:
                with pytest.raises(ParameterError, match="past"):
                    dynamics.occupation_sums(sub, BALANCED, t)
        near = 0.99 * limit
        assert abs(norm_sq(evolve(sub, BALANCED, near)) - 1.0) < 1e-9
        assert np.all(np.isfinite(single_qubit_map(sub, near)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
def test_phase_holds_just_below_the_time_limit():
    # at 0.99 of the limit the largest angle may lose about _PHASE_TOL rad;
    # against angles taken in long double the state still meets the oracle
    # bound, which a looser _PHASE_TOL would not
    p = default_params(alpha_sq=4.0, beta_sq=4.0)
    two_pi = 8 * np.arctan(np.longdouble(1))
    for sub in (vibrating_subsystem(p), stationary_subsystem(p)):
        t = 0.99 * dynamics._PHASE_TOL / np.finfo(float).eps / (sub.rate * sub.freqs[-1])
        theta = np.longdouble(sub.rate) * np.longdouble(t) * sub.freqs.astype(np.longdouble) % two_pi
        cos, sin = (f(theta).astype(float)[None] for f in (np.cos, np.sin))
        reference = dynamics._coefficients(BALANCED) @ dynamics._rotate_blocks(sub, cos, sin).reshape(4, -1)
        # one time, and the last of a uniform grid, reached by stepped phases
        for psi in (evolve(sub, BALANCED, t), evolve(sub, BALANCED, np.linspace(0.0, t, 1001))[-1]):
            assert 1.0 - fidelity(psi, reference) <= 1e-8


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False),
)
def test_norm_conserved_for_any_qubit_state(t, angle):
    q0 = QubitAmplitudes(math.cos(angle), math.sin(angle))
    s = evolve(vibrating_subsystem(default_params()), q0, t)
    assert abs(norm_sq(s) - 1.0) < 1e-9


# ------------------------------------------------------------ reduced density


def test_reduced_density_at_time_zero():
    rho = reduced_qubit_density(evolve(vibrating_subsystem(default_params()), BALANCED, 0.0))
    expected = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(rho, expected, atol=1e-12)


def test_populations_sum_to_one():
    sub = vibrating_subsystem(default_params())
    for t in (3.0, 77.0, 1200.0):
        rho = reduced_qubit_density(evolve(sub, BALANCED, t))
        assert abs(rho[1, 1].real - (1.0 - rho[0, 0].real)) < 1e-9


def test_excited_vacuum_population_oscillates():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    for t in (0.0, 10.0, 42.0):
        rho = reduced_qubit_density(evolve(vibrating_subsystem(p), EXCITED, t))
        assert rho[0, 0].real == pytest.approx(math.cos(p.rabi_rate * t) ** 2, abs=1e-12)


def test_reduced_density_matches_oracle_partial_trace():
    p = default_params(alpha_sq=4.0, beta_sq=4.0)
    t = 150.0
    sub = vibrating_subsystem(p)
    rho = reduced_qubit_density(evolve(sub, BALANCED, t))
    psi = oracle_state(BALANCED, p, sub, t)
    rho_oracle = oracle_reduced_density(psi)
    assert np.max(np.abs(rho - rho_oracle)) < 1e-9


def test_reduced_density_invariants():
    sub = vibrating_subsystem(default_params(alpha_sq=3.0, beta_sq=2.0))
    for t in np.linspace(0.0, 2000.0, 9):
        rho = reduced_qubit_density(evolve(sub, BALANCED, float(t)))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


# ------------------------------------------------------------------ stationary


def test_stationary_excited_vacuum_is_rabi():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    for t in (0.0, 0.3, 2.0):
        rho = reduced_qubit_density(evolve(stationary_subsystem(p), EXCITED, t))
        expected = math.cos(p.kappa * t) ** 2
        assert rho[0, 0].real == pytest.approx(expected, abs=1e-12)


def test_stationary_ground_vacuum_is_dark():
    sub = stationary_subsystem(ModeParams(alpha_mag=0.0, beta_mag=0.0))
    e, g = branches(evolve(sub, GROUND, 5.0), sub)
    assert g[0] == pytest.approx(1.0)
    assert np.max(np.abs(e)) == 0.0


def test_stationary_against_jaynes_cummings_oracle():
    p = ModeParams(alpha_mag=0.0, beta_mag=2.0)
    sub = stationary_subsystem(p)
    times = np.array([1.0, 7.5, 30.0])
    exact = evolve_coherent(p.kappa, [EXCITED], sub.modes, times)[:, 0]
    analytic = evolve(sub, EXCITED, times)
    for k in range(times.size):
        assert fidelity(analytic[k], exact[k]) >= 1.0 - 1e-10


def test_stationary_couples_at_kappa():
    p = ModeParams(kappa=2.5, alpha_mag=0.0, beta_mag=0.0)
    rho = reduced_qubit_density(evolve(stationary_subsystem(p), EXCITED, 0.4))
    assert rho[0, 0].real == pytest.approx(math.cos(2.5 * 0.4) ** 2, abs=1e-12)


# -------------------------------------------------------------- windowed grids
# From a mean of about 27.6 the Fock window starts above level 0 (3 at 36).
# The oracle keeps its grid from level 0, with the window's weights at
# their own levels, so it shares no windowing with the closed form.


def embed(branch, origin, levels):
    """Grids of a windowed state placed at their Fock levels from level 0."""
    full = np.zeros(branch.shape[:-len(origin)] + levels, dtype=complex)
    window = tuple(slice(o, o + n) for o, n in zip(origin, branch.shape[-len(origin):]))
    full[(Ellipsis,) + window] = branch
    return full


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_windowed_grid_pads_one_level_each_side():
    sub = vibrating_subsystem(ModeParams(alpha_mag=6.0, beta_mag=3.0))
    wa, wb = sub.modes
    assert (wa.n_min, wb.n_min) == (3, 0)
    assert sub.origin == (2, 0)
    assert sub.weights.shape == (wa.n_max - wa.n_min + 3, wb.n_max + 2)
    assert not sub.weights[[0, -1]].any() and not sub.weights[:, -1].any()
    assert np.array_equal(sub.weights[1:-1, :-1], np.outer(wa.weights, wb.weights))
    # every block turns at the root of its absolute levels
    m = np.arange(2, wa.n_max + 2)[:, None]
    n = np.arange(wb.n_max + 2)[None, :]
    assert np.array_equal(sub.freqs[sub.up], np.sqrt((m + 1.0) * (n + 1.0)))


def test_windowed_grid_matches_oracle_on_full_grid():
    p = ModeParams(alpha_mag=6.0, beta_mag=6.0)
    sub = vibrating_subsystem(p)
    w = sub.modes[0]
    assert w.n_min == 3
    levels = (w.n_max + 2, w.n_max + 2)  # the oracle's levels 0 .. n_max + 1
    times = np.linspace(0.0, 400.0, 5)
    pair = (EXCITED, BALANCED)
    exact = evolve_coherent(p.rabi_rate, pair, sub.modes, times)  # (time, state, qubit, m, n)
    for j, q0 in enumerate(pair):
        psi = evolve(sub, q0, times)
        # unitary on the padded window: the norm deficit stays the static tail
        assert np.allclose(norm_sq(psi), (1.0 - w.tail_mass) ** 2, rtol=0.0, atol=1e-13)
        full = np.stack([embed(x, sub.origin, levels) for x in branches(psi, sub)], 1)
        rho = reduced_qubit_density(psi)
        # amplitude by amplitude too: from a balanced qubit the level below
        # the window fills from the ground state at the window's lowest level,
        # at about 1e-7 here, far below what the fidelity bound resolves
        assert np.max(np.abs(full - exact[:, j])) <= 1e-11
        for k in range(times.size):
            assert 1.0 - fidelity(full[k], exact[k, j]) <= 1e-8
            rho_exact = oracle_reduced_density(exact[k, j])
            assert trace_distance(rho[k], rho_exact) <= 1e-6
        if q0 is BALANCED:
            assert np.max(np.abs(full[1:, 0, w.n_min - 1])) > 1e-8
            # the moments weight each grid index by its absolute Fock level
            sample = mode_moments(sub, q0, times)
            prob = np.sum(np.abs(exact[:, j]) ** 2, axis=1)
            prob /= prob.sum(axis=(1, 2), keepdims=True)
            m = np.arange(levels[0], dtype=float)
            n_a = np.einsum("tmn,m->t", prob, m)
            n_b = np.einsum("tmn,n->t", prob, m)
            joint = np.einsum("tmn,m,n->t", prob, m, m)
            assert np.allclose(sample.n_a_mean, n_a, rtol=1e-12, atol=0.0)
            assert np.allclose(sample.n_b_mean, n_b, rtol=1e-12, atol=0.0)
            assert np.allclose(sample.joint_mean, joint, rtol=1e-12, atol=0.0)
            assert np.allclose(sample.cross_corr, joint - n_a * n_b, rtol=0.0, atol=1e-9)


def test_windowed_stationary_matches_oracle():
    p = ModeParams(alpha_mag=0.0, beta_mag=6.0)
    sub = stationary_subsystem(p)
    (wb,) = sub.modes
    times = np.linspace(0.0, 30.0, 7)
    exact = evolve_coherent(p.kappa, [BALANCED], sub.modes, times)[:, 0]
    assert sub.origin == (wb.n_min - 1,)
    full = np.stack([embed(x, sub.origin, (wb.n_max + 2,)) for x in branches(evolve(sub, BALANCED, times), sub)], 1)
    for k in range(times.size):
        assert 1.0 - fidelity(full[k], exact[k]) <= 1e-8


def test_subsystems_build_their_windows_from_the_magnitudes():
    # one copy of each input: the weights the oracle reads off a subsystem
    # are windowed_amplitudes of the squared magnitudes, bit for bit, on a
    # window from level 0 and on one above it; the stationary subsystem
    # builds the cavity mode alone and never reads alpha_mag
    for a, b in ((1.0, math.sqrt(2.0)), (6.0, 10.0)):
        p = ModeParams(alpha_mag=a, beta_mag=b)
        wa, wb = (windowed_amplitudes(x * x, TAIL_TOL) for x in (a, b))
        ignored = dataclasses.replace(p, alpha_mag=30.0)
        cases = ((vibrating_subsystem(p), (wa, wb)), (stationary_subsystem(p), (wb,)), (stationary_subsystem(ignored), (wb,)))
        for sub, expected in cases:
            assert len(sub.modes) == len(expected)
            for got, w in zip(sub.modes, expected):
                assert (got.n_min, got.n_max, got.tail_mass) == (w.n_min, w.n_max, w.tail_mass)
                assert got.weights.tobytes() == w.weights.tobytes()
        assert (wa.n_min, wb.n_min) == ((0, 0) if a == 1.0 else (3, 37))


def test_subsystems_and_amplitudes_compare_by_identity():
    # their array fields have no single truth value, so == is identity and
    # both hash like any object: equal inputs build equal but distinct values
    p = default_params(alpha_sq=1.0, beta_sq=4.0)
    pairs = ((vibrating_subsystem(p), vibrating_subsystem(p)), (windowed_amplitudes(4.0, TAIL_TOL), windowed_amplitudes(4.0, TAIL_TOL)))
    for a, b in pairs:
        assert a == a and a != b and not a == b
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
        assert {a: 1, b: 2}[a] == 1


def test_grid_past_its_byte_limit_is_refused(monkeypatch):
    p = default_params(alpha_sq=4.0, beta_sq=1.0)
    wa, wb = vibrating_subsystem(p).modes
    size = 8 * (wa.n_max + 2) * (wb.n_max + 2)
    monkeypatch.setattr(dynamics, "GRID_BYTES", size)
    vibrating_subsystem(p)  # exactly at the limit
    monkeypatch.setattr(dynamics, "GRID_BYTES", size - 1)
    with pytest.raises(ResourceError) as err:
        vibrating_subsystem(p)
    assert err.value.required_bytes == size
    assert f"needs {size} bytes" in str(err.value)


# -------------------------------------------------------------- process matrix


def vibrating_map(p, t):
    return single_qubit_map(vibrating_subsystem(p), t)


def test_map_at_time_zero_is_identity():
    m = vibrating_map(default_params(), 0.0)
    assert np.allclose(m, np.eye(4), atol=1e-9)


def test_map_agrees_with_direct_evolution():
    p = default_params()
    rng = np.random.default_rng(7)
    for t in (5.0, 90.0, 700.0):
        m = vibrating_map(p, t)
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            q0 = QubitAmplitudes(v[0], v[1])
            direct = reduced_qubit_density(evolve(vibrating_subsystem(p), q0, t))
            via_map = apply_map(m, np.outer(v, v.conj()))
            assert np.max(np.abs(direct - via_map)) < 1e-9


def test_map_vacuum_modes_is_rabi_channel():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    t = 33.0
    theta = p.rabi_rate * t
    m = vibrating_map(p, t)
    rho = apply_map(m, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    assert rho[0, 0].real == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    assert rho[1, 1].real == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
    assert abs(rho[0, 1]) < 1e-12


def test_map_is_trace_preserving():
    m = vibrating_map(default_params(alpha_sq=2.0, beta_sq=3.0), 400.0)
    # row (ee) + row (gg) of the map must sum to the trace functional
    trace_row = m[0] + m[3]
    assert np.allclose(trace_row, [1.0, 0.0, 0.0, 1.0], atol=1e-9)


def test_map_is_completely_positive():
    # the Choi matrix sum |i><j| (x) map(|i><j|) is positive semidefinite iff the map is CP
    p = default_params(alpha_sq=2.0, beta_sq=3.0)
    for t in (0.0, 50.0, 1000.0):
        m = vibrating_map(p, t)
        choi = m.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
        assert np.min(np.linalg.eigvalsh(choi)) > -1e-8


def test_map_bounds_its_own_tables(monkeypatch):
    # the map walks its own chunks: no kernel call builds tables for more
    # times than CHUNK_BYTES holds, and the cut leaves the map unchanged
    sub = vibrating_subsystem(default_params())
    times = np.linspace(0.0, 2500.0, 301)
    whole = single_qubit_map(sub, times)
    sizes = []
    rotate = dynamics._rotate_blocks

    def recording(sub, cos, *args, **kwargs):
        sizes.append(cos.shape[0])
        return rotate(sub, cos, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_rotate_blocks", recording)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 7 * 4 * sub.weights.nbytes)
    chunked = single_qubit_map(sub, times)
    assert max(sizes) <= 7
    assert sum(sizes) == 301
    assert np.array_equal(chunked, whole)


def direct_tables(sub, times):
    """The basis tables of every time with cos and sin taken at every time and
    gathered four times, once per table, as the kernel did before it stepped
    phases on uniform grids."""
    theta = (sub.rate * times)[:, None] * sub.freqs
    cos, sin = np.cos(theta), np.sin(theta)
    inner = (slice(1, None),) * sub.up.ndim
    outer = (slice(None, -1),) * sub.up.ndim
    down = np.zeros_like(sub.up)  # freqs[0] = 0 below the grid
    down[inner] = sub.up[outer]
    w = sub.weights
    factors = (
        (cos, sub.up, w), (sin, sub.up, sub.weights_up), (cos, down, w), (sin, down, sub.weights_down)
    )
    return np.stack([trig[:, index] * weight for trig, index, weight in factors], axis=1)


def tables(sub, times):
    """The basis tables of every time, built chunk by chunk of the walk."""
    return np.concatenate([dynamics._rotate_blocks(sub, cos, sin) for _, cos, sin in dynamics._phases(sub, times)])


def walk(sub, times):
    """The walk's cos and sin of every time, stacked."""
    parts = list(dynamics._phases(sub, times))
    length = max(1, dynamics.CHUNK_BYTES // (4 * sub.weights.nbytes))
    cuts = range(0, times.size, length)
    assert [chunk for chunk, _, _ in parts] == [slice(i, min(i + length, times.size)) for i in cuts]
    return np.concatenate([c for _, c, _ in parts]), np.concatenate([s for _, _, s in parts])


def test_stepped_phases_stay_near_direct():
    eps = np.finfo(float).eps
    wide = vibrating_subsystem(ModeParams(alpha_mag=10.0, beta_mag=10.0))
    stationary = stationary_subsystem(default_params(beta_sq=4.0))
    limit = dynamics._PHASE_TOL / eps / (stationary.rate * stationary.freqs[-1])
    sweeps = ((wide, np.linspace(0.0, 2500.0, 5001)), (stationary, np.linspace(0.0, 0.99 * limit, 1001)))
    for sub, times in sweeps:
        for chunk, cos, sin in dynamics._phases(sub, times):
            theta = (sub.rate * times[chunk])[:, None] * sub.freqs
            bound = dynamics.RESEED * 8 * eps + 8 * theta * eps
            assert np.all(np.abs(cos - np.cos(theta)) <= bound)
            assert np.all(np.abs(sin - np.sin(theta)) <= bound)
            # reseeds are direct, bit for bit
            seeds = np.arange(chunk.start, chunk.stop) % dynamics.RESEED == 0
            assert np.array_equal(cos[seeds], np.cos(theta[seeds]))
            assert np.array_equal(sin[seeds], np.sin(theta[seeds]))


def test_tables_of_non_uniform_grids_are_direct():
    p = default_params(alpha_sq=1.0, beta_sq=4.0)
    uniform = np.linspace(0.0, 900.0, 150)
    for sub in (vibrating_subsystem(p), stationary_subsystem(p)):
        # a power law, one time off the step, and a reversed grid stretched by 1e-9 t
        for times in (uniform**1.5 / 30.0, np.r_[uniform[:-1], 901.0], uniform[::-1] * (1 + 1e-9 * uniform[::-1])):
            assert np.array_equal(tables(sub, times), direct_tables(sub, times))
        # a uniform grid: the reseeds are the direct tables too
        stepped = tables(sub, uniform)
        seeds = slice(None, None, dynamics.RESEED)
        assert np.array_equal(stepped[seeds], direct_tables(sub, uniform[seeds]))
        assert np.allclose(stepped, direct_tables(sub, uniform), rtol=0.0, atol=1e-12)


def test_walk_is_the_same_whatever_the_cut(monkeypatch):
    p = default_params(alpha_sq=1.0, beta_sq=4.0)
    times = np.linspace(0.0, 900.0, 200)
    tilted = QubitAmplitudes(0.6, 0.8j)
    for sub in (vibrating_subsystem(p), stationary_subsystem(p)):
        two_modes = sub.weights.ndim == 2  # moments need both modes
        whole = tables(sub, times)
        psi = evolve(sub, BALANCED, times)
        cos, sin = walk(sub, times)
        process = single_qubit_map(sub, times)
        moments = dataclasses.astuple(mode_moments(sub, tilted, times)) if two_modes else ()
        # chunks of 5 times straddle every reseed but the first
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 5 * 4 * sub.weights.nbytes)
        assert np.array_equal(np.concatenate(walk(sub, times)), np.concatenate([cos, sin]))
        chunks = [chunk for chunk, _, _ in dynamics._phases(sub, times)]
        assert [chunk.stop - chunk.start for chunk in chunks][:-1] == [5] * 39
        assert np.array_equal(tables(sub, times), whole)
        assert np.array_equal(evolve(sub, BALANCED, times), psi)
        assert np.array_equal(single_qubit_map(sub, times), process)
        if two_modes:
            cut = dataclasses.astuple(mode_moments(sub, tilted, times))
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(cut, moments))
        monkeypatch.undo()


def test_binned_diagonal_gram_matches_the_grid():
    # the map's six within-branch Gram entries, from what each block moves
    # summed per block frequency, against the full Gram matrix of the basis
    # tables (each map entry is one Gram entry times 1, -1 or +-i); the
    # unshifted variant's lowering weights flow through the bins too
    p = default_params(alpha_sq=1.0, beta_sq=4.0)
    vibrating = vibrating_subsystem(p)
    subs = (
        vibrating,
        vibrating_subsystem(ModeParams(alpha_mag=6.0, beta_mag=6.0)),  # from level 2
        stationary_subsystem(p),
        dataclasses.replace(vibrating, weights_down=vibrating.weights),
    )
    times = np.linspace(0.0, 900.0, 37)
    for sub in subs:
        x = tables(sub, times).reshape(times.size, 4, -1)
        gram = x @ x.transpose(0, 2, 1)
        expected = (gram.reshape(-1, 16) @ dynamics._TRACE_MAP).reshape(-1, 4, 4)
        assert np.allclose(single_qubit_map(sub, times), expected, rtol=0.0, atol=1e-14)


# --------------------------------------------------------------- spectral sums


def walked(monkeypatch, f, *args):
    """``f(*args)`` with every sweep walked, however long."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "SPECTRAL_MIN_TIMES", math.inf)
        return f(*args)


SPECTRAL_CASES = ("(1, 4) from level 0", "windowed (36, 36)", "stationary, beta^2 = 4", "from t = 2500", "SPECTRAL_MIN_TIMES times")


def spectral_case(name):
    p = default_params(alpha_sq=1.0, beta_sq=4.0)
    long = np.linspace(0.0, 2500.0, 2001)
    return {
        "(1, 4) from level 0": (vibrating_subsystem(p), long),
        # from level 2
        "windowed (36, 36)": (vibrating_subsystem(ModeParams(alpha_mag=6.0, beta_mag=6.0)), long),
        "stationary, beta^2 = 4": (stationary_subsystem(p), long),
        # the grid of verify's correlation floor
        "from t = 2500": (vibrating_subsystem(default_params()), np.linspace(2500.0, 5000.0, 1251)),
        "SPECTRAL_MIN_TIMES times": (vibrating_subsystem(p), np.linspace(0.0, 900.0, dynamics.SPECTRAL_MIN_TIMES)),
    }[name]


@pytest.mark.parametrize("name", SPECTRAL_CASES)
def test_spectral_sums_match_the_walk(name, monkeypatch):
    # the map within 1e-11, the occupation sums within 1e-11 of their largest
    # value, and the first time walked, bit for bit
    sub, times = spectral_case(name)
    calls = []
    tone_sums = dynamics._tone_sums
    monkeypatch.setattr(dynamics, "_tone_sums", lambda *args: calls.append(1) or tone_sums(*args))
    process, expected = single_qubit_map(sub, times), walked(monkeypatch, single_qubit_map, sub, times)
    assert calls, "the sweep did not take the spectral sums"
    assert np.max(np.abs(process - expected)) <= 1e-11
    assert np.array_equal(process[0], expected[0])
    if sub.weights.ndim == 2:
        tilted = QubitAmplitudes(0.6, 0.8j)
        sums = dynamics.occupation_sums(sub, tilted, times)
        exact = walked(monkeypatch, dynamics.occupation_sums, sub, tilted, times)
        assert np.all(np.abs(sums - exact) <= 1e-11 * np.max(np.abs(exact), axis=0))
        assert np.array_equal(sums[0], exact[0])


def test_short_or_non_uniform_sweeps_walk(monkeypatch):
    # one time fewer than SPECTRAL_MIN_TIMES, and a longer grid that is not
    # uniform, take the walk alone and give its values bit for bit
    sub = vibrating_subsystem(default_params(alpha_sq=1.0, beta_sq=4.0))
    short = np.linspace(0.0, 900.0, dynamics.SPECTRAL_MIN_TIMES - 1)
    uneven = np.linspace(0.0, 30.0, dynamics.SPECTRAL_MIN_TIMES + 100) ** 2
    for times in (short, uneven):
        expected = walked(monkeypatch, single_qubit_map, sub, times)
        sums = walked(monkeypatch, dynamics.occupation_sums, sub, BALANCED, times)
        monkeypatch.setattr(dynamics, "_tone_sums", None)  # a call would fail
        assert np.array_equal(single_qubit_map(sub, times), expected)
        assert np.array_equal(dynamics.occupation_sums(sub, BALANCED, times), sums)
        monkeypatch.undo()


def test_map_rejects_bad_density_shape():
    m = vibrating_map(default_params(), 1.0)
    with pytest.raises(ParameterError):
        apply_map(m, np.eye(3))
    with pytest.raises(ParameterError, match=r"\(\.\.\., 4, 4\) map"):
        apply_map(np.eye(3), np.eye(2))


def test_stationary_map_mode():
    m = single_qubit_map(stationary_subsystem(ModeParams(alpha_mag=0.0, beta_mag=1.0)), 2.0)
    trace_row = m[0] + m[3]
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
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            ModeParams(alpha_mag=bad)
        with pytest.raises(ParameterError):
            ModeParams(beta_mag=bad)
