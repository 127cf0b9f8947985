"""l1 coherence and photon-phonon correlation moments."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibqubit import (
    ModeParams,
    ParameterError,
    QubitAmplitudes,
    coherent_amplitudes,
    evolve,
    l1_coherence,
    mode_moments,
    reduced_qubit_density,
    stationary_subsystem,
    vibrating_subsystem,
)
from vibqubit.fock import windowed_amplitudes
from vibqubit.oracle import build_red_sideband, coherent_product_state, evolve_exact_series

BALANCED = QubitAmplitudes(2.0**-0.5, 2.0**-0.5)
EXCITED = QubitAmplitudes(1.0, 0.0)
TILTED = QubitAmplitudes(0.6, 0.8j)


# ---------------------------------------------------------------- l1 coherence


def test_l1_of_balanced_qubit_is_one():
    rho = np.full((2, 2), 0.5)
    assert l1_coherence(rho) == pytest.approx(1.0)


def test_l1_of_population_state_is_zero():
    assert l1_coherence(np.diag([1.0, 0.0])) == 0.0
    assert l1_coherence(np.diag([0.3, 0.7])) == 0.0


def test_l1_of_bell_density_is_one():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert l1_coherence(np.outer(psi, psi)) == pytest.approx(1.0)


def test_l1_rejects_bad_input():
    with pytest.raises(ParameterError):
        l1_coherence(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        l1_coherence(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian


def test_l1_tracks_evolved_qubit():
    p = ModeParams()
    w = windowed_amplitudes(1.0, 1e-12)
    sub = vibrating_subsystem(p, w, w)
    zeta0 = l1_coherence(reduced_qubit_density(evolve(sub, BALANCED, 0.0)))
    assert zeta0 == pytest.approx(1.0, abs=1e-12)
    zeta_exc = l1_coherence(reduced_qubit_density(evolve(sub, EXCITED, 0.0)))
    assert zeta_exc == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- mode moments


def test_cross_correlation_vanishes_at_time_zero():
    # the initial state is a product of the two modes, whatever the sizes
    for a_sq, b_sq in ((0.0, 0.0), (1.0, 1.0), (5.0, 5.0), (1.0, 4.0)):
        p = ModeParams(alpha_mag=math.sqrt(a_sq), beta_mag=math.sqrt(b_sq))
        wa = windowed_amplitudes(a_sq, 1e-12)
        wb = windowed_amplitudes(b_sq, 1e-12)
        sample = mode_moments(vibrating_subsystem(p, wa, wb), BALANCED, 0.0)
        assert abs(sample.cross_corr) < 1e-12
        # truncated <n> sits below the exact mean by about n_max * tail
        assert sample.n_a_mean == pytest.approx(a_sq, abs=1e-9)
        assert sample.n_b_mean == pytest.approx(b_sq, abs=1e-9)


def test_vacuum_rabi_moments_closed_form():
    # from |e, 0, 0>: population sin^2 sits on |g, 1, 1>, so
    # <n_a> = <n_b> = <n_a n_b> = sin^2 and the correlation is sin^2 cos^2
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    for t in (0.0, 11.0, 47.0):
        s = math.sin(p.rabi_rate * t) ** 2
        sample = mode_moments(vibrating_subsystem(p, w, w), EXCITED, t)
        assert sample.n_a_mean == pytest.approx(s, abs=1e-12)
        assert sample.n_b_mean == pytest.approx(s, abs=1e-12)
        assert sample.joint_mean == pytest.approx(s, abs=1e-12)
        assert sample.cross_corr == pytest.approx(s * (1.0 - s), abs=1e-12)
        assert sample.cross_corr >= -1e-12


def test_moments_match_oracle_operator_averages():
    p = ModeParams()
    w = windowed_amplitudes(1.0, 1e-12)
    t = 150.0
    sample = mode_moments(vibrating_subsystem(p, w, w), BALANCED, t)

    h = build_red_sideband(p, w.n_max + 1, w.n_max + 1)
    psi0 = coherent_product_state(BALANCED, w, w, w.n_max + 1, w.n_max + 1)
    psi = evolve_exact_series(psi0, h, [t])[0]
    prob = np.abs(psi.reshape(2, w.n_max + 2, w.n_max + 2)) ** 2
    m = np.arange(w.n_max + 2, dtype=float)
    n_a = float(np.einsum("qmn,m->", prob, m))
    n_b = float(np.einsum("qmn,n->", prob, m))
    joint = float(np.einsum("qmn,m,n->", prob, m, m))
    assert sample.n_a_mean == pytest.approx(n_a, abs=1e-9)
    assert sample.n_b_mean == pytest.approx(n_b, abs=1e-9)
    assert sample.joint_mean == pytest.approx(joint, abs=1e-9)
    assert sample.cross_corr == pytest.approx(joint - n_a * n_b, abs=1e-9)


def test_g2_undefined_for_empty_modes():
    p = ModeParams(alpha_mag=0.0, beta_mag=0.0)
    w = coherent_amplitudes(0.0, 4)
    sample = mode_moments(vibrating_subsystem(p, w, w), EXCITED, 0.0)
    assert math.isnan(sample.g2)
    populated = mode_moments(vibrating_subsystem(p, w, w), EXCITED, 10.0)
    assert math.isfinite(populated.g2)


def test_g2_of_product_coherent_state_is_one():
    p = ModeParams()
    w = windowed_amplitudes(1.0, 1e-12)
    sample = mode_moments(vibrating_subsystem(p, w, w), BALANCED, 0.0)
    assert sample.g2 == pytest.approx(1.0, abs=1e-11)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.0, max_value=2500.0, allow_nan=False))
def test_moment_bounds(t):
    p = ModeParams()
    w = windowed_amplitudes(1.0, 1e-12)
    sample = mode_moments(vibrating_subsystem(p, w, w), BALANCED, t)
    assert 0.0 <= sample.n_a_mean <= w.n_max + 1
    assert 0.0 <= sample.n_b_mean <= w.n_max + 1
    assert sample.joint_mean >= 0.0


def grid_moments(psi, sub):
    """n_a, n_b, joint and cross correlation of a state of ``evolve(sub, ...)``
    (T times), summed over its coefficient grids with absolute Fock levels:
    the grid-by-grid reference of the per-frequency sums."""
    prob = (np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2).reshape(psi.shape[:1] + sub.weights.shape)
    m, n = (o + np.arange(k, dtype=float) for o, k in zip(sub.origin, sub.weights.shape))
    total = prob.sum(axis=(1, 2))
    n_a = np.einsum("tmn,m->t", prob, m) / total
    n_b = np.einsum("tmn,n->t", prob, n) / total
    joint = np.einsum("tmn,m,n->t", prob, m, n) / total
    return n_a, n_b, joint, joint - n_a * n_b


@pytest.mark.parametrize(
    "a_sq, b_sq, times",
    [
        (100.0, 100.0, np.linspace(0.0, 60.0, 13)),  # windowed, levels 36 to 179
        (1.0, 4.0, np.linspace(0.0, 900.0, 31)),
        (0.0, 4.0, np.linspace(0.0, 900.0, 31)),
        (0.0, 0.0, np.linspace(0.0, 900.0, 31)),
    ],
)
def test_binned_moments_match_the_grid(a_sq, b_sq, times):
    p = ModeParams(alpha_mag=math.sqrt(a_sq), beta_mag=math.sqrt(b_sq))
    sub = vibrating_subsystem(p, windowed_amplitudes(a_sq, 1e-12), windowed_amplitudes(b_sq, 1e-12))
    assert (sub.origin == (0, 0)) == (a_sq < 100.0)
    for q0 in (EXCITED, BALANCED, TILTED):
        sample = mode_moments(sub, q0, times)
        n_a, n_b, joint, cross = grid_moments(evolve(sub, q0, times), sub)
        for got, want in ((sample.n_a_mean, n_a), (sample.n_b_mean, n_b), (sample.joint_mean, joint)):
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        # a difference of two terms of size joint
        assert np.allclose(sample.cross_corr, cross, rtol=0.0, atol=1e-13 * np.max(joint))
        defined = n_a * n_b > 1e-15
        assert np.array_equal(np.isnan(sample.g2), ~defined)
        assert np.allclose(sample.g2[defined], joint[defined] / (n_a * n_b)[defined], rtol=1e-13, atol=0.0)
    if a_sq == b_sq == 0.0:
        # from |e, 0, 0> both modes are empty at t = 0; from |g, 0, 0> always
        assert math.isnan(mode_moments(sub, EXCITED, 0.0).g2)
        assert np.all(np.isnan(mode_moments(sub, QubitAmplitudes(0.0, 1.0), times).g2))


def test_moments_of_a_one_mode_subsystem_are_refused():
    p = ModeParams(alpha_mag=0.0, beta_mag=1.0)
    sub = stationary_subsystem(p, coherent_amplitudes(1.0, 14))
    with pytest.raises(ParameterError, match="vibrational and cavity modes"):
        mode_moments(sub, BALANCED, 1.0)
