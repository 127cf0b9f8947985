"""Coherent-state weights and truncation selection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibqubit import ParameterError, choose_truncation, coherent_amplitudes
from vibqubit.fock import MIN_LEVELS


def poisson_tail(mean: float, n_max: int) -> float:
    """Independent tail oracle: direct summation of Poisson terms in log space."""
    if mean == 0.0:
        return 0.0
    total = 0.0
    # far past any mass representable in double precision
    for k in range(n_max + 400, n_max, -1):
        log_term = -mean + k * math.log(mean) - math.lgamma(k + 1.0)
        if log_term > -745.0:
            total += math.exp(log_term)
    return total


def test_vacuum_weights():
    w = coherent_amplitudes(0.0, 5)
    assert np.array_equal(w.weights, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert w.tail_mass == 0.0


def test_recurrence_matches_factorial_formula():
    mag = 1.7
    w = coherent_amplitudes(mag, 30)
    for k in range(31):
        direct = math.exp(-0.5 * mag * mag) * mag**k / math.sqrt(math.factorial(k))
        if direct > 1e-30:
            assert w.weights[k] == pytest.approx(direct, rel=1e-13)


def test_known_weight_value():
    # w_2 at amplitude sqrt(2) is exp(-1) * 2 / sqrt(2) = sqrt(2)/e
    w = coherent_amplitudes(math.sqrt(2.0), 6)
    assert w.weights[2] == pytest.approx(math.sqrt(2.0) / math.e, rel=1e-14)


def test_norm_close_to_one_on_wide_grid():
    w = coherent_amplitudes(1.0, 40)
    assert abs(float(np.sum(w.weights**2)) - 1.0) < 1e-12


def test_weights_decrease_beyond_mean():
    w = coherent_amplitudes(2.0, 30)
    k0 = int(math.ceil(2.0**2)) + 1
    diffs = np.diff(w.weights[k0:])
    assert np.all(diffs <= 0)


def test_tail_mass_matches_poisson_tail():
    w = coherent_amplitudes(1.0, 14)
    assert w.tail_mass == pytest.approx(poisson_tail(1.0, 14), rel=1e-6)
    assert w.tail_mass == pytest.approx(2.999822612537173e-13, rel=1e-9)


def test_frozen_truncation_table():
    expected = {0.0: 4, 1.0: 14, 2.0: 18, 3.0: 22, 4.0: 25, 5.0: 27, 25.0: 68}
    for mean, n in expected.items():
        assert choose_truncation(mean, 1e-12) == n


def test_truncation_is_smallest_sufficient_cut():
    # 708 sits just below the double-precision limit of exp(-mean)
    for mean in (0.5, 1.0, 3.0, 10.0, 708.0):
        n = choose_truncation(mean, 1e-12)
        assert poisson_tail(mean, n) < 1e-12
        if n > MIN_LEVELS:
            assert poisson_tail(mean, n - 1) >= 1e-12


def test_truncation_floor_for_tiny_states():
    assert choose_truncation(0.0, 1e-12) == MIN_LEVELS
    assert choose_truncation(1e-8, 0.5) == MIN_LEVELS


def test_parameter_errors():
    with pytest.raises(ParameterError):
        coherent_amplitudes(-1.0, 5)
    with pytest.raises(ParameterError):
        coherent_amplitudes(float("nan"), 5)
    with pytest.raises(ParameterError):
        coherent_amplitudes(1.0, -1)
    with pytest.raises(ParameterError):
        choose_truncation(-1.0, 1e-12)
    with pytest.raises(ParameterError):
        choose_truncation(1.0, 0.0)
    with pytest.raises(ParameterError):
        choose_truncation(1.0, 1.0)
    # exp(-mean) is subnormal from 708.4 and zero from 745
    for mean in (709.0, 800.0):
        with pytest.raises(ParameterError):
            choose_truncation(mean, 1e-12)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
def test_chosen_truncation_keeps_norm(mag):
    w = coherent_amplitudes(mag, choose_truncation(mag * mag, 1e-12))
    assert abs(float(np.sum(w.weights**2)) - 1.0) < 1e-11
    assert 0.0 <= w.tail_mass <= 1e-11
