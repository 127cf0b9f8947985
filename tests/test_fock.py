"""Coherent-state weights and truncation selection."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vibqubit
from vibqubit import ParameterError, coherent_amplitudes, fock
from vibqubit.fock import MIN_LEVELS, choose_truncation, choose_window, windowed_amplitudes

EPS = float(np.finfo(float).eps)


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


def poisson_mass(mean: float, levels) -> float:
    """Independent Poisson mass of ``levels``, term by term in log space."""
    if mean == 0.0:
        return float(0 in levels)
    total = 0.0
    for k in levels:
        log_term = -mean + k * math.log(mean) - math.lgamma(k + 1.0)
        if log_term > -745.0:
            total += math.exp(log_term)
    return total


def window_tails(mean: float, n_min: int, n_max: int) -> float:
    """Poisson mass below ``n_min`` plus above ``n_max``; terms past 40
    standard deviations from the mean are below 1e-300 and left out."""
    reach = int(40 * math.sqrt(mean)) + 400
    return poisson_mass(mean, range(max(0, n_min - reach), n_min)) + poisson_mass(
        mean, range(n_max + 1, n_max + reach)
    )


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
    # exp(-mean) is subnormal from 708.4 and zero from 745; the pass is
    # seeded at the mode, so the cut holds past both
    for mean in (0.5, 1.0, 3.0, 10.0, 708.0, 709.0, 800.0, 1400.0):
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


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
def test_chosen_truncation_keeps_norm(mag):
    w = coherent_amplitudes(mag, choose_truncation(mag * mag, 1e-12))
    assert abs(float(np.sum(w.weights**2)) - 1.0) < 1e-11
    assert 0.0 <= w.tail_mass <= 1e-11


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=708.0, allow_nan=False),
    st.sampled_from((1e-12, 1e-9, 1e-6)),
)
def test_window_is_narrowest_below_tolerance(mean, tol):
    n_min, n_max = choose_window(mean, tol)
    slack = 4 * (n_max + 1) * EPS
    assert 0 <= n_min and n_max - n_min >= MIN_LEVELS
    assert window_tails(mean, n_min, n_max) <= tol + slack
    if n_max - n_min > MIN_LEVELS:
        # dropping one more level at either end fails
        assert window_tails(mean, n_min + 1, n_max) >= tol - slack
        assert window_tails(mean, n_min, n_max - 1) >= tol - slack
    if math.exp(-mean) >= tol:
        # level 0 alone holds too much mass: today's cut and weights, bit for bit
        assert (n_min, n_max) == (0, choose_truncation(mean, tol))
        w = windowed_amplitudes(mean, tol)
        reference = coherent_amplitudes(math.sqrt(mean), n_max)
        assert np.array_equal(w.weights, reference.weights)
        assert w.tail_mass == reference.tail_mass


def test_known_windows():
    # lowest level kept goes above 0 once exp(-mean) < 1e-12, at mean 27.63;
    # 5e-324 is the smallest positive double, 0 the point mass at level 0
    expected = {0.0: (0, MIN_LEVELS), 5e-324: (0, MIN_LEVELS), 25.0: (0, 68), 27.6: (0, 72),
                36.0: (3, 86), 66.7: (18, 132), 100.0: (37, 178), 150.0: (71, 244)}
    for mean, window in expected.items():
        assert choose_window(mean, 1e-12) == window


def test_window_weights_sit_at_their_levels():
    # the same weights as the full grid from level 0, at the same Fock levels
    mean = 100.0
    w = windowed_amplitudes(mean, 1e-12)
    full = coherent_amplitudes(10.0, w.n_max)
    assert (w.n_min, w.weights.size) == (37, w.n_max - 36)
    assert np.allclose(w.weights, full.weights[w.n_min :], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mean", [708.0, 2000.0, 1e4, 1e6])
def test_window_tail_is_honest_past_the_old_limit(mean):
    # the log-space seed keeps the reported tail within rounding of the exact
    # one; seeded with -x + k log x - lgamma(k + 1) as written, it read 1.3e-9 at 1e6
    w = windowed_amplitudes(mean, 1e-12)
    exact = window_tails(mean, w.n_min, w.n_max)
    assert exact < 1e-12
    assert abs(w.tail_mass - exact) <= 4 * (w.n_max + 1) * EPS
    assert w.n_min > 0 and w.n_max > mean


def test_window_parameter_errors():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            choose_window(bad, 1e-12)
    for tol in (0.0, 1.0):
        with pytest.raises(ParameterError):
            choose_window(1.0, tol)
    with pytest.raises(ParameterError):
        coherent_amplitudes(1.0, 5, 6)
    with pytest.raises(ParameterError):
        coherent_amplitudes(1.0, 5, -1)


def test_full_grid_seed_must_be_a_normal_double():
    # exp(-40**2 / 2) underflows to 0: the weights used to come back all zero
    # with tail_mass 1.0; the window of windowed_amplitudes has no such limit
    with pytest.raises(ParameterError, match="windowed_amplitudes"):
        coherent_amplitudes(40.0, 2000)
    # just inside the limit the recurrence runs as before, bit for bit
    w = coherent_amplitudes(37.0, 2000)
    expected = [math.exp(-0.5 * 37.0 * 37.0)]
    for k in range(2000):
        expected.append(expected[-1] * 37.0 / math.sqrt(k + 1.0))
    assert np.array_equal(w.weights, expected)
    assert w.tail_mass == max(0.0, 1.0 - float(np.sum(w.weights * w.weights)))


def test_window_seed_must_be_a_normal_double():
    # exp(-1600 / 2) * 40 underflows at level 1 too: the weights used to come
    # back all zero with tail_mass 1.0
    with pytest.raises(ParameterError, match="level 1"):
        coherent_amplitudes(40.0, 2000, 1)


def test_underflowing_mean_puts_the_mass_at_level_zero():
    # 1e-200 squared is 0.0, whose log the log-space seed cannot take
    w = coherent_amplitudes(1e-200, 4)
    assert w.weights[0] == 1.0
    assert w.tail_mass == 0.0
    assert not np.any(coherent_amplitudes(0.0, 6, 2).weights)



def test_window_past_its_tail_bound_raises(monkeypatch):
    # a window one level short at the top drops more mass than the bound
    window = choose_window
    monkeypatch.setattr(fock, "choose_window", lambda mean, tol: (window(mean, tol)[0], window(mean, tol)[1] - 1))
    for mean in (4.0, 36.0):
        with pytest.raises(ParameterError, match=r"drops tail mass .* past the bound"):
            windowed_amplitudes(mean, 1e-12)


def test_window_tail_check_survives_optimized_mode():
    # the check used to be an assert, which python -O strips: the short
    # window came back quietly
    script = (
        "import sys\n"
        "from vibqubit import fock\n"
        "window = fock.choose_window\n"
        "fock.choose_window = lambda mean, tol: (window(mean, tol)[0], window(mean, tol)[1] - 1)\n"
        "try:\n"
        "    fock.windowed_amplitudes(4.0, 1e-12)\n"
        "except fock.ParameterError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    src = str(Path(vibqubit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    assert proc.stdout.startswith("1 the window [0, 24] drops tail mass"), proc.stdout
