"""Envelope extraction and threshold crossings on synthetic signals."""
import math

import numpy as np
import pytest

from vibqubit import ParameterError, first_crossing_below, revival_peak, upper_envelope


def test_envelope_of_damped_carrier():
    # |cos| carrier under exponential decay: the envelope must follow the
    # decay, not the carrier's nodes
    t = np.linspace(0.0, 20.0, 2001)
    signal = np.exp(-0.2 * t) * np.abs(np.cos(2.0 * math.pi * t))
    env = upper_envelope(t, signal)
    peaks = t[np.isclose(t % 1.0, 0.5, atol=1e-9)]
    for tp in peaks[1:-1]:
        k = int(np.argmin(np.abs(t - tp)))
        assert env[k] == pytest.approx(math.exp(-0.2 * tp), rel=0.05)
    # the envelope never dips to the carrier's zeros away from the ends
    interior = (t > 1.0) & (t < 19.0)
    assert np.min(env[interior]) > 0.5 * np.min(np.exp(-0.2 * t[interior]))


def test_envelope_anchors_inside_plateau():
    # a dead interval must pull the envelope to zero, not be bridged over
    t = np.linspace(0.0, 10.0, 1001)
    signal = np.where((t > 3.0) & (t < 7.0), 0.0, 1.0)
    env = upper_envelope(t, signal)
    mid = (t > 4.0) & (t < 6.0)
    assert np.max(env[mid]) == 0.0


def test_envelope_monotone_signal():
    t = np.linspace(0.0, 5.0, 101)
    env = upper_envelope(t, t.copy())
    assert np.allclose(env, t, atol=1e-12)


def test_first_crossing_below_interpolates():
    times, env = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0])
    # linear segment from 0.5 at t=1 to 0.0 at t=2 hits 0.25 at t=1.5
    assert first_crossing_below(times, env, 0.25) == pytest.approx(1.5)


def test_first_crossing_never():
    assert first_crossing_below(np.array([0.0, 1.0]), np.array([1.0, 0.9]), 0.5) == math.inf


def test_first_crossing_already_below():
    assert first_crossing_below(np.array([2.0, 3.0]), np.array([0.1, 0.05]), 0.5) == 2.0


def test_envelope_input_validation():
    with pytest.raises(ParameterError):
        upper_envelope(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        upper_envelope(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ParameterError):
        upper_envelope(np.array([1.0]), np.array([1.0]))
    # a NaN time fails no difference test, and a NaN value anchored nothing:
    # [1, NaN, 0.2, 0.1] gave a finite envelope that crosses 0.5 at t = 1.667
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            upper_envelope(np.array([0.0, bad, 2.0]), np.zeros(3))
        with pytest.raises(ParameterError, match="finite"):
            upper_envelope(np.arange(4.0), np.array([1.0, bad, 0.2, 0.1]))


def test_first_crossing_input_validation():
    times = np.arange(4.0)
    with pytest.raises(ParameterError, match="finite"):
        first_crossing_below(times, np.array([1.0, math.nan, 0.2, 0.1]), 0.5)
    with pytest.raises(ParameterError, match="finite"):
        first_crossing_below(np.array([0.0, math.nan, 2.0, 3.0]), np.array([1.0, 0.8, 0.2, 0.1]), 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="threshold"):
            first_crossing_below(times, np.array([1.0, 0.8, 0.2, 0.1]), bad)
    # unequal lengths returned 0.5 one way round and raised IndexError the other
    with pytest.raises(ParameterError, match="equal-length"):
        first_crossing_below(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]), 0.5)
    with pytest.raises(ParameterError, match="equal-length"):
        first_crossing_below(np.array([0.0, 1.0]), np.array([1.0, 0.8, 0.0]), 0.5)
    with pytest.raises(ParameterError, match="increasing"):
        first_crossing_below(np.array([0.0, 2.0, 1.0]), np.array([1.0, 0.8, 0.0]), 0.5)


def test_revival_peak_location():
    # collapse followed by a revival bump centered at t=7
    t = np.linspace(0.0, 10.0, 2001)
    signal = np.exp(-3.0 * t) + 0.6 * np.exp(-4.0 * (t - 7.0) ** 2)
    signal *= np.abs(np.cos(12.0 * t))
    when, height = revival_peak(t, signal, (3.0, 10.0))
    assert when == pytest.approx(7.0, abs=0.3)
    assert height == pytest.approx(0.6, abs=0.1)


def test_revival_peak_window_validation():
    t = np.linspace(0.0, 10.0, 101)
    v = np.ones_like(t)
    with pytest.raises(ParameterError):
        revival_peak(t, v, (5.0, 5.0))
    with pytest.raises(ParameterError):
        revival_peak(t, v, (20.0, 30.0))
