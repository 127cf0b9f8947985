"""Envelope extraction and threshold crossings for oscillatory time series.

The qualitative verification checks compare decay/revival timescales of
signals that oscillate under a slowly varying envelope.  Sampling the raw
signal would confuse a node of the carrier with actual decay, so the checks
run on the upper envelope: local maxima joined by linear interpolation,
with the endpoints kept so the envelope spans the full window.  An envelope
is a plain array on the signal's own time grid.  A signal is at least two
finite samples on strictly increasing times; anything else raises
:class:`ParameterError`, so a NaN cannot read as a plausible crossing time.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError


def _signal(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``values`` as float arrays, checked as a signal (module docstring)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ParameterError("times and values must be equal-length 1-d arrays (>= 2 points)")
    # written so that NaN fails too
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise ParameterError("times and values must be finite, times strictly increasing")
    return times, values


def upper_envelope(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Join the local maxima of ``values`` (plus both endpoints); the
    envelope at every one of ``times``.

    The comparison is non-strict on both sides so plateaus anchor the
    envelope too.  That matters for signals clamped at zero (concurrence
    during a dead interval): a strict-maximum rule would find no anchor
    inside the flat stretch and the interpolant would bridge straight
    across it, instead of reporting the envelope as extinct there.
    """
    times, values = _signal(times, values)
    interior = np.flatnonzero(
        (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    ) + 1
    anchors = np.concatenate([[0], interior, [times.size - 1]])
    return np.interp(times, times[anchors], values[anchors])


def first_crossing_below(times: np.ndarray, envelope: np.ndarray, threshold: float) -> float:
    """Earliest time ``envelope`` reaches ``threshold`` from above.

    The crossing is located by linear interpolation between the
    bracketing samples.  Returns ``inf`` when the envelope never
    drops below the threshold, and the start time when it already
    begins there.
    """
    times, envelope = _signal(times, envelope)
    if not np.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold!r}")
    below = envelope < threshold
    if not np.any(below):
        return float("inf")
    k = int(np.argmax(below))
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    v0, v1 = envelope[k - 1], envelope[k]
    if v0 == v1:
        return float(t1)
    return float(t0 + (v0 - threshold) * (t1 - t0) / (v0 - v1))


def revival_peak(
    times: np.ndarray, values: np.ndarray, window: tuple[float, float]
) -> tuple[float, float]:
    """Largest envelope value inside ``window``; returns ``(time, value)``.

    Used to locate the first revival of an inverted collapse signal: pass a
    window that starts after the collapse has flattened out and the peak of
    the envelope inside it is the revival center.
    """
    envelope = upper_envelope(times, values)
    times = np.asarray(times, dtype=float)
    lo, hi = window
    if not lo < hi:
        raise ParameterError("window must satisfy lo < hi")
    mask = (times >= lo) & (times <= hi)
    if not np.any(mask):
        raise ParameterError("window contains no samples")
    inside = np.flatnonzero(mask)
    k = inside[int(np.argmax(envelope[inside]))]
    return float(times[k]), float(envelope[k])
