"""Coherent-state number distributions and Fock-grid truncation control.

Both bosonic modes (the ion's center-of-mass motion and the cavity field)
start in coherent states with real, non-negative amplitude.  Everything
downstream works on truncated number-state grids, so this module owns the
two decisions that make truncation safe: how the weights are generated
(a stable recurrence instead of explicit factorials) and where the grid is
cut.  One Poisson pass, seeded at the mode in log space, feeds both cuts.
:func:`choose_window` cuts the narrowest window ``[n_min, n_max]`` whose two
Poisson tails together stay below the tolerance; it starts at level 0 below
a mean of about 27.6 at 1e-12, and above level 0 once ``exp(-mean)`` falls
below the tolerance.  :func:`windowed_amplitudes` builds the weights on that
window and is the one way the package builds a coherent input from a
tolerance.  :func:`choose_truncation` cuts ``[0, n_max]`` from the same pass.

Weights are deliberately *not* renormalized after truncation; the dropped
tail mass is recorded instead, so norm checks downstream report truncation
error honestly rather than hiding it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Smallest allowed grid: index shifts k +/- 1 used by the dynamics must
# always be addressable, even for vacuum inputs.
MIN_LEVELS = 4


@dataclass(frozen=True)
class CoherentAmplitudes:
    """Truncated number-state amplitudes of a coherent state.

    Attributes
    ----------
    magnitude : float
        Coherent amplitude (real, >= 0); ``magnitude**2`` is the mean
        excitation number.
    weights : np.ndarray
        ``weights[k - n_min] = exp(-magnitude**2 / 2) * magnitude**k / sqrt(k!)``
        for ``k = n_min .. n_max``.  Read-only.
    n_max : int
        Largest retained Fock index.
    tail_mass : float
        Probability dropped by the truncation, ``1 - sum(weights**2)``.
    n_min : int
        Smallest retained Fock index.
    """

    magnitude: float
    weights: np.ndarray
    n_max: int
    tail_mass: float
    n_min: int = 0

    def __post_init__(self):
        self.weights.setflags(write=False)


def _log_poisson(k: int, mean: float) -> float:
    """``log(exp(-mean) mean**k / k!)`` for ``k >= 0`` and ``mean > 0``.

    As written, ``-mean + k log(mean) - lgamma(k + 1)`` cancels to about
    ``mean log(mean)`` eps of rounding (7e-9 at mean 1e6).  From ``k = 40``
    the Stirling form ``k (log1p(u) - u) - log(2 pi k) / 2 - stirlerr(k)``,
    ``u = (mean - k) / k``, keeps it near ``|mean - k|`` eps; the series of
    ``stirlerr(k) = lgamma(k + 1) - (Stirling's formula)`` is cut after ``k**-5``.
    """
    if k < 40:
        return -mean + k * math.log(mean) - math.lgamma(k + 1.0)
    u = (mean - k) / k
    stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * k * k)) / (k * k)) / k
    return k * (math.log1p(u) - u) - 0.5 * math.log(2.0 * math.pi * k) - stirlerr


def coherent_amplitudes(magnitude: float, n_max: int, n_min: int = 0) -> CoherentAmplitudes:
    """Generate coherent-state weights on the Fock levels ``n_min .. n_max``.

    Uses the recurrence ``w[k+1] = w[k] * magnitude / sqrt(k+1)``, which
    stays finite where the explicit factorial formula would overflow.  It is
    seeded at ``n_min`` in log space (:func:`_log_poisson`), so no weight
    below the window is ever formed; from level 0 the seed is
    ``exp(-magnitude**2 / 2)``.

    Parameters
    ----------
    magnitude : float
        Coherent amplitude, finite and >= 0.
    n_max : int
        Largest Fock index to keep (>= 0).
    n_min : int
        Smallest Fock index to keep, 0 to ``n_max``.

    Raises
    ------
    ParameterError
        If ``magnitude`` is not finite / negative, or ``n_max`` < 0, or
        ``n_min`` outside ``[0, n_max]``, or if the seed weight at ``n_min``
        is below the smallest normal double (from level 0, ``magnitude**2``
        past about 1416.8), where the weights would silently read zero.
    """
    if not math.isfinite(magnitude):
        raise ParameterError(f"coherent amplitude must be finite, got {magnitude!r}")
    if magnitude < 0:
        raise ParameterError(f"coherent amplitude must be >= 0, got {magnitude!r}")
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max!r}")
    if not 0 <= n_min <= n_max:
        raise ParameterError(f"n_min must lie in [0, n_max = {n_max}], got {n_min!r}")

    w = np.empty(n_max - n_min + 1)
    mean = magnitude * magnitude
    if mean == 0.0:  # all the mass at level 0; _log_poisson needs mean > 0
        w[0] = 0.0 if n_min else 1.0
    else:
        w[0] = math.exp(0.5 * _log_poisson(n_min, mean))
        # written so that a NaN seed fails too
        if not w[0] >= np.finfo(float).tiny:
            raise ParameterError(
                f"the weight at level {n_min} is not a normal double at magnitude {magnitude!r}; "
                "windowed_amplitudes seeds the window that holds the mass instead"
            )
    for k in range(n_min, n_max):
        w[k - n_min + 1] = w[k - n_min] * magnitude / math.sqrt(k + 1.0)
    tail = max(0.0, 1.0 - float(np.sum(w * w)))
    return CoherentAmplitudes(
        magnitude=float(magnitude), weights=w, n_max=int(n_max), tail_mass=tail, n_min=int(n_min)
    )


def _poisson_terms(mean_excitation: float, tail_tol: float) -> tuple[int, np.ndarray]:
    """The one Poisson pass both cuts read: ``(lo, p)``, with ``p[i]`` the
    Poisson term of level ``lo + i``, after checking both inputs.

    The terms are seeded at the mode ``floor(mean)`` in log space and run
    outward by their recurrences as far as any double-precision tail above
    about 1e-300 can live, so the mean has no upper limit.  A mean of 0 is
    the point mass at level 0, since :func:`_log_poisson` needs mean > 0.
    """
    x = mean_excitation
    if not math.isfinite(x) or x < 0:
        raise ParameterError(f"mean excitation must be finite and >= 0, got {x!r}")
    if not (0.0 < tail_tol < 1.0):
        raise ParameterError(f"tail tolerance must lie in (0, 1), got {tail_tol!r}")
    if x == 0.0:
        return 0, np.ones(1)
    mode = math.floor(x)
    reach = int(math.ceil(20.0 * math.sqrt(x) + 60.0))
    lo = max(0, mode - reach)
    p_mode = math.exp(_log_poisson(mode, x))
    above = p_mode * np.cumprod(x / np.arange(mode + 1.0, mode + reach + 1.0))
    below = p_mode * np.cumprod(np.arange(mode, lo, -1.0) / x)
    return lo, np.concatenate([below[::-1], [p_mode], above])  # levels lo .. mode + reach


def choose_truncation(mean_excitation: float, tail_tol: float) -> int:
    """Smallest ``n_max >= MIN_LEVELS`` whose Poisson tail above it is below
    ``tail_tol``: the full-grid cut ``[0, n_max]``.

    No module of the package calls it: sweeps, ``verify`` and the test
    helpers take :func:`windowed_amplitudes`.  It stays for one reason only,
    ``perfbench/gate.py`` imports it and ``perfbench/spans.py`` traces it.
    """
    lo, p = _poisson_terms(mean_excitation, tail_tol)
    upper = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])  # as in choose_window
    return max(lo + int(np.argmax(upper < tail_tol)), MIN_LEVELS)


def choose_window(mean_excitation: float, tail_tol: float) -> tuple[int, int]:
    """Narrowest window ``(n_min, n_max)`` whose two Poisson tails, the mass
    below ``n_min`` and above ``n_max``, sum to less than ``tail_tol``.

    While ``exp(-mean) >= tail_tol`` (below a mean of about 27.6 at 1e-12)
    level 0 alone holds too much mass to drop, so the window starts at
    level 0.  It keeps at least ``MIN_LEVELS + 1`` levels; a mean of 0 gives
    ``(0, MIN_LEVELS)``.
    """
    lo, p = _poisson_terms(mean_excitation, tail_tol)
    # lower[i] = sum_{k < lo + i} p and upper[i] = sum_{k > lo + i} p, each
    # accumulated from its small end
    lower = np.concatenate([[0.0], np.cumsum(p)[:-1]])
    upper = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])
    # for each lower cut i, the first upper cut j with lower[i] + upper[j] < tol
    j = np.searchsorted(-upper, lower - tail_tol, side="right")
    width = np.where((lower < tail_tol) & (j < p.size), j - np.arange(p.size), p.size)
    i = int(np.argmin(width))
    return lo + i, max(lo + int(j[i]), lo + i + MIN_LEVELS)


def windowed_amplitudes(mean_excitation: float, tail_tol: float) -> CoherentAmplitudes:
    """Coherent weights of mean excitation ``mean_excitation`` on the window of
    :func:`choose_window`; the dropped mass is checked against ``tail_tol``
    plus the rounding of the recurrence, ``4 (n_max + 1) eps``."""
    n_min, n_max = choose_window(mean_excitation, tail_tol)
    w = coherent_amplitudes(math.sqrt(mean_excitation), n_max, n_min)
    assert w.tail_mass <= tail_tol + 4 * (n_max + 1) * np.finfo(float).eps, w.tail_mass
    return w
