"""Coherent-state number distributions and Fock-grid truncation control.

Both bosonic modes (the ion's center-of-mass motion and the cavity field)
start in coherent states with real, non-negative amplitude.  Everything
downstream works on truncated number-state grids, so this module owns the
two decisions that make truncation safe: how the weights are generated
(a stable recurrence instead of explicit factorials) and where the grid is
cut.  :func:`choose_truncation` cuts ``[0, n_max]``, the grid the oracle
works on; :func:`choose_window` cuts the narrowest window ``[n_min, n_max]``
whose two Poisson tails together stay below the tolerance, which starts
above level 0 once ``exp(-mean)`` does, from a mean of about 27.6 at 1e-12.

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


def _check_tail_inputs(mean_excitation: float, tail_tol: float) -> None:
    if not math.isfinite(mean_excitation) or mean_excitation < 0:
        raise ParameterError(f"mean excitation must be finite and >= 0, got {mean_excitation!r}")
    if not (0.0 < tail_tol < 1.0):
        raise ParameterError(f"tail tolerance must lie in (0, 1), got {tail_tol!r}")


def choose_truncation(mean_excitation: float, tail_tol: float) -> int:
    """Smallest ``n_max`` whose Poisson tail mass is below ``tail_tol``.

    The tail beyond each candidate cut is obtained by direct summation of
    Poisson terms (summed smallest-first to avoid cancellation).  Never
    returns less than ``MIN_LEVELS``.

    Raises ``ParameterError`` for a mean past about 708.4, where the seed
    ``exp(-mean)`` of the Poisson recurrence is no longer a normal double:
    the tails lose precision there and, from about 745, underflow to zero,
    which would put the cut at ``MIN_LEVELS`` and drop the whole state.
    :func:`choose_window` has no such limit.
    """
    _check_tail_inputs(mean_excitation, tail_tol)
    p0 = math.exp(-mean_excitation)
    tiny = np.finfo(float).tiny
    if p0 < tiny:
        raise ParameterError(
            f"mean excitation {mean_excitation!r} exceeds the double-precision limit "
            f"{-math.log(tiny):.1f}, past which exp(-mean) underflows"
        )

    # Generous upper bound: far beyond where any double-precision tail
    # above ~1e-300 can live.
    k_hi = int(math.ceil(mean_excitation + 20.0 * math.sqrt(mean_excitation) + 60.0))
    p = np.empty(k_hi + 1)
    p[0] = p0
    for k in range(k_hi):
        p[k + 1] = p[k] * mean_excitation / (k + 1.0)
    # tails[n] = sum_{k > n} p[k], accumulated from the small end.
    tails = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])
    n = int(np.argmax(tails < tail_tol))
    return max(n, MIN_LEVELS)


def choose_window(mean_excitation: float, tail_tol: float) -> tuple[int, int]:
    """Narrowest window ``(n_min, n_max)`` whose two Poisson tails, the mass
    below ``n_min`` and above ``n_max``, sum to less than ``tail_tol``.

    While ``exp(-mean) >= tail_tol`` even level 0 alone holds too much mass
    to drop, so the window is ``(0, choose_truncation(mean, tail_tol))``.
    Past that the Poisson terms are seeded at the mode ``floor(mean)`` in
    log space and run outward by their recurrences; the window then keeps
    at least ``MIN_LEVELS + 1`` levels and has no upper limit on the mean.
    """
    _check_tail_inputs(mean_excitation, tail_tol)
    if math.exp(-mean_excitation) >= tail_tol:
        return 0, choose_truncation(mean_excitation, tail_tol)

    x = mean_excitation
    mode = math.floor(x)
    # as in choose_truncation: no double-precision tail above ~1e-300 lives further out
    reach = int(math.ceil(20.0 * math.sqrt(x) + 60.0))
    lo = max(0, mode - reach)
    p_mode = math.exp(_log_poisson(mode, x))
    above = p_mode * np.cumprod(x / np.arange(mode + 1.0, mode + reach + 1.0))
    below = p_mode * np.cumprod(np.arange(mode, lo, -1.0) / x)
    p = np.concatenate([below[::-1], [p_mode], above])  # levels lo .. mode + reach
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
