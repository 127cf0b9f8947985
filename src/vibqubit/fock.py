"""Coherent-state number distributions and Fock-grid truncation control.

Both bosonic modes (the ion's center-of-mass motion and the cavity field)
start in coherent states with real, non-negative amplitude.  Everything
downstream works on truncated number-state grids, so this module owns the
two decisions that make truncation safe: how the weights are generated
(a stable recurrence instead of explicit factorials) and where the grid is
cut (smallest size whose Poisson tail is below a tolerance).

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
        ``weights[k] = exp(-magnitude**2 / 2) * magnitude**k / sqrt(k!)``
        for ``k = 0 .. n_max``.  Read-only.
    n_max : int
        Largest retained Fock index.
    tail_mass : float
        Probability dropped by the truncation, ``1 - sum(weights**2)``.
    """

    magnitude: float
    weights: np.ndarray
    n_max: int
    tail_mass: float

    def __post_init__(self):
        self.weights.setflags(write=False)


def coherent_amplitudes(magnitude: float, n_max: int) -> CoherentAmplitudes:
    """Generate coherent-state weights on a truncated Fock grid.

    Uses the recurrence ``w[k+1] = w[k] * magnitude / sqrt(k+1)`` seeded by
    ``w[0] = exp(-magnitude**2 / 2)``, which stays finite where the explicit
    factorial formula would overflow.

    Parameters
    ----------
    magnitude : float
        Coherent amplitude, finite and >= 0.
    n_max : int
        Largest Fock index to keep (>= 0).

    Raises
    ------
    ParameterError
        If ``magnitude`` is not finite / negative, or ``n_max`` < 0.
    """
    if not math.isfinite(magnitude):
        raise ParameterError(f"coherent amplitude must be finite, got {magnitude!r}")
    if magnitude < 0:
        raise ParameterError(f"coherent amplitude must be >= 0, got {magnitude!r}")
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max!r}")

    w = np.empty(n_max + 1)
    w[0] = math.exp(-0.5 * magnitude * magnitude)
    for k in range(n_max):
        w[k + 1] = w[k] * magnitude / math.sqrt(k + 1.0)
    tail = max(0.0, 1.0 - float(np.sum(w * w)))
    return CoherentAmplitudes(magnitude=float(magnitude), weights=w, n_max=int(n_max), tail_mass=tail)


def choose_truncation(mean_excitation: float, tail_tol: float) -> int:
    """Smallest ``n_max`` whose Poisson tail mass is below ``tail_tol``.

    The tail beyond each candidate cut is obtained by direct summation of
    Poisson terms (summed smallest-first to avoid cancellation).  Never
    returns less than ``MIN_LEVELS``.

    Raises ``ParameterError`` for a mean past about 708.4, where the seed
    ``exp(-mean)`` of the Poisson recurrence is no longer a normal double:
    the tails lose precision there and, from about 745, underflow to zero,
    which would put the cut at ``MIN_LEVELS`` and drop the whole state.
    """
    if not math.isfinite(mean_excitation) or mean_excitation < 0:
        raise ParameterError(f"mean excitation must be finite and >= 0, got {mean_excitation!r}")
    if not (0.0 < tail_tol < 1.0):
        raise ParameterError(f"tail tolerance must lie in (0, 1), got {tail_tol!r}")
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
