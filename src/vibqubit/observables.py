"""Observables: l1 coherence and photon-phonon correlation moments.

:func:`l1_coherence` takes one density or a stack of them along a leading
time axis, and :func:`mode_moments` a subsystem, an initial qubit and one
time or an array of times, like :func:`vibqubit.dynamics.evolve`; each
returns one value per density or time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QubitAmplitudes, Subsystem, occupation_sums
from .errors import ParameterError

_HERMITIAN_TOL = 1e-9
#: below this product of mean occupations the normalized second-order
#: coherence has no meaningful value
G2_DENOMINATOR_FLOOR = 1e-15


@dataclass(frozen=True)
class CorrelationSample:
    """Mode occupation moments of one state, plus derived correlations.

    For a state at an array of times every field is an array over them.

    ``cross_corr`` is ``<n_a n_b> - <n_a><n_b>``: positive when the
    vibrational and cavity modes are correlated, negative when
    anti-correlated.  ``g2`` is the normalized intermode second-order
    coherence ``<n_a n_b> / (<n_a><n_b>)``, NaN wherever the denominator
    vanishes.
    """

    n_a_mean: float | np.ndarray
    n_b_mean: float | np.ndarray
    joint_mean: float | np.ndarray
    cross_corr: float | np.ndarray
    g2: float | np.ndarray


def l1_coherence(rho: np.ndarray) -> float | np.ndarray:
    """Sum of the moduli of all off-diagonal density-matrix elements.

    Works on any square Hermitian matrix (used here on 2x2 single-qubit and
    4x4 two-qubit densities), or on a stack of them along leading axes, for
    which it returns one value per matrix.  For a qubit this equals
    ``2 |rho_eg|``.

    Raises
    ------
    ParameterError
        If the input is not square or not Hermitian within 1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {rho.shape}")
    # written so that NaN entries fail too
    if not np.all(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)) <= _HERMITIAN_TOL):
        raise ParameterError("matrix is not Hermitian within 1e-9")
    diagonal = np.diagonal(rho, axis1=-2, axis2=-1)
    value = np.sum(np.abs(rho), axis=(-2, -1)) - np.sum(np.abs(diagonal), axis=-1)
    return value if rho.ndim > 2 else float(value)


def mode_moments(sub: Subsystem, q0: QubitAmplitudes, t: float | np.ndarray) -> CorrelationSample:
    """Occupation moments of both modes of ``evolve(sub, q0, t)``.

    Because the two number operators act on distinct modes and the state is
    pure, ``<n_a n_b>`` is a plain weighted sum over the coefficient grids,
    each grid index weighted by its absolute Fock level; no mode density
    matrix is ever required, and no grid either: the sums are taken per
    block frequency (:func:`vibqubit.dynamics.occupation_sums`).  For an
    array of times every field is an array over those times.  ``g2`` is NaN
    where it is undefined.

    Raises
    ------
    ParameterError
        If ``sub`` has one mode (a stationary subsystem) or a state has no
        weight on the grid.
    """
    total, n_a, n_b, joint = np.atleast_2d(occupation_sums(sub, q0, t)).T
    if np.any(total <= 0.0):
        raise ParameterError("cannot take moments of a zero state")
    # normalize by <psi|psi>: truncation leaves the norm slightly below 1,
    # and raw sums would leak that tail into the cross correlation
    n_a, n_b, joint = n_a / total, n_b / total, joint / total
    denom = n_a * n_b
    g2 = np.divide(joint, denom, out=np.full_like(denom, np.nan), where=denom > G2_DENOMINATOR_FLOOR)
    values = (n_a, n_b, joint, joint - denom, g2)
    if not np.ndim(t):
        values = tuple(float(v[0]) for v in values)
    return CorrelationSample(*values)
