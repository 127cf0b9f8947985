"""Observables: l1 coherence and photon-phonon correlation moments.

Each takes one state or density, or a stack of them along a leading time
axis, and returns one value per state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import GlobalState
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
    coherence ``<n_a n_b> / (<n_a><n_b>)``, ``None`` whenever the
    denominator vanishes.
    """

    n_a_mean: float | np.ndarray
    n_b_mean: float | np.ndarray
    joint_mean: float | np.ndarray
    cross_corr: float | np.ndarray
    g2: float | np.ndarray | None


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
    rho = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {rho.shape}")
    # written so that NaN entries fail too
    if not np.all(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)) <= _HERMITIAN_TOL):
        raise ParameterError("matrix is not Hermitian within 1e-9")
    diagonal = np.diagonal(rho, axis1=-2, axis2=-1)
    value = np.sum(np.abs(rho), axis=(-2, -1)) - np.sum(np.abs(diagonal), axis=-1)
    return value if rho.ndim > 2 else float(value)


def _powers(levels: int) -> np.ndarray:
    """Columns ``1`` and ``k`` over the Fock levels ``k < levels``."""
    k = np.arange(levels, dtype=float)
    return np.stack([np.ones_like(k), k], axis=1)


def mode_moments(s: GlobalState) -> CorrelationSample:
    """Occupation moments of both modes evaluated on the pure global state.

    Because the two number operators act on distinct modes and the state is
    pure, ``<n_a n_b>`` is a plain weighted sum over the coefficient grids;
    no mode density matrix is ever required.  For a state at an array of
    times every field is an array over those times, with ``g2`` NaN where
    it is undefined.
    """
    lead = np.ndim(s.time)
    prob = s.probability()
    prob = prob.reshape((-1,) + prob.shape[lead:])  # (T, N_a, N_b)
    # the weights 1, m, n and m n factor over the two axes: sum over n with
    # (1, n), then over m with (1, m); each product is one matrix per time,
    # so a time's sums never depend on how many are stacked
    by_m = prob @ _powers(prob.shape[2])
    sums = by_m.transpose(0, 2, 1) @ _powers(prob.shape[1])
    total, n_a, n_b, joint = sums.reshape(-1, 4).T
    if np.any(total <= 0.0):
        raise ParameterError("cannot take moments of a zero state")
    # normalize by <psi|psi>: truncation leaves the norm slightly below 1,
    # and raw sums would leak that tail into the cross correlation
    n_a, n_b, joint = n_a / total, n_b / total, joint / total
    denom = n_a * n_b
    defined = denom > G2_DENOMINATOR_FLOOR
    g2 = np.divide(joint, denom, out=np.full_like(denom, np.nan), where=defined)
    values = (n_a, n_b, joint, joint - denom, g2)
    if lead:
        return CorrelationSample(*values)
    n_a, n_b, joint, cross, g2 = (float(v[0]) for v in values)
    return CorrelationSample(n_a, n_b, joint, cross, g2 if defined[0] else None)
