"""Two noninteracting subsystems: Bell-like states, local maps, concurrence.

The two-qubit basis ordering is ``|1> = |e1 e2|, |2> = |e1 g2>,
|3> = |g1 e2>, |4> = |g1 g2>`` (row-major qubit-1 (x) qubit-2).  Because
the qubits never interact, the composite evolution is the tensor product
of each subsystem's single-qubit process matrix, which preserves product
structure and trace exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ProcessMatrix
from .errors import ParameterError
from .observables import l1_coherence

_NORM_TOL = 1e-12
_HERMITIAN_TOL = 1e-9
_TRACE_TOL = 1e-9

#: sigma_y (x) sigma_y in the standard basis; real, symmetric, involutory
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class BellSpec:
    """Bell-like initial state: kind "phi" is ``mu |e1 g2> + upsilon |g1 e2>``,
    kind "psi" is ``mu |e1 e2> + upsilon |g1 g2>``; ``|mu|^2 + |upsilon|^2 = 1``.
    """

    kind: str
    mu: complex
    upsilon: complex

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise ParameterError(f"Bell kind must be 'phi' or 'psi', got {self.kind!r}")
        norm_sq = abs(self.mu) ** 2 + abs(self.upsilon) ** 2
        # written so that a NaN norm fails too
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise ParameterError(f"Bell amplitudes are not normalized: |c|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 density matrix in the standard two-qubit basis, or a (T, 4, 4)
    stack of them over T times."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def bell_state(spec: BellSpec) -> TwoQubitDensity:
    """Pure-state density matrix of the requested Bell-like state at t = 0."""
    if spec.kind == "phi":
        psi = np.array([0.0, spec.mu, spec.upsilon, 0.0], dtype=complex)
    else:
        psi = np.array([spec.mu, 0.0, 0.0, spec.upsilon], dtype=complex)
    return TwoQubitDensity(matrix=np.outer(psi, psi.conj()))


def evolve_two_qubit(rho0: TwoQubitDensity, m: ProcessMatrix) -> TwoQubitDensity:
    """Apply the local map ``m (x) m`` of two identical subsystems to a
    two-qubit density matrix.

    Equivalent to mapping each basis operator ``|x1><y1| (x) |x2><y2|`` to
    the tensor product of its single-qubit images, which is exactly the
    expansion of the evolved Bell-state densities into the sixteen
    single-qubit transition terms.  A map stacked over T times gives a
    (T, 4, 4) density.
    """
    lead = m.matrix.shape[:-2]
    rho4 = rho0.matrix.reshape(2, 2, 2, 2)  # axes (i1, i2, j1, j2)
    m4 = m.matrix.reshape(lead + (2, 2, 2, 2))  # axes (i', j', i, j)
    out = np.einsum("...aceg,...bdfh,efgh->...abcd", m4, m4, rho4)
    return TwoQubitDensity(matrix=out.reshape(lead + (4, 4)))


def _as_density(rho, *, check: bool = True) -> np.ndarray:
    mat = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 density matrix or a stack of them, got shape {mat.shape}")
    if check:
        # written so that NaN entries fail too
        if not np.all(np.abs(mat - np.swapaxes(mat.conj(), -1, -2)) <= _HERMITIAN_TOL):
            raise ParameterError("density matrix is not Hermitian within 1e-9")
        trace = np.trace(mat, axis1=-2, axis2=-1)
        if not np.all((np.abs(trace.real - 1.0) <= _TRACE_TOL) & (np.abs(trace.imag) <= _TRACE_TOL)):
            raise ParameterError("density matrix trace differs from 1 beyond 1e-9")
    return mat


def concurrence(rho) -> float | np.ndarray:
    """Entanglement of a two-qubit density matrix, in [0, 1].

    Computed from the eigenvalues of ``rho @ rho_tilde`` where
    ``rho_tilde = (sy (x) sy) conj(rho) (sy (x) sy)``: with the eigenvalues
    lambda_i sorted in decreasing order, the result is
    ``max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))`` (Wootters, PRL 80,
    2245, 1998).

    ``rho @ rho_tilde`` is similar to a positive semidefinite matrix, so
    its eigenvalues are real and non-negative up to rounding; tiny negative
    real parts are clamped to zero before the square roots.  Accepts a bare
    4x4 array or a :class:`TwoQubitDensity`, or a (T, 4, 4) stack of
    densities, for which it returns the T values.
    """
    mat = _as_density(rho)
    rho_tilde = _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP
    lam = np.linalg.eigvals(mat @ rho_tilde).real
    roots = np.sqrt(np.sort(np.maximum(lam, 0.0), axis=-1))  # increasing
    value = np.clip(roots[..., 3] - roots[..., 2] - roots[..., 1] - roots[..., 0], 0.0, 1.0)
    return value if mat.ndim > 2 else float(value)


def two_qubit_coherence(rho) -> float | np.ndarray:
    """l1 coherence of the 4x4 two-qubit density matrix (sum of |off-diag|),
    one value per matrix of a (T, 4, 4) stack."""
    return l1_coherence(_as_density(rho, check=False))
