"""Two noninteracting subsystems: Bell-like states, local maps, concurrence.

The two-qubit basis ordering is ``|1> = |e1 e2|, |2> = |e1 g2>,
|3> = |g1 e2>, |4> = |g1 g2>`` (row-major qubit-1 (x) qubit-2).  Because
the qubits never interact, the composite evolution is the tensor product
of each subsystem's single-qubit process matrix, which preserves product
structure and trace exactly.  Densities are plain arrays, 4x4 or (T, 4, 4).

In the frame ``V^H rho V`` of ``V = diag(1, i)`` a qubit's dilation is real:
both branches of either basis state are real tables.  So a two-qubit density
that starts real in the frame ``D rho D^H``, ``D = V^H (x) V^H =
diag(1, -i, -i, -1)`` (a Bell state with real amplitudes), stays exactly
real there at every time, and :func:`concurrence`, unchanged by local
unitaries, solves a real eigenproblem for it; any other density takes the
complex route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
#: elementwise ``D rho D^H`` for the local unitary ``D = diag(1, -i, -i, -1)``,
#: ``V^H (x) V^H`` with ``V = diag(1, i)`` in the (e, g) basis; its entries
#: are 1, -1 and +-i, so framing a density is exact
_FRAME = np.outer([1, -1j, -1j, -1], [1, 1j, 1j, -1])


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


def bell_state(spec: BellSpec) -> np.ndarray:
    """Pure-state density matrix of the requested Bell-like state at t = 0."""
    if spec.kind == "phi":
        psi = np.array([0.0, spec.mu, spec.upsilon, 0.0], dtype=complex)
    else:
        psi = np.array([spec.mu, 0.0, 0.0, spec.upsilon], dtype=complex)
    return np.outer(psi, psi.conj())


def evolve_two_qubit(rho0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Apply the local map ``m (x) m`` of two identical subsystems, each the
    process matrix of :func:`~vibqubit.dynamics.single_qubit_map`, to a
    two-qubit density matrix.

    Equivalent to mapping each basis operator ``|x1><y1| (x) |x2><y2|`` to
    the tensor product of its single-qubit images, which is exactly the
    expansion of the evolved Bell-state densities into the sixteen
    single-qubit transition terms: with ``rho0`` laid out as ``r0``, rows
    ``(i1, j1)`` of qubit 1 and columns ``(i2, j2)`` of qubit 2, that is
    ``m @ r0 @ m.T``.  A map stacked over T times gives a (T, 4, 4) density.
    """
    rho0, m = np.asarray(rho0), np.asarray(m)
    if rho0.shape != (4, 4) or m.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 density and a (..., 4, 4) map, got shapes {rho0.shape} and {m.shape}")
    lead = m.shape[:-2]
    r0 = rho0.reshape(2, 2, 2, 2).swapaxes(1, 2).reshape(4, 4)
    out = m @ r0 @ np.swapaxes(m, -1, -2)
    return out.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))


def _as_density(rho) -> np.ndarray:
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 density matrix or a stack of them, got shape {mat.shape}")
    # written so that NaN entries fail too
    if not np.all(np.abs(mat - np.swapaxes(mat.conj(), -1, -2)) <= _HERMITIAN_TOL):
        raise ParameterError("density matrix is not Hermitian within 1e-9")
    trace = np.trace(mat, axis1=-2, axis2=-1)
    if not np.all((np.abs(trace.real - 1.0) <= _TRACE_TOL) & (np.abs(trace.imag) <= _TRACE_TOL)):
        raise ParameterError("density matrix trace differs from 1 beyond 1e-9")
    return mat


def concurrence(rho) -> float | np.ndarray:
    """Entanglement of a two-qubit density matrix, in [0, 1].

    With ``rho_tilde = (sy (x) sy) conj(rho) (sy (x) sy)`` and l1 >= ... >= l4
    the square roots of the eigenvalues of ``rho @ rho_tilde``, the result is
    ``max(0, l1 - l2 - l3 - l4)`` (Wootters, PRL 80, 2245, 1998).  It is
    unchanged by a local unitary, so ``rho`` is first taken to the frame
    ``rho' = D rho D^H`` of ``D = diag(1, -i, -i, -1)`` (module docstring).

    Every density this package builds from a Bell state with real
    amplitudes is real there, exactly: each entry of the process matrix is
    real or imaginary with an exact zero in the other part, and the frame's
    phases are exact.  For a real symmetric ``rho'``, ``rho' rho'_tilde = (rho' S)^2`` with ``S = sy
    (x) sy``, so the l_i are the moduli of the eigenvalues of the real
    ``rho' S``: no square roots of rounding-level eigenvalues near a pure
    state, where they cost about half the digits.  A frame with any nonzero
    imaginary entry (oracle densities, complex amplitudes, other local
    frames) takes the complex route: the eigenvalues of ``rho @ rho_tilde``,
    real and non-negative up to rounding, clamped at zero before their
    square roots.  Accepts a 4x4 array or a (T, 4, 4) stack, for which it
    returns the T values.
    """
    mat = _as_density(rho)
    framed = _FRAME * mat
    if framed.imag.any():
        rho_tilde = _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP
        lam = np.linalg.eigvals(mat @ rho_tilde).real
        roots = np.sqrt(np.sort(np.maximum(lam, 0.0), axis=-1))  # increasing
    else:
        roots = np.sort(np.abs(np.linalg.eigvals(framed.real @ _SPIN_FLIP)), axis=-1)
    value = np.clip(roots[..., 3] - roots[..., 2] - roots[..., 1] - roots[..., 0], 0.0, 1.0)
    return value if mat.ndim > 2 else float(value)


def two_qubit_coherence(rho) -> float | np.ndarray:
    """l1 coherence of the 4x4 two-qubit density matrix (sum of |off-diag|),
    one value per matrix of a (T, 4, 4) stack.  Raises ``ParameterError``,
    as :func:`concurrence` does, on a matrix that is not Hermitian or whose
    trace differs from 1 beyond 1e-9."""
    return l1_coherence(_as_density(rho))
