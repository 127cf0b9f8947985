"""Brute-force ground truth: truncated Hamiltonians evolved by matrix exponential.

Everything here deliberately avoids the closed-form algebra of
:mod:`vibqubit.dynamics`.  The Hamiltonian is assembled from ladder-operator
matrix elements, states are propagated by one generic sparse matrix
exponential (``expm_multiply``), which knows nothing of the two-level
blocks the Hamiltonian decomposes into, and reduced densities come from
explicit partial traces.  :func:`evolve_coherent` is the one entry point:
K qubit states times the coherent modes, stepped as one vector under K
copies of ``H`` on the diagonal, which never mix.  Agreement of this module
with the analytic one is what the verification suite is built on.

Truncation convention, that of :mod:`vibqubit.fock` and the closed form:
states keep the truncated weights unrescaled, so norm squared and trace are
the kept mass; one extra Fock level beyond the populated grid keeps boundary
leakage inside the space.  States and densities are plain arrays, on the
basis of the operators: qubit index slowest (0 = excited, 1 = ground), then
the modes in C order.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.sparse import block_diag, csr_matrix
from scipy.sparse.linalg import expm_multiply

from .composite import BellSpec
from .dynamics import ModeParams, QubitAmplitudes
from .errors import ParameterError, ResourceError
from .fock import CoherentAmplitudes

#: upper bound on transient allocations of the two-subsystem oracle,
#: as a multiple of one joint state vector
_JOINT_WORKSPACE_FACTOR = 4
#: bytes one time's joint state of the two-subsystem oracle may take, with workspace
JOINT_BYTES = 4 << 30


@dataclass(frozen=True)
class TruncatedOperator:
    """Sparse Hermitian sideband Hamiltonian; kept only for ``perfbench/gate.py``.

    Basis ordering: qubit index slowest (0 = excited, 1 = ground), then
    mode-a, then mode-b, so ``|q, m, n>`` sits at
    ``np.ravel_multi_index((q, m, n), (2, n_max_a + 1, n_max_b + 1))``.
    """

    dimension: int
    matrix: csr_matrix


def _sideband(rate: float, shape: tuple[int, ...]) -> csr_matrix:
    """Both triangles of ``|e, k> <-> |g, k+1>`` at ``rate * sqrt(prod(k + 1))``
    over the levels ``0 .. shape[i] - 1`` of each mode."""
    k = np.indices([n - 1 for n in shape]).reshape(len(shape), -1)
    e = np.ravel_multi_index((0, *k), (2, *shape))
    g = np.ravel_multi_index((1, *(k + 1)), (2, *shape))
    coupling = np.tile(rate * np.sqrt(np.prod(k + 1.0, axis=0)), 2).astype(complex)
    dim = 2 * int(np.prod(shape))
    rows, cols = np.concatenate([e, g]), np.concatenate([g, e])
    return csr_matrix((coupling, (rows, cols)), shape=(dim, dim))


def build_red_sideband(p: ModeParams, n_max_a: int, n_max_b: int) -> TruncatedOperator:
    """Assemble ``H / hbar = eta*kappa*(sigma+ a b + sigma- a^dag b^dag)``;
    kept only for ``perfbench/gate.py``.

    Ladder elements ``a |m> = sqrt(m) |m-1>`` on each truncated mode give
    the selection rule ``|e, m, n> <-> |g, m+1, n+1>`` with coupling
    ``eta*kappa*sqrt((m+1)(n+1))``; every other element vanishes.  Both
    triangles are emitted so the matrix is Hermitian by construction.
    """
    if n_max_a < 4 or n_max_b < 4:
        raise ParameterError("truncation must keep at least levels 0..4 in each mode")
    matrix = _sideband(p.rabi_rate, (n_max_a + 1, n_max_b + 1))
    return TruncatedOperator(dimension=matrix.shape[0], matrix=matrix)


def build_jaynes_cummings(coupling: float, n_max: int) -> csr_matrix:
    """Resonant single-mode Hamiltonian ``g (sigma+ b + sigma- b^dag)``.

    Basis: qubit slowest (0 = excited), then the mode index, dimension
    ``2 (n_max + 1)``.  Kept only for ``perfbench/gate.py``.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    return _sideband(coupling, (n_max + 1,))


def _coherent_grid(modes: Sequence[CoherentAmplitudes], shape: tuple[int, ...]) -> np.ndarray:
    """Flattened product of the coherent weights on a grid of ``shape`` from
    level 0, each weight at its own Fock level; every other level is empty."""
    if any(n <= w.n_max for w, n in zip(modes, shape)):
        raise ParameterError("target space is smaller than the populated weight grids")
    grid = np.zeros(shape)
    window = tuple(slice(w.n_min, w.n_max + 1) for w in modes)
    grid[window] = reduce(np.multiply.outer, [w.weights for w in modes])
    return grid.reshape(-1)


def coherent_product_state(
    q0: QubitAmplitudes,
    wa: CoherentAmplitudes,
    wb: CoherentAmplitudes,
    n_max_a: int,
    n_max_b: int,
) -> np.ndarray:
    """State vector of ``(c_e |e> + c_g |g>) (x) |alpha> (x) |beta>`` on levels
    ``0 .. n_max_a`` and ``0 .. n_max_b``; kept only for ``perfbench/gate.py``.

    The truncated weights are kept as they are, so the norm squared is
    ``(|c_e|^2 + |c_g|^2)(1 - wa.tail_mass)(1 - wb.tail_mass)``.
    """
    grid = _coherent_grid((wa, wb), (n_max_a + 1, n_max_b + 1))
    return np.concatenate([q0.c_e * grid, q0.c_g * grid])


def _propagate_expm(matrix: csr_matrix, state0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows of ``exp(-i H t_k) state0`` via scaling-and-squaring Taylor steps.

    A uniform grid of two or more times is one stepper call.  Any other grid
    is walked in order, each time stepped from the one before it (the first
    from t = 0), so the propagated time adds up to ``times[-1]``, not to the
    sum of the times.
    """
    times = np.asarray(times, dtype=float)
    generator = (-1j) * matrix
    steps = np.diff(times)
    if steps.size and np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        return expm_multiply(
            generator,
            state0,
            start=float(times[0]),
            stop=float(times[-1]),
            num=times.size,
            endpoint=True,
        )
    out = np.empty((times.size, state0.size), dtype=complex)
    state, now = state0, 0.0
    for k, t in enumerate(times):
        if t != now:
            state, now = expm_multiply(generator * (t - now), state), t
        out[k] = state
    return out


def evolve_exact_series(
    state0: np.ndarray, h: TruncatedOperator, times: np.ndarray
) -> np.ndarray:
    """Propagate to every time in ``times``; returns shape (len(times), dim).

    A (K, dim) block of states gives shape (len(times), K, dim): it is
    stepped as one vector under K copies of ``h.matrix`` on the diagonal.
    Uniform grids are handed to the batched matrix-exponential stepper in
    one call, which reuses the operator-norm bookkeeping across steps; any
    other grid is stepped from each time to the next.  Any finite state is
    stepped as it is; only ``h.dimension`` and ``h.matrix`` are read.
    """
    state0 = np.asarray(state0, dtype=complex)
    if state0.ndim not in (1, 2) or state0.size == 0 or state0.shape[-1] != h.dimension:
        raise ParameterError(
            f"state has shape {state0.shape}, operator expects ({h.dimension},) or (K, {h.dimension})"
        )
    if not np.all(np.isfinite(state0)):
        raise ParameterError("state has a non-finite entry")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError("times must be non-empty, finite and >= 0")
    if state0.ndim == 1:
        return _propagate_expm(h.matrix, state0, times)
    block = block_diag([h.matrix] * state0.shape[0], format="csr")
    return _propagate_expm(block, state0.reshape(-1), times).reshape(times.size, *state0.shape)


def evolve_coherent(
    rate: float, qubits: Sequence[QubitAmplitudes], modes: Sequence[CoherentAmplitudes], times: np.ndarray
) -> np.ndarray:
    """Each of K qubit states times the coherent ``modes``, evolved to ``times``:
    shape (len(times), K, 2, *levels), qubit index 0 = excited.

    Each mode keeps levels ``0 .. n_max + 1``, its weights at their own levels.
    ``H`` couples ``|e, k> <-> |g, k+1>`` at ``rate * sqrt(prod(k + 1))``: one
    mode at ``kappa`` is the stationary Jaynes-Cummings model, two at
    ``eta * kappa`` the red sideband.  The K states are one block of
    :func:`evolve_exact_series`.
    """
    shape = tuple(w.n_max + 2 for w in modes)
    grid = _coherent_grid(modes, shape)
    states = np.stack([np.concatenate([q.c_e * grid, q.c_g * grid]) for q in qubits])
    h = _sideband(rate, shape)
    series = evolve_exact_series(states, TruncatedOperator(dimension=h.shape[0], matrix=h), times)
    return series.reshape(series.shape[:2] + (2, *shape))


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Squared overlap ``|<u|v>|^2 / (|u|^2 |v|^2)``; insensitive to phase and scale."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    if u.shape != v.shape:
        raise ParameterError(f"dimension mismatch: {u.shape} vs {v.shape}")
    uu = float(np.real(np.vdot(u, u)))
    vv = float(np.real(np.vdot(v, v)))
    if uu == 0.0 or vv == 0.0:
        raise ParameterError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(u, v)) ** 2 / (uu * vv))


def two_subsystem_oracle(
    spec: BellSpec, rate: float, modes: Sequence[CoherentAmplitudes], t: float | np.ndarray
) -> np.ndarray:
    """Evolve two identical subsystems jointly and trace out all four modes.

    Propagates one subsystem's ``|e>`` and ``|g>`` branches, tensored with
    the coherent ``modes``, as one pair of :func:`evolve_coherent` at
    ``rate`` over the times ``t`` (the subsystem Hamiltonians commute); at
    each time it forms the Bell-weighted joint vector and partial-traces the
    four modes away, leaving the kept mass as trace.  One extra Fock level
    per mode keeps boundary leakage inside the space.  A scalar ``t`` gives
    (4, 4), an array of T times (T, 4, 4).

    Raises
    ------
    ResourceError
        If one time's joint state vector (with workspace) would exceed
        :data:`JOINT_BYTES`; the required size is reported.
    """
    dim_sub = 2 * math.prod(w.n_max + 2 for w in modes)
    required = 16 * dim_sub * dim_sub * _JOINT_WORKSPACE_FACTOR
    if required > JOINT_BYTES:
        raise ResourceError(
            f"joint state of two subsystems needs ~{required} bytes "
            f"(budget {JOINT_BYTES})",
            required_bytes=required,
            budget_bytes=JOINT_BYTES,
        )

    basis = (QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.0, 1.0))
    times = np.asarray(t, dtype=float)
    phi = evolve_coherent(rate, basis, modes, times.reshape(-1))
    rho = np.stack([_joint_density(spec, e, g) for e, g in phi])
    return rho.reshape(times.shape + (4, 4))


def _joint_density(spec: BellSpec, e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Two-qubit density of one time's joint state, built from the (2, m, n) images of |e>, |g>."""
    if spec.kind == "phi":
        joint = spec.mu * np.multiply.outer(e, g) + spec.upsilon * np.multiply.outer(g, e)
    else:
        joint = spec.mu * np.multiply.outer(e, e) + spec.upsilon * np.multiply.outer(g, g)
    qubits_first = joint.transpose(0, 3, 1, 2, 4, 5).reshape(4, -1)
    return qubits_first @ qubits_first.conj().T
