"""Brute-force ground truth: truncated Hamiltonians evolved by matrix exponential.

Everything here deliberately avoids the closed-form algebra of
:mod:`vibqubit.dynamics`.  The Hamiltonian is assembled from ladder-operator
matrix elements, states are propagated by one generic sparse matrix
exponential (``expm_multiply``), which knows nothing of the two-level
blocks the Hamiltonian decomposes into, and reduced densities come from
explicit partial traces.  A block of K states that share ``H`` is stepped
as one vector under K copies of ``H`` on the diagonal, which never mix.
Agreement of this module with the analytic one is what the verification
suite is built on.

Truncation convention: callers that want boundary leakage represented
(rather than clipped) should allocate one extra Fock level beyond the grid
their coherent weights populate; :func:`two_subsystem_oracle` does this
internally.  States and densities are plain arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import block_diag, csr_matrix
from scipy.sparse.linalg import expm_multiply

from .composite import BellSpec
from .dynamics import ModeParams, QubitAmplitudes
from .errors import ParameterError, ResourceError
from .fock import CoherentAmplitudes, coherent_amplitudes

_STATE_NORM_TOL = 1e-12
#: upper bound on transient allocations of the two-subsystem oracle,
#: as a multiple of one joint state vector
_JOINT_WORKSPACE_FACTOR = 4
#: bytes one time's joint state of the two-subsystem oracle may take, with workspace
JOINT_BYTES = 4 << 30


@dataclass(frozen=True)
class TruncatedOperator:
    """Sparse Hermitian Hamiltonian on qubit (x) mode-a (x) mode-b.

    Basis ordering: qubit index slowest (0 = excited, 1 = ground), then
    mode-a, then mode-b; see :func:`basis_index`.
    """

    dimension: int
    matrix: csr_matrix


def basis_index(q: int, m: int, n: int, n_max_a: int, n_max_b: int) -> int:
    """Flat index of ``|q, m, n>`` (q = 0 for excited, 1 for ground)."""
    if q not in (0, 1) or not (0 <= m <= n_max_a) or not (0 <= n <= n_max_b):
        raise ParameterError(f"basis labels ({q}, {m}, {n}) outside the truncated space")
    n_b = n_max_b + 1
    return (q * (n_max_a + 1) + m) * n_b + n


def build_red_sideband(p: ModeParams, n_max_a: int, n_max_b: int) -> TruncatedOperator:
    """Assemble ``H / hbar = eta*kappa*(sigma+ a b + sigma- a^dag b^dag)``.

    Ladder elements ``a |m> = sqrt(m) |m-1>`` on each truncated mode give
    the selection rule ``|e, m, n> <-> |g, m+1, n+1>`` with coupling
    ``eta*kappa*sqrt((m+1)(n+1))``; every other element vanishes.  Both
    triangles are emitted so the matrix is Hermitian by construction.
    """
    if n_max_a < 4 or n_max_b < 4:
        raise ParameterError("truncation must keep at least levels 0..4 in each mode")
    rate = p.rabi_rate
    rows, cols, vals = [], [], []
    for m in range(n_max_a):
        for n in range(n_max_b):
            i = basis_index(0, m, n, n_max_a, n_max_b)
            j = basis_index(1, m + 1, n + 1, n_max_a, n_max_b)
            g = rate * math.sqrt((m + 1.0) * (n + 1.0))
            rows += [i, j]
            cols += [j, i]
            vals += [g, g]
    dim = 2 * (n_max_a + 1) * (n_max_b + 1)
    matrix = csr_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(dim, dim)
    )
    return TruncatedOperator(dimension=dim, matrix=matrix)


def build_jaynes_cummings(coupling: float, n_max: int) -> csr_matrix:
    """Resonant single-mode Hamiltonian ``g (sigma+ b + sigma- b^dag)``.

    Basis: qubit slowest (0 = excited), then the mode index, dimension
    ``2 (n_max + 1)``.  Used as the independent route for the
    stationary-qubit baseline.
    """
    levels = n_max + 1
    rows, cols, vals = [], [], []
    for n in range(n_max):
        i = n  # |e, n>
        j = levels + n + 1  # |g, n+1>
        g = coupling * math.sqrt(n + 1.0)
        rows += [i, j]
        cols += [j, i]
        vals += [g, g]
    return csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)), shape=(2 * levels, 2 * levels))


def coherent_product_state(
    q0: QubitAmplitudes,
    wa: CoherentAmplitudes,
    wb: CoherentAmplitudes,
    n_max_a: int,
    n_max_b: int,
) -> np.ndarray:
    """State vector of ``(c_e |e> + c_g |g>) (x) |alpha> (x) |beta>``.

    The target space may allocate more levels than the weights populate
    (the extras start empty); each weight sits at its own Fock level, so a
    window starting above level 0 leaves the levels below it empty too.
    The truncated product is renormalized to unit norm so it satisfies the
    propagator contract.
    """
    if n_max_a < wa.n_max or n_max_b < wb.n_max:
        raise ParameterError("target space is smaller than the populated weight grids")
    grid = np.zeros((n_max_a + 1, n_max_b + 1))
    grid[wa.n_min : wa.n_max + 1, wb.n_min : wb.n_max + 1] = np.outer(wa.weights, wb.weights)
    psi = np.concatenate([q0.c_e * grid.reshape(-1), q0.c_g * grid.reshape(-1)])
    return psi / np.linalg.norm(psi)


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
    other grid is stepped from each time to the next.
    Only ``h.dimension`` and ``h.matrix`` are read.
    """
    state0 = np.asarray(state0, dtype=complex)
    if state0.ndim not in (1, 2) or state0.size == 0 or state0.shape[-1] != h.dimension:
        raise ParameterError(
            f"state has shape {state0.shape}, operator expects ({h.dimension},) or (K, {h.dimension})"
        )
    if not np.all(np.abs(np.linalg.norm(state0, axis=-1) - 1.0) <= _STATE_NORM_TOL):
        raise ParameterError("initial state is not normalized within 1e-12")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError("times must be non-empty, finite and >= 0")
    if state0.ndim == 1:
        return _propagate_expm(h.matrix, state0, times)
    block = block_diag([h.matrix] * state0.shape[0], format="csr")
    return _propagate_expm(block, state0.reshape(-1), times).reshape(times.size, *state0.shape)


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
    spec: BellSpec, p: ModeParams, n_max: int, t: float | np.ndarray
) -> np.ndarray:
    """Evolve two identical subsystems jointly and trace out all four modes.

    Builds the sideband operator once and propagates one subsystem's
    ``|e>`` and ``|g>`` branches, tensored with coherent modes truncated at
    ``n_max``, as one pair over the times ``t`` (the subsystem Hamiltonians
    commute); at each time it forms the Bell-weighted joint vector and
    partial-traces the four modes away.  One extra Fock level per mode
    keeps boundary leakage inside the space.  A scalar ``t`` gives (4, 4),
    an array of T times (T, 4, 4).

    Raises
    ------
    ResourceError
        If one time's joint state vector (with workspace) would exceed
        :data:`JOINT_BYTES`; the required size is reported.
    """
    n_levels_max = n_max + 1  # one extra level beyond the populated grid
    dim_sub = 2 * (n_levels_max + 1) ** 2
    required = 16 * dim_sub * dim_sub * _JOINT_WORKSPACE_FACTOR
    if required > JOINT_BYTES:
        raise ResourceError(
            f"joint state of two subsystems needs ~{required} bytes "
            f"(budget {JOINT_BYTES})",
            required_bytes=required,
            budget_bytes=JOINT_BYTES,
        )

    wa = coherent_amplitudes(p.alpha_mag, n_max)
    wb = coherent_amplitudes(p.beta_mag, n_max)
    h = build_red_sideband(p, n_levels_max, n_levels_max)
    basis = (QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.0, 1.0))
    psi0 = [coherent_product_state(q0, wa, wb, n_levels_max, n_levels_max) for q0 in basis]
    times = np.asarray(t, dtype=float)
    phi = evolve_exact_series(np.stack(psi0), h, times.reshape(-1))
    rho = np.stack([_joint_density(spec, e, g, n_levels_max + 1) for e, g in phi])
    return rho.reshape(times.shape + (4, 4))


def _joint_density(spec: BellSpec, e: np.ndarray, g: np.ndarray, n_lv: int) -> np.ndarray:
    """Two-qubit density of one time's joint vector, built from the images of |e>, |g>."""
    if spec.kind == "phi":
        joint = spec.mu * np.kron(e, g) + spec.upsilon * np.kron(g, e)
    else:
        joint = spec.mu * np.kron(e, e) + spec.upsilon * np.kron(g, g)
    blocks = joint.reshape(2, n_lv, n_lv, 2, n_lv, n_lv)
    qubits_first = blocks.transpose(0, 3, 1, 2, 4, 5).reshape(4, -1)
    return qubits_first @ qubits_first.conj().T
