"""Analytic time evolution of a vibrating qubit coupled to two bosonic modes.

The interaction couples the qubit ladder to both modes at once:
``H / hbar = eta * kappa * (sigma+ a b + sigma- a^dag b^dag)``,
so the only transitions are ``|e, m, n> <-> |g, m+1, n+1>``.  Each such pair
is an isolated two-level block rotating at ``eta*kappa*sqrt((m+1)(n+1))``,
which is what makes a closed-form propagator possible on a truncated grid.

Mode labels used throughout: index ``m`` (grid axis 0, "mode a") is the
vibrational / phonon mode with coherent amplitude ``alpha_mag``; index ``n``
(axis 1, "mode b") is the cavity / photon mode with amplitude ``beta_mag``.

Also provided here: the stationary-qubit baseline (resonant single-mode
Jaynes-Cummings evolution with the vibrational mode removed) and the 4x4
process matrix that propagates an arbitrary initial qubit density matrix,
obtained by evolving the two qubit basis states and tracing out the modes.

Time is a batch axis: every function that takes a time ``t`` also takes a
1-d array of times and then returns results stacked along a leading time
axis; a scalar time is the length-1 case of the same computation.
:func:`time_chunks` cuts a long sweep into pieces whose basis tables fit
:data:`CHUNK_BYTES`, and every row of a sweep is the same whatever the cut.
:func:`single_qubit_map` walks those pieces itself (its result is 16 numbers
per time); :func:`evolve` builds every time it is given, so its callers do.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fock import CoherentAmplitudes

_NORM_TOL = 1e-12
_AMPLITUDE_RTOL = 1e-9
_LAMB_DICKE_MAX = 0.3
_LAMB_DICKE_WARN = 0.1
#: bytes the four basis tables of one chunk of a time sweep may take; the
#: chunk length follows from the grid size
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class ModeParams:
    """Physical parameters of one qubit + cavity + vibration subsystem.

    ``eta`` is the Lamb-Dicke parameter (dimensionless, must stay small),
    ``kappa`` the qubit-cavity coupling rate, which also drives the
    motionless-qubit baseline.  ``alpha_mag`` / ``beta_mag`` are the
    coherent amplitudes of the vibrational and cavity modes.
    """

    eta: float = 0.02
    kappa: float = 1.0
    alpha_mag: float = 1.0
    beta_mag: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= _LAMB_DICKE_MAX):
            raise ParameterError(
                f"Lamb-Dicke parameter must lie in (0, {_LAMB_DICKE_MAX}], got {self.eta!r}"
            )
        if self.eta > _LAMB_DICKE_WARN:
            warnings.warn(
                f"Lamb-Dicke parameter {self.eta} is large for a first-order expansion",
                stacklevel=3,
            )
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ParameterError(f"coupling kappa must be > 0, got {self.kappa!r}")
        # written so that NaN and inf fail too
        if not all(x >= 0 and math.isfinite(x) for x in (self.alpha_mag, self.beta_mag)):
            raise ParameterError("coherent amplitudes must be finite and >= 0")

    @property
    def rabi_rate(self) -> float:
        """Sideband rate ``eta * kappa`` setting the vibrating-qubit clock."""
        return self.eta * self.kappa


@dataclass(frozen=True)
class QubitAmplitudes:
    """Pure qubit state ``c_e |e> + c_g |g>``, normalized within 1e-12."""

    c_e: complex
    c_g: complex

    def __post_init__(self):
        norm_sq = abs(self.c_e) ** 2 + abs(self.c_g) ** 2
        # written so that a NaN norm fails too
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise ParameterError(f"qubit amplitudes are not normalized: |c|^2 = {norm_sq!r}")


def _coefficients(q0: QubitAmplitudes) -> np.ndarray:
    """Coefficients (2, 4) of the branches E and G over the basis tables
    (A, B, C, D) of :func:`_rotate_blocks`: ``E = c_e A - i c_g B`` and
    ``G = c_g C - i c_e D``."""
    return np.array([[q0.c_e, -1j * q0.c_g, 0, 0], [0, 0, q0.c_g, -1j * q0.c_e]])


def _gram(tables: np.ndarray) -> np.ndarray:
    """Sums over the grid of the products of each pair of the four tables,
    (T, 4, 4) for tables of shape (T, 4, *grid); a real ``X X^T`` per time."""
    x = tables.reshape(tables.shape[:2] + (-1,))
    return x @ x.transpose(0, 2, 1)


@dataclass(frozen=True)
class GlobalState:
    """Pure state ``sum E[m, n] |m, n> (x) |e> + G[m, n] |m, n> (x) |g>``.

    Held as the real basis ``tables`` (T, 4, *grid) of :func:`_rotate_blocks`
    and the initial amplitudes ``q0``, which fix the branches; T = 1 for a
    scalar ``time``, and for an array of times every result carries a
    leading time axis.  The grids carry whatever norm the truncated
    evolution left them with; see :meth:`norm_sq`.
    """

    q0: QubitAmplitudes
    tables: np.ndarray
    time: float | np.ndarray

    def __post_init__(self):
        self.tables.setflags(write=False)

    def _per_time(self, x: np.ndarray) -> np.ndarray:
        return x if np.ndim(self.time) else x[0]

    def _branch(self, c_x: complex, x: int, c_y: complex, y: int) -> np.ndarray:
        """``c_x X - i c_y Y`` for tables ``X``, ``Y``, built one real part at a time."""
        c_x, c_y = complex(c_x), complex(c_y)
        out = np.empty(self.tables[:, x].shape, dtype=complex)
        out.real = c_x.real * self.tables[:, x] + c_y.imag * self.tables[:, y]
        out.imag = c_x.imag * self.tables[:, x] - c_y.real * self.tables[:, y]
        return self._per_time(out)

    @property
    def e_branch(self) -> np.ndarray:
        """Coefficient grid ``E = c_e A - i c_g B`` of ``|m, n> (x) |e>``."""
        return self._branch(self.q0.c_e, 0, self.q0.c_g, 1)

    @property
    def g_branch(self) -> np.ndarray:
        """Coefficient grid ``G = c_g C - i c_e D`` of ``|m, n> (x) |g>``."""
        return self._branch(self.q0.c_g, 2, self.q0.c_e, 3)

    def probability(self) -> np.ndarray:
        """``|E|^2 + |G|^2`` on the grid, straight from the real tables."""
        a, b, c, d = np.moveaxis(self.tables, 1, 0)
        c_e, c_g = complex(self.q0.c_e), complex(self.q0.c_g)
        # the cross terms of |c_e A - i c_g B|^2 + |c_g C - i c_e D|^2
        cross = 2.0 * (c_e * c_g.conjugate()).imag
        prob = abs(c_e) ** 2 * (a * a + d * d) + abs(c_g) ** 2 * (b * b + c * c)
        prob -= cross * (a * b - c * d)
        return self._per_time(prob)

    def norm_sq(self) -> float | np.ndarray:
        """Total probability on the grid (1 minus truncation losses), per time."""
        total = np.trace(reduced_qubit_density(self), axis1=-2, axis2=-1).real
        return total if np.ndim(self.time) else float(total)


@dataclass(frozen=True)
class ProcessMatrix:
    """Linear map on vectorized 2x2 qubit densities, ordering (ee, eg, ge, gg).

    Built by unitary dilation over the two modes followed by a partial
    trace, so it is trace preserving and completely positive up to
    truncation error.  ``matrix`` is 4x4, or (T, 4, 4) for a map at an
    array of T times.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Propagate a 2x2 density matrix through the map; stacked like the map."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ParameterError(f"expected a 2x2 density matrix, got shape {rho.shape}")
        return (self.matrix @ rho.reshape(4)).reshape(self.matrix.shape[:-2] + (2, 2))

    def choi(self) -> np.ndarray:
        """Choi matrix of a single map; positive semidefinite iff the map is CP."""
        return self.matrix.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


@dataclass(frozen=True)
class Subsystem:
    """The two-level blocks of one qubit and its modes, set up once per sweep.

    ``weights`` holds the initial mode weights on an N-d grid padded by one
    level per axis.  The block through ``|e, k>`` turns at
    ``rate * freqs[up[k]]``, and ``down[k] = up[k-1]`` indexes the block one
    level down (``freqs[0] = 0`` stands in below the grid).  ``freqs`` lists
    each distinct block frequency once, so the trig runs once per distinct
    frequency and is gathered onto the grid.
    """

    weights: np.ndarray
    rate: float
    freqs: np.ndarray
    up: np.ndarray
    down: np.ndarray


def _check_consistent(
    p: ModeParams, wa: CoherentAmplitudes | None, wb: CoherentAmplitudes
) -> None:
    for name, mag, w in (("alpha_mag", p.alpha_mag, wa), ("beta_mag", p.beta_mag, wb)):
        if w is not None and abs(w.magnitude - mag) > _AMPLITUDE_RTOL * max(1.0, mag):
            raise ParameterError(
                f"{name}={mag} disagrees with the supplied weights (magnitude {w.magnitude})"
            )


def _padded(w: CoherentAmplitudes) -> np.ndarray:
    return np.concatenate([w.weights, [0.0]])


def _subsystem(w: np.ndarray, rate: float, root: np.ndarray) -> Subsystem:
    freqs, inverse = np.unique(np.concatenate([[0.0], root.ravel()]), return_inverse=True)
    up = inverse[1:].reshape(root.shape)
    return Subsystem(weights=w, rate=rate, freqs=freqs, up=up, down=_shift(up, -1))


def vibrating_subsystem(
    p: ModeParams, wa: CoherentAmplitudes, wb: CoherentAmplitudes
) -> Subsystem:
    """Blocks ``|e, m, n> <-> |g, m+1, n+1>`` at ``eta*kappa*sqrt((m+1)(n+1))``.

    The grids have ``n_max + 2`` entries per axis (one level past the input
    truncation), so the norm deficit of every evolved state equals the
    truncation tail mass of the two coherent inputs, independent of time.
    """
    _check_consistent(p, wa, wb)
    m = np.arange(wa.n_max + 2, dtype=float)[:, None]
    n = np.arange(wb.n_max + 2, dtype=float)[None, :]
    w = np.outer(_padded(wa), _padded(wb))
    return _subsystem(w, p.rabi_rate, np.sqrt((m + 1.0) * (n + 1.0)))


def stationary_subsystem(p: ModeParams, wb: CoherentAmplitudes) -> Subsystem:
    """Motionless-qubit baseline: Jaynes-Cummings blocks ``|e, n> <-> |g, n+1>``
    at ``kappa*sqrt(n+1)``; only the cavity mode participates."""
    _check_consistent(p, None, wb)
    return _subsystem(_padded(wb), p.kappa, np.sqrt(np.arange(wb.n_max + 2, dtype=float) + 1.0))


def _times(t: float | np.ndarray) -> np.ndarray:
    """``t`` as a 1-d array of times, each finite and >= 0."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    # written so that NaN fails too
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError(f"times must be a non-empty 1-d set of finite values >= 0, got {t!r}")
    return times


def _shift(x: np.ndarray, k: int, fill: float = 0.0) -> np.ndarray:
    """``x`` moved by ``k`` = +1 or -1 along every axis.

    ``out[i] = x[i + k]``, and ``fill`` where ``i + k`` is off the grid.
    """
    src = (slice(1, None),) * x.ndim
    dst = (slice(None, -1),) * x.ndim
    if k < 0:
        src, dst = dst, src
    out = np.full_like(x, fill)
    out[dst] = x[src]
    return out


def _rotate_blocks(sub: Subsystem, times: np.ndarray, unshifted_d: bool = False) -> np.ndarray:
    """Real basis tables of every block ``|e, k> <-> |g, k+1>``, shape (T, 4, *grid).

    ``k+1`` steps every grid axis up by one.  With ``theta = rate*t*root``
    the tables are

    - ``A[k] = w[k] cos(theta[k])`` and ``B[k] = w[k+1] sin(theta[k])``;
    - ``C[k] = w[k] cos(theta[k-1])`` and ``D[k] = w[k-1] sin(theta[k-1])``,

    with every term below the grid reading 0 (``theta = 0`` there: a ground
    state touching an empty mode is dark).  The weights are real, so for
    any initial qubit ``c_e |e> + c_g |g>`` the excited and ground branches
    are ``E = c_e A - i c_g B`` and ``G = c_g C - i c_e D``.  The padding
    level captures everything the rotation feeds from the truncated input,
    so the evolution is exactly unitary on it and the norm deficit is the
    static truncation tail.

    The lowering term must carry the index-shifted weights ``w[k-1]``: the
    transition that populates ``|g, k>`` starts from ``|e, k-1>``.
    ``unshifted_d=True`` uses ``w[k]`` instead, a norm-violating variant
    kept only as the falsification control of the verification suite.
    """
    w = sub.weights
    theta = (sub.rate * times)[:, None] * sub.freqs
    cos, sin = np.cos(theta), np.sin(theta)
    factors = (
        (cos, sub.up, w),
        (sin, sub.up, _shift(w, 1)),
        (cos, sub.down, w),
        (sin, sub.down, w if unshifted_d else _shift(w, -1)),
    )
    tables = np.empty((times.size, 4) + w.shape)
    for table, (trig, index, weight) in zip(np.moveaxis(tables, 1, 0), factors):
        np.take(trig, index, axis=1, out=table, mode="clip")  # indices are in range
        table *= weight
    return tables


def time_chunks(sub: Subsystem, n_times: int) -> Iterator[slice]:
    """Consecutive slices of a sweep over ``n_times`` times whose basis
    tables fit :data:`CHUNK_BYTES` (at least one time per slice)."""
    step = max(1, CHUNK_BYTES // (4 * sub.weights.nbytes))
    for start in range(0, n_times, step):
        yield slice(start, min(start + step, n_times))


def evolve(
    sub: Subsystem, q0: QubitAmplitudes, t: float | np.ndarray, unshifted_d: bool = False
) -> GlobalState:
    """Closed-form evolution of ``q0`` times the coherent modes to time(s) ``t``.

    See :func:`_rotate_blocks` for ``unshifted_d``.
    """
    times = _times(t)
    tables = _rotate_blocks(sub, times, unshifted_d)
    return GlobalState(q0=q0, tables=tables, time=times if np.ndim(t) else float(t))


def reduced_qubit_density(s: GlobalState) -> np.ndarray:
    """Trace out both modes; returns the 2x2 density in the (e, g) basis.

    Stacked as (T, 2, 2) for a state at T times.  The ground population is
    reported as computed from the grids, not forced to ``1 - rho_ee``;
    their agreement is asserted by tests.
    """
    k = _coefficients(s.q0)
    return s._per_time(k @ _gram(s.tables) @ k.conj().T)


#: branch coefficients of the two qubit basis states, rows (E, G) from
#: |e> then (E, G) from |g>
_BASIS_BRANCHES = np.concatenate(
    [_coefficients(QubitAmplitudes(1.0, 0.0)), _coefficients(QubitAmplitudes(0.0, 1.0))]
)


def single_qubit_map(sub: Subsystem, t: float | np.ndarray) -> ProcessMatrix:
    """Process matrix of the qubit channel at time(s) ``t``.

    ``sub`` is the subsystem, e.g. ``vibrating_subsystem(p, wa, wb)`` or
    ``stationary_subsystem(p, wb)``.  The two qubit basis states are evolved
    through the full dilation and the modes traced out; the columns of the
    returned matrix are the vectorized images of
    ``|e><e|, |e><g|, |g><e|, |g><g|``.  This is a genuine linear map on
    density matrices: multiplying summed-over-grid 2x2 operators on both
    sides instead would generate cross terms between distinct grid points
    and fail to reproduce the reduced density.

    Every mode trace is a fixed complex combination of the entries of one
    real Gram matrix of the four basis tables per time (:func:`_gram`).
    Times go through :func:`time_chunks`; only the (T, 4, 4) result spans them all.
    """
    times = _times(t)
    k = _BASIS_BRANCHES
    # traces[u, v] = sum over the grid of branch u times conj(branch v)
    traces = np.empty((times.size, 4, 4), dtype=complex)
    for chunk in time_chunks(sub, times.size):
        traces[chunk] = k @ _gram(_rotate_blocks(sub, times[chunk])) @ k.conj().T
    # branch u = 2 * (input basis state) + (output qubit level)
    matrix = traces.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(-1, 4, 4)
    return ProcessMatrix(matrix=matrix if np.ndim(t) else matrix[0])
