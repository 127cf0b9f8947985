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
The map is a plain array, applied to a density by :func:`apply_map`.

Time is a batch axis: every function that takes a time ``t`` also takes a
1-d array of times and then returns results stacked along a leading time
axis; a scalar time is the length-1 case of the same computation.
One walk, :func:`_phases`, yields the cos and sin of every block angle in
pieces whose basis tables fit :data:`CHUNK_BYTES`; on a uniform grid it
steps the phases from one time to the next.  Every
row of a sweep is the same whatever the cut.  :func:`single_qubit_map`
keeps 16 numbers per time, :func:`occupation_sums` 4, and :func:`evolve`
the whole state, a plain complex array of the excited and ground branches.

Each term of a branch's squared norm turns with one block frequency, so
the map's diagonal Gram entries and the mode moments are sums over the
distinct frequencies, weighted once per call by :func:`_bins`: a time
costs one row of cos^2, sin^2 and cos sin (:func:`_trig_rows`), not a pass
over the Fock grid.  Only the map's cross terms between the excited and
ground branches pair two frequencies and read the basis tables.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError
from .fock import CoherentAmplitudes

_NORM_TOL = 1e-12
_AMPLITUDE_RTOL = 1e-9
_LAMB_DICKE_MAX = 0.3
_LAMB_DICKE_WARN = 0.1
#: rad a rotation angle may lose to rounding (theta * eps); a phase error d
#: costs fidelity d**2, so 1e-4 rad keeps the 1e-8 of the oracle bound
_PHASE_TOL = 1e-4
#: bytes the four basis tables of one chunk of a time sweep may take; the
#: chunk length follows from the grid size
CHUNK_BYTES = 1 << 19
#: on a uniform time grid, cos and sin are taken directly at every RESEED-th
#: time and stepped in between, at a cost of about RESEED * 8 eps of phase
RESEED = 64
#: bytes one float grid of a subsystem may take; a sweep holds about a dozen
#: such grids (weights, block indices, one time's tables and reductions)
GRID_BYTES = 1 << 26


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


@dataclass(frozen=True)
class Subsystem:
    """The two-level blocks of one qubit and its modes, set up once per sweep.

    ``weights`` holds the initial mode weights on an N-d grid whose index
    ``i`` is Fock level ``origin + i``, padded by one empty level past each
    end of the weights' window (at the low end only when the window starts
    above level 0); ``weights_up[k] = weights[k+1]`` and
    ``weights_down[k] = weights[k-1]`` are the same grid moved by one level.
    The block through ``|e, k>`` turns at ``rate * freqs[up[k]]``, and the
    one feeding ``|g, k>`` at ``rate * freqs[down[k]]``, ``down[k] =
    up[k-1]`` (``freqs[0] = 0`` stands in below the grid, where every
    weight is 0 or level 0 is dark, so ``down`` is 0 on the low faces).
    ``freqs`` lists each distinct block frequency once, so the trig runs
    once per distinct frequency and is gathered onto the grid.
    """

    weights: np.ndarray
    weights_up: np.ndarray
    weights_down: np.ndarray
    origin: tuple[int, ...]
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


def _axis(w: CoherentAmplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Fock levels of one grid axis and the weights on them: the window of
    ``w`` padded by one empty level above and, unless it starts at 0, below."""
    below = 1 if w.n_min else 0
    levels = np.arange(w.n_min - below, w.n_max + 2, dtype=float)
    return levels, np.concatenate([[0.0] * below, w.weights, [0.0]])


def _subsystem(rate: float, *modes: CoherentAmplitudes) -> Subsystem:
    """Blocks ``|e, k> <-> |g, k+1>`` at ``rate * sqrt(prod(k + 1))`` over the
    product grid of the modes' padded windows."""
    levels, weights = zip(*(_axis(w) for w in modes))
    size = 8 * math.prod(k.size for k in levels)
    if size > GRID_BYTES:
        shape = " x ".join(str(k.size) for k in levels)
        raise ResourceError(
            f"a Fock grid of {shape} levels needs {size} bytes per array",
            required_bytes=size,
            budget_bytes=GRID_BYTES,
        )
    w = functools.reduce(np.multiply.outer, weights)
    root = np.sqrt(functools.reduce(np.multiply.outer, (k + 1.0 for k in levels)))
    freqs, inverse = np.unique(np.concatenate([[0.0], root.ravel()]), return_inverse=True)
    up = inverse[1:].reshape(root.shape)
    return Subsystem(
        weights=w,
        weights_up=_shift(w, 1),
        weights_down=_shift(w, -1),
        origin=tuple(int(k[0]) for k in levels),
        rate=rate,
        freqs=freqs,
        up=up,
        down=_shift(up, -1),
    )


def vibrating_subsystem(
    p: ModeParams, wa: CoherentAmplitudes, wb: CoherentAmplitudes
) -> Subsystem:
    """Blocks ``|e, m, n> <-> |g, m+1, n+1>`` at ``eta*kappa*sqrt((m+1)(n+1))``.

    Each grid axis spans the input window plus one level past it at each
    end, so the norm deficit of every evolved state equals the truncation
    tail mass of the two coherent inputs, independent of time.

    Raises :class:`ResourceError` if one grid would take more than
    :data:`GRID_BYTES`.
    """
    _check_consistent(p, wa, wb)
    return _subsystem(p.rabi_rate, wa, wb)


def stationary_subsystem(p: ModeParams, wb: CoherentAmplitudes) -> Subsystem:
    """Motionless-qubit baseline: Jaynes-Cummings blocks ``|e, n> <-> |g, n+1>``
    at ``kappa*sqrt(n+1)``; only the cavity mode participates."""
    _check_consistent(p, None, wb)
    return _subsystem(p.kappa, wb)


def _times(t: float | np.ndarray) -> np.ndarray:
    """``t`` as a 1-d array of times, each finite and >= 0."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    # written so that NaN fails too
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError(f"times must be a non-empty 1-d set of finite values >= 0, got {t!r}")
    return times


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` moved by ``k`` = +1 or -1 along every axis.

    ``out[i] = x[i + k]``, and 0 where ``i + k`` is off the grid.
    """
    src = (slice(1, None),) * x.ndim
    dst = (slice(None, -1),) * x.ndim
    if k < 0:
        src, dst = dst, src
    out = np.zeros_like(x)
    out[dst] = x[src]
    return out


def _rotate_blocks(sub: Subsystem, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Real basis tables of every block ``|e, k> <-> |g, k+1>``, shape (T, 4, *grid).

    ``cos`` and ``sin`` (T, F) are those of ``theta = rate*t*freqs`` at each
    time of a chunk (:func:`_phases`).  ``k+1`` steps every grid axis up by
    one, and the tables are

    - ``A[k] = w[k] cos(theta[k])`` and ``B[k] = w[k+1] sin(theta[k])``;
    - ``C[k] = w[k] cos(theta[k-1])`` and ``D[k] = w[k-1] sin(theta[k-1])``,

    with every term below the grid reading 0 (``theta = 0`` there: a ground
    state touching an empty mode is dark).  The weights are real, so for
    any initial qubit ``c_e |e> + c_g |g>`` the excited and ground branches
    are ``E = c_e A - i c_g B`` and ``G = c_g C - i c_e D``.  The padding
    level captures everything the rotation feeds from the truncated input,
    so the evolution is exactly unitary on it and the norm deficit is the
    static truncation tail.

    The trig is gathered onto the grid once: C and D take A's and B's, one
    level down on every axis.

    The lowering term must carry the index-shifted weights ``w[k-1]``: the
    transition that populates ``|g, k>`` starts from ``|e, k-1>``.  Both
    shifted weight grids come ready-made with ``sub``, so a subsystem whose
    ``weights_down`` is ``weights`` itself runs the norm-violating unshifted
    variant (the falsification control of the verification suite).
    """
    w = sub.weights
    tables = np.empty((cos.shape[0], 4) + w.shape)
    a, b, c, d = np.moveaxis(tables, 1, 0)
    np.take(cos, sub.up, axis=1, out=a, mode="clip")  # indices are in range
    np.take(sin, sub.up, axis=1, out=b, mode="clip")
    for axis in range(1, c.ndim):  # freqs[0] = 0 below the grid
        face = (slice(None),) * axis + (0,)
        c[face], d[face] = 1.0, 0.0
    rest = (slice(None),) + (slice(1, None),) * w.ndim
    prev = (slice(None),) + (slice(None, -1),) * w.ndim
    c[rest], d[rest] = a[prev], b[prev]
    a *= w
    b *= sub.weights_up
    c *= w
    d *= sub.weights_down
    return tables


#: (row, column) of the six Gram entries that turn with one block frequency,
#: by the trig product they take (cos^2, sin^2, cos sin) and the block index
#: they take it at (``up``, ``down``): AA and CC, BB and DD, AB and CD
_DIAGONAL = (((0, 0), (2, 2)), ((1, 1), (3, 3)), ((0, 1), (2, 3)))


def _bins(sub: Subsystem, mix: np.ndarray, powers: tuple = (1.0,)) -> np.ndarray:
    """(3, F, K P) weights that take a time's rows of :func:`_trig_rows` to
    sums over the grid: column ``(k, p)`` of trig product ``b`` sums
    ``mix[b, s, k] * powers[p]`` (a grid or a scalar) times the terms of
    the Gram entry ``_DIAGONAL[b][s]``, binned by block frequency one grid
    at a time."""
    f, w = sub.freqs.size, sub.weights
    out = np.zeros((3, f, mix.shape[-1], len(powers)))
    for s, (index, shifted) in enumerate(((sub.up, sub.weights_up), (sub.down, sub.weights_down))):
        for b, terms in enumerate((w * w, shifted * shifted, w * shifted)):
            for k, p in itertools.product(np.flatnonzero(mix[b, s]), range(len(powers))):
                weight = mix[b, s, k] * terms * powers[p]
                out[b, :, k, p] += np.bincount(index.ravel(), weight.ravel(), minlength=f)
    return out.reshape(3, f, -1)


def _trig_rows(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """cos^2, sin^2 and cos sin of each time's block angles, (T, 3, 1, F):
    one row per time and product, so a product with :func:`_bins` is one
    per time."""
    rows = np.empty((cos.shape[0], 3, 1, cos.shape[1]))
    for row, (x, y) in zip(np.moveaxis(rows[:, :, 0], 1, 0), ((cos, cos), (sin, sin), (cos, sin))):
        np.multiply(x, y, out=row)
    return rows


def _phases(sub: Subsystem, times: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The walk of a sweep: cos and sin (T, F) of the block angles
    ``theta = rate * t * freqs`` for each chunk, in order: a slice of at
    least one time whose basis tables fit :data:`CHUNK_BYTES`.

    A uniform grid (``t_i = t_0 + i h`` within ``4 eps max(t)``) takes them
    directly at every :data:`RESEED`-th index and in between steps the phase,
    across chunks, by ``exp(i rate h freqs)``: within about ``RESEED * 8 eps
    + 8 theta eps`` of direct, and the same whatever the cut.  Any other grid
    takes them directly at every time.  A time whose largest angle would lose
    more than ``_PHASE_TOL`` rad to rounding raises :class:`ParameterError`.
    """
    eps = np.finfo(float).eps
    if sub.rate * times.max() * sub.freqs[-1] * eps > _PHASE_TOL:
        limit = _PHASE_TOL / eps / (sub.rate * sub.freqs[-1])
        raise ParameterError(
            f"time {times.max():.6g} is past {limit:.6g}, beyond which the rotation "
            f"angles lose more than {_PHASE_TOL:g} rad to double rounding"
        )
    n, angle = times.size, sub.rate * times
    h = (times[-1] - times[0]) / max(n - 1, 1)
    uniform = np.max(np.abs(times - (times[0] + np.arange(n) * h))) <= 4 * eps * times.max()
    reseed, step = (RESEED if uniform else 1), np.exp(1j * (sub.rate * h * sub.freqs))
    length = max(1, CHUNK_BYTES // (4 * sub.weights.nbytes))
    for start in range(0, n, length):
        chunk = slice(start, min(start + length, n))
        z = np.empty((chunk.stop - chunk.start, sub.freqs.size), dtype=complex)
        for row, i in enumerate(range(chunk.start, chunk.stop)):
            if i % reseed:
                np.multiply(last, step, out=z[row])
            else:
                theta = angle[i] * sub.freqs
                z.real[row], z.imag[row] = np.cos(theta), np.sin(theta)
            last = z[row]
        yield chunk, z.real, z.imag


def evolve(sub: Subsystem, q0: QubitAmplitudes, t: float | np.ndarray) -> np.ndarray:
    """Closed-form evolution of ``q0`` times the coherent modes to time(s) ``t``.

    The state ``sum E[k] |k> (x) |e> + G[k] |k> (x) |g>`` as a complex array
    (2, N), or (T, 2, N) for an array of T times: row 0 is the excited branch
    ``E`` and row 1 the ground branch ``G``, each the subsystem's grid
    flattened in C order (``sub.weights.shape``, index ``i`` of an axis at
    Fock level ``sub.origin[axis] + i``).  On a grid from level 0 this is the
    oracle's basis order.  The state keeps whatever norm the truncated
    evolution left it: the trace of :func:`reduced_qubit_density`.  Every
    time given is held at once.
    """
    times = _times(t)
    k = _coefficients(q0)
    psi = np.empty((times.size, 2, sub.weights.size), dtype=complex)
    for chunk, cos, sin in _phases(sub, times):
        psi[chunk] = k @ _rotate_blocks(sub, cos, sin).reshape(cos.shape[0], 4, -1)
    return psi if np.ndim(t) else psi[0]


def occupation_sums(sub: Subsystem, q0: QubitAmplitudes, t: float | np.ndarray) -> np.ndarray:
    """Sums over a two-mode grid of ``|E|^2 + |G|^2`` weighted by ``1``,
    ``m``, ``n`` and ``m n`` (absolute Fock levels), (4,) or (T, 4).

    The Gram entry ``(u, v)`` of the basis tables enters ``|E|^2 + |G|^2``
    with weight ``Re(k^H k)[u, v]``, ``k`` the branch coefficients of
    ``q0``, and that weight is 0 between the excited and ground branches:
    every term turns with one block frequency.  Times go through the walk
    of :func:`_phases` and no table is built.
    """
    times = _times(t)
    k = _coefficients(q0)
    weight = (k.conj().T @ k).real
    mix = np.array([[[weight[u, v] * (1 if u == v else 2)] for u, v in pair] for pair in _DIAGONAL])
    m, n = (o + np.arange(size, dtype=float) for o, size in zip(sub.origin, sub.weights.shape))
    bins = _bins(sub, mix, (1.0, m[:, None], n[None, :], np.multiply.outer(m, n)))
    sums = np.empty((times.size, 4))
    for chunk, cos, sin in _phases(sub, times):
        sums[chunk] = (_trig_rows(cos, sin) @ bins)[:, :, 0].sum(axis=1)
    return sums if np.ndim(t) else sums[0]


def reduced_qubit_density(psi: np.ndarray) -> np.ndarray:
    """Trace out both modes of a state of :func:`evolve`; returns the 2x2
    density in the (e, g) basis, stacked as (T, 2, 2) for T times.

    The ground population is reported as computed from the grids, not
    forced to ``1 - rho_ee``; their agreement is asserted by tests.
    """
    return psi @ np.swapaxes(psi.conj(), -1, -2)


#: branch coefficients of the two qubit basis states, rows (E, G) from
#: |e> then (E, G) from |g>
_BASIS_BRANCHES = np.concatenate(
    [_coefficients(QubitAmplitudes(1.0, 0.0)), _coefficients(QubitAmplitudes(0.0, 1.0))]
)


def single_qubit_map(sub: Subsystem, t: float | np.ndarray) -> np.ndarray:
    """Process matrix of the qubit channel at time(s) ``t``, 4x4 or (T, 4, 4).

    It acts on vectorized 2x2 qubit densities, ordering (ee, eg, ge, gg),
    through :func:`apply_map`.  ``sub`` is the subsystem, e.g.
    ``vibrating_subsystem(p, wa, wb)`` or ``stationary_subsystem(p, wb)``.
    The two qubit basis states are evolved through the full dilation and
    the modes traced out, so the map is trace preserving and completely
    positive up to truncation error; the columns of the returned matrix are
    the vectorized images of ``|e><e|, |e><g|, |g><e|, |g><g|``.  This is a
    genuine linear map on density matrices: multiplying summed-over-grid
    2x2 operators on both sides instead would generate cross terms between
    distinct grid points and fail to reproduce the reduced density.

    Every mode trace is a fixed complex combination of the entries of one
    real Gram matrix of the four basis tables per time.  Its six entries
    within a branch are one-frequency sums (:func:`_bins`); only the cross
    block between the (A, B) and (C, D) tables is summed over the grid.
    Times go through the walk of :func:`_phases`; only the (T, 4, 4) result
    spans them all.
    """
    times = _times(t)
    bins = _bins(sub, np.broadcast_to(np.eye(2), (3, 2, 2)))
    rows, cols = np.moveaxis(np.array(_DIAGONAL), -1, 0)
    gram = np.empty((times.size, 4, 4))
    for chunk, cos, sin in _phases(sub, times):
        x = _rotate_blocks(sub, cos, sin).reshape(cos.shape[0], 4, -1)
        g = gram[chunk]
        g[:, rows, cols] = g[:, cols, rows] = (_trig_rows(cos, sin) @ bins)[:, :, 0]
        g[:, :2, 2:] = x[:, :2] @ x[:, 2:].transpose(0, 2, 1)
        g[:, 2:, :2] = g[:, :2, 2:].transpose(0, 2, 1)
    k = _BASIS_BRANCHES
    # traces[u, v] = sum over the grid of branch u times conj(branch v)
    traces = k @ gram @ k.conj().T
    # branch u = 2 * (input basis state) + (output qubit level)
    matrix = traces.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(-1, 4, 4)
    return matrix if np.ndim(t) else matrix[0]


def apply_map(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Propagate a 2x2 density through the map ``m`` of :func:`single_qubit_map`, stacked like it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ParameterError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    return (m @ rho.reshape(4)).reshape(m.shape[:-2] + (2, 2))
