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
axis; a scalar time is the length-1 case of the same computation.  The
walk, :func:`_phases`, yields the cos and sin of every block angle in pieces
whose basis tables fit :data:`CHUNK_BYTES`, stepping the phases on a uniform
grid; every row of a sweep is the same whatever the cut.  :func:`single_qubit_map`
keeps 16 numbers per time, :func:`occupation_sums` 4, and :func:`evolve`
the whole state, a plain complex array of the excited and ground branches.

Each block ``|e, k> <-> |g, k+1>`` only moves weight between its two
states: over the grid, ``|E|^2 + |G|^2`` weighted by levels ``l`` sums to its
t = 0 value plus, per block, ``l(k+1) - l(k)`` times ``(|c_e|^2 w_k^2 -
|c_g|^2 w_{k+1}^2) sin^2 + 2 Im(c_e conj(c_g)) w_k w_{k+1} cos sin`` of the
block angle, and each within-branch Gram entry of the map is one such sin^2
or cos sin sum, binned per distinct frequency once per call (:func:`_bins`):
a walked time costs one row of each (:func:`_moved`).  Only the map's cross
terms between the excited and ground branches pair two frequencies,
f_up +- f_down, and the walk reads them from the basis tables.  On a uniform
grid of at least :data:`SPECTRAL_MIN_TIMES` times both functions instead
take every such sum of tones, at 2 f or f_up +- f_down, at all times by one
type-1 non-uniform FFT (:func:`_tone_sums`; Dutt & Rokhlin 1993), within
5e-13 of the walk, and walk the first time only, so the map at t = 0 stays
the identity.  Crossover, ms of the map walked / spectral by grid levels
and T (best of 7, one BLAS thread, 2 vCPUs; the moments cross near it too):

    T =          101        201        301        401        501       1001       2001
    16 x 16       0.67/1    1.9/1.1    2.4/1.1      3/1.2    3.5/1.2    5.8/1.6     12/2.6
    86 x 86      8.8/17      16/17      24/18      32/18      40/18      84/21     160/20
    165 x 126     24/50      48/52      68/51      91/52     110/51     220/53     440/56
    27          0.28/0.44  0.44/0.49   0.6/0.59  0.75/0.61  0.91/0.65   1.8/0.89    3.7/1.4
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError
from .fock import TAIL_TOL, CoherentAmplitudes, windowed_amplitudes

_NORM_TOL = 1e-12
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
#: a uniform sweep of at least this many times takes its sums by one FFT per
#: call, any other walks; measured crossover in the module docstring
SPECTRAL_MIN_TIMES = 400
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


@dataclass(frozen=True, eq=False)
class Subsystem:
    """The two-level blocks of one qubit and its modes, set up once per sweep.

    ``weights`` holds the initial mode weights on an N-d grid whose index
    ``i`` is Fock level ``origin + i``, padded by one empty level past each
    end of the weights' window (at the low end only when the window starts
    above level 0); ``weights_up[k] = weights[k+1]`` and
    ``weights_down[k] = weights[k-1]`` are the same grid moved by one level.
    The block through ``|e, k>`` turns at ``rate * freqs[up[k]]``, and the
    one feeding ``|g, k>`` at ``rate * freqs[up[k-1]]`` (``freqs[0] = 0``
    stands in below the grid, where every weight is 0 or level 0 is dark).
    ``freqs`` lists each distinct block frequency once, so the trig runs
    once per distinct frequency and is gathered onto the grid.  ``modes``
    holds the coherent input of each axis, the weights the oracle starts from.
    ``weights_down`` feeds the D table of :func:`_rotate_blocks`, the map's
    spectral cross terms and, moved up one level, the bins of the map and moments.
    """

    weights: np.ndarray
    weights_up: np.ndarray
    weights_down: np.ndarray
    origin: tuple[int, ...]
    rate: float
    freqs: np.ndarray
    up: np.ndarray
    modes: tuple[CoherentAmplitudes, ...]


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
        modes=modes,
    )


def vibrating_subsystem(p: ModeParams) -> Subsystem:
    """Blocks ``|e, m, n> <-> |g, m+1, n+1>`` at ``eta*kappa*sqrt((m+1)(n+1))``.

    Each mode's weights lie on its window at :data:`~vibqubit.fock.TAIL_TOL`
    (:func:`~vibqubit.fock.windowed_amplitudes` of ``alpha_mag**2`` and
    ``beta_mag**2``), and each grid axis spans that window plus one level
    past it at each end, so the norm deficit of every evolved state equals
    the truncation tail mass of the two coherent inputs, independent of time.

    Raises :class:`ResourceError` if one grid would take more than
    :data:`GRID_BYTES`.
    """
    modes = (windowed_amplitudes(x * x, TAIL_TOL) for x in (p.alpha_mag, p.beta_mag))
    return _subsystem(p.rabi_rate, *modes)


def stationary_subsystem(p: ModeParams) -> Subsystem:
    """Motionless-qubit baseline: Jaynes-Cummings blocks ``|e, n> <-> |g, n+1>``
    at ``kappa*sqrt(n+1)``; only the cavity mode participates, on its window
    at :data:`~vibqubit.fock.TAIL_TOL`, and ``alpha_mag`` is not read."""
    return _subsystem(p.kappa, windowed_amplitudes(p.beta_mag * p.beta_mag, TAIL_TOL))


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


def _bins(sub: Subsystem, grids: Iterable[np.ndarray]) -> np.ndarray:
    """(F, C): column ``c`` sums ``grids[c]`` over the blocks of each
    distinct frequency, ``freqs[up[k]]``, one grid at a time."""
    up = sub.up.ravel()
    return np.stack([np.bincount(up, g.ravel(), minlength=sub.freqs.size) for g in grids], axis=1)


def _moved(cos: np.ndarray, sin: np.ndarray, sin2: np.ndarray, cossin: np.ndarray) -> np.ndarray:
    """What the blocks have moved by each time of a chunk, (T, C + D): its row
    of sin^2 of the F block angles times ``sin2`` (F, C), then its row of
    cos sin times ``cossin`` (F, D); each time's sums are products of its
    own rows, the same whatever the chunk."""
    by_sin2 = (sin * sin)[:, None] @ sin2
    by_cossin = (cos * sin)[:, None] @ cossin
    return np.concatenate([by_sin2[:, 0], by_cossin[:, 0]], axis=1)


def _step(sub: Subsystem, times: np.ndarray) -> float | None:
    """The step ``h`` of a uniform grid, ``t_i = t_0 + i h`` within ``4 eps
    max(t)``, else None; raises :class:`ParameterError` for a time whose
    largest angle would lose more than ``_PHASE_TOL`` rad to rounding."""
    eps = np.finfo(float).eps
    if sub.rate * times.max() * sub.freqs[-1] * eps > _PHASE_TOL:
        limit = _PHASE_TOL / eps / (sub.rate * sub.freqs[-1])
        raise ParameterError(
            f"time {times.max():.6g} is past {limit:.6g}, beyond which the rotation "
            f"angles lose more than {_PHASE_TOL:g} rad to double rounding"
        )
    h = (times[-1] - times[0]) / max(times.size - 1, 1)
    return h if np.max(np.abs(times - (times[0] + np.arange(times.size) * h))) <= 4 * eps * times.max() else None


def _phases(sub: Subsystem, times: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The walk of a sweep: cos and sin (T, F) of the block angles
    ``theta = rate * t * freqs`` for each chunk, in order: a slice of at
    least one time whose basis tables fit :data:`CHUNK_BYTES`.

    A uniform grid (:func:`_step`) takes them directly at every :data:`RESEED`-th
    index and in between steps the phase, across chunks, by ``exp(i rate h freqs)``:
    within about ``RESEED * 8 eps + 8 theta eps`` of direct, and the same whatever
    the cut.  Any other grid takes them directly at every time.
    """
    h = _step(sub, times)
    n, angle = times.size, sub.rate * times
    reseed, step = (1, None) if h is None else (RESEED, np.exp(1j * (sub.rate * h * sub.freqs)))
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


def _tone_sums(rate: float, times: np.ndarray, h: float, tones: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """``sum_s strengths[s] exp(i rate t tones[s])``, (T, C), at every time of
    a uniform grid of step ``h``: one type-1 non-uniform FFT, Gaussian gridding
    onto ``n >= 2 T`` points (Greengard & Lee 2004) in blocks that fit :data:`CHUNK_BYTES`."""
    n, mid, width = 1 << (2 * times.size - 1).bit_length(), times.size // 2, 14  # points each side
    tau = np.pi * width / (n * (n - 0.5 * times.size))
    x = np.mod(rate * h * tones, 2 * np.pi)
    # phased to the middle time, the modes are centred: the deconvolution gains at most e**pi
    c = strengths * np.exp(1j * (rate * times[mid]) * tones)[:, None]
    taps, grid = np.arange(1 - width, width + 1), np.zeros((n, 2 * c.shape[1]))
    length = max(1, CHUNK_BYTES // (32 * taps.size))
    for s in range(0, tones.size, length):
        xs = x[s : s + length, None]
        at = np.floor(xs * (n / (2 * np.pi))).astype(int) + taps
        kernel, cells = np.exp(-((at * (2 * np.pi / n) - xs) ** 2) / (4 * tau)), (at % n).ravel()
        for j, part in enumerate(c[s : s + length].view(float).T):  # real and imaginary parts
            grid[:, j] += np.bincount(cells, (kernel * part[:, None]).ravel(), minlength=n)
    k = np.arange(times.size) - mid
    return (np.sqrt(np.pi / tau) * np.exp(k * k * tau))[:, None] * np.fft.ifft(grid.view(complex), axis=0)[k % n]


def _moved_tones(sub: Subsystem, times: np.ndarray, h: float, sin2: np.ndarray, cossin: np.ndarray) -> np.ndarray:
    """:func:`_moved` at every time of a uniform grid of step ``h``, from tones
    at ``2 f``: ``sin^2 = (1 - cos 2x) / 2`` and ``cos sin = sin 2x / 2``."""
    e = _tone_sums(sub.rate, times, h, 2 * sub.freqs, np.concatenate([sin2, 1j * cossin], axis=1))
    return 0.5 * (np.r_[sin2.sum(axis=0), np.zeros(cossin.shape[1])] - e.real)


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

    Each is its t = 0 value plus what the blocks have moved (module
    docstring), ``|c_e|^2`` reaching each upper state through ``weights_down``
    moved up one level.  Times go through the walk or the spectral sums and
    no table is built.  Raises :class:`ParameterError` on a one-mode
    (stationary) subsystem.
    """
    if sub.weights.ndim != 2:
        raise ParameterError(
            f"mode moments need the vibrational and cavity modes; the subsystem has {sub.weights.ndim}"
        )
    times = _times(t)
    e, g, exchange = abs(q0.c_e) ** 2, abs(q0.c_g) ** 2, 2 * (q0.c_e * np.conj(q0.c_g)).imag
    w, u, v = sub.weights, sub.weights_up, _shift(sub.weights_down, 1)
    m, n = (o + np.arange(size, dtype=float) for o, size in zip(sub.origin, sub.weights.shape))
    levels = [(1.0, x[:, None], y[None, :], np.multiply.outer(x, y)) for x, y in ((m, n), (m + 1, n + 1))]
    lower, upper = e * w * w - g * u * u, e * v * v - g * u * u
    sin2 = _bins(sub, (l1 * upper - l0 * lower for l0, l1 in zip(*levels)))
    cossin = _bins(sub, (exchange * u * (l1 * v - l0 * w) for l0, l1 in zip(*levels)))
    moved = np.empty((times.size, 8))
    if spectral := times.size >= SPECTRAL_MIN_TIMES and (h := _step(sub, times)) is not None:
        moved[:] = _moved_tones(sub, times, h, sin2, cossin)
    for chunk, cos, sin in _phases(sub, times[:1] if spectral else times):
        moved[chunk] = _moved(cos, sin, sin2, cossin)
    sums = moved[:, :4] + moved[:, 4:] + (e + g) * np.array([np.sum(l0 * w * w) for l0 in levels[0]])
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
#: (16, 16) product taking a flattened Gram matrix to the flattened process
#: matrix: entry (output levels, input states) is the trace of branch u times
#: conj(branch v), u = 2 * (input state) + (output level); each branch reads
#: one basis table, so each column holds one 1, -1 or +-i and the product is exact
_TRACE_MAP = (
    np.einsum("ua,vb->abuv", _BASIS_BRANCHES, _BASIS_BRANCHES.conj())
    .reshape(4, 4, 2, 2, 2, 2)
    .transpose(0, 1, 3, 5, 2, 4)
    .reshape(16, 16)
)


def single_qubit_map(sub: Subsystem, t: float | np.ndarray) -> np.ndarray:
    """Process matrix of the qubit channel at time(s) ``t``, 4x4 or (T, 4, 4).

    It acts on vectorized 2x2 qubit densities, ordering (ee, eg, ge, gg),
    through :func:`apply_map`.  ``sub`` is the subsystem, e.g.
    ``vibrating_subsystem(p)`` or ``stationary_subsystem(p)``.
    The two qubit basis states are evolved through the full dilation and
    the modes traced out, so the map is trace preserving and completely
    positive up to truncation error; the columns of the returned matrix are
    the vectorized images of ``|e><e|, |e><g|, |g><e|, |g><g|``.  This is a
    genuine linear map on density matrices: multiplying summed-over-grid
    2x2 operators on both sides instead would generate cross terms between
    distinct grid points and fail to reproduce the reduced density.

    Every mode trace is a fixed complex combination of the entries of one
    real Gram matrix of the four basis tables per time.  With ``S`` and ``X``
    the sums of a grid times sin^2 and cos sin of the block angles, ``W =
    sum(w^2)``, ``u = weights_up`` and ``v`` = ``weights_down`` moved up one
    level, its entries within a branch are ``AA = W - S(w^2)``, ``BB =
    S(u^2)``, ``CC = W - S(u^2)``, ``DD = S(v^2)``, ``AB = X(w u)`` and ``CD
    = X(u v)``; only the cross block between the (A, B) and (C, D) tables is
    summed over the grid.  Times go through the walk or the spectral sums
    (module docstring); only the (T, 4, 4) result spans them all.
    """
    times = _times(t)
    w, u, v = sub.weights, sub.weights_up, _shift(sub.weights_down, 1)
    sin2 = _bins(sub, (w * w, u * u, v * v))
    cossin = _bins(sub, (w * u, u * v))
    moved = np.empty((times.size, 5))
    gram = np.empty((times.size, 4, 4))
    if spectral := times.size >= SPECTRAL_MIN_TIMES and (h := _step(sub, times)) is not None:
        moved[:] = _moved_tones(sub, times, h, sin2, cossin)
        # AC, AD, BC and BD pair an up and a down angle: tones at f_up +- f_down
        up, down = sub.freqs[sub.up].ravel(), _shift(sub.freqs[sub.up], -1).ravel()
        d = sub.weights_down
        pairs = np.stack([w * w, w * d, u * w, u * d], axis=-1).reshape(-1, 4)
        e = _tone_sums(sub.rate, times, h, np.r_[up + down, up - down], np.r_[pairs * [1, 1, 1, -1], pairs * [1, -1, 1, 1]])
        gram[:, :2, 2:] = 0.5 * np.stack([e[:, 0].real, e[:, 1].imag, e[:, 2].imag, e[:, 3].real], -1).reshape(-1, 2, 2)
    # on a spectral sweep the first time is walked too: the map at t = 0 is the identity
    for chunk, cos, sin in _phases(sub, times[:1] if spectral else times):
        moved[chunk] = _moved(cos, sin, sin2, cossin)
        x = _rotate_blocks(sub, cos, sin).reshape(cos.shape[0], 4, -1)
        gram[chunk, :2, 2:] = x[:, :2] @ x[:, 2:].transpose(0, 2, 1)
    total = np.sum(w * w)
    s_w, s_u, s_v, x_wu, x_uv = moved.T
    rows, cols = (0, 1, 2, 3, 0, 2), (0, 1, 2, 3, 1, 3)
    gram[:, rows, cols] = gram[:, cols, rows] = np.stack([total - s_w, s_u, total - s_u, s_v, x_wu, x_uv], axis=1)
    gram[:, 2:, :2] = gram[:, :2, 2:].transpose(0, 2, 1)
    matrix = (gram.reshape(-1, 16) @ _TRACE_MAP).reshape(-1, 4, 4)
    return matrix if np.ndim(t) else matrix[0]


def apply_map(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Propagate a 2x2 density through the map ``m`` of :func:`single_qubit_map`, stacked like it."""
    m, rho = np.asarray(m), np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4) or rho.shape != (2, 2):
        raise ParameterError(f"expected a (..., 4, 4) map and a 2x2 density, got shapes {m.shape} and {rho.shape}")
    return (m @ rho.reshape(4)).reshape(m.shape[:-2] + (2, 2))
