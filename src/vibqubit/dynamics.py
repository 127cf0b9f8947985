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
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fock import CoherentAmplitudes

_NORM_TOL = 1e-12
_AMPLITUDE_RTOL = 1e-9
_LAMB_DICKE_MAX = 0.3
_LAMB_DICKE_WARN = 0.1


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
        if self.alpha_mag < 0 or self.beta_mag < 0:
            raise ParameterError("coherent amplitudes must be >= 0")

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
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ParameterError(f"qubit amplitudes are not normalized: |c|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class GlobalState:
    """Pure state of qubit x mode-a x mode-b as two coefficient grids.

    ``e_branch[m, n]`` multiplies ``|m, n> (x) |e>`` and ``g_branch[m, n]``
    multiplies ``|m, n> (x) |g>``.  The grids carry whatever norm the
    truncated evolution left them with; see :meth:`norm_sq`.
    """

    e_branch: np.ndarray
    g_branch: np.ndarray
    time: float

    def __post_init__(self):
        self.e_branch.setflags(write=False)
        self.g_branch.setflags(write=False)

    def norm_sq(self) -> float:
        """Total probability on the grid (1 minus truncation losses)."""
        return float(
            np.sum(np.abs(self.e_branch) ** 2) + np.sum(np.abs(self.g_branch) ** 2)
        )


@dataclass(frozen=True)
class ProcessMatrix:
    """Linear map on vectorized 2x2 qubit densities, ordering (ee, eg, ge, gg).

    Built by unitary dilation over the two modes followed by a partial
    trace, so it is trace preserving and completely positive up to
    truncation error.
    """

    matrix: np.ndarray
    time: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Propagate a 2x2 density matrix to ``self.time``."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ParameterError(f"expected a 2x2 density matrix, got shape {rho.shape}")
        return (self.matrix @ rho.reshape(4)).reshape(2, 2)

    def choi(self) -> np.ndarray:
        """Choi matrix of the map; positive semidefinite iff the map is CP."""
        return self.matrix.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def _check_consistent(
    p: ModeParams, wa: CoherentAmplitudes | None, wb: CoherentAmplitudes
) -> None:
    for name, mag, w in (("alpha_mag", p.alpha_mag, wa), ("beta_mag", p.beta_mag, wb)):
        if w is not None and abs(w.magnitude - mag) > _AMPLITUDE_RTOL * max(1.0, mag):
            raise ParameterError(
                f"{name}={mag} disagrees with the supplied weights (magnitude {w.magnitude})"
            )


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


def _rotate_blocks(
    q0: QubitAmplitudes,
    w: np.ndarray,
    rate: float,
    root: np.ndarray,
    t: float,
    unshifted_d: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate every two-level block ``|e, k> <-> |g, k+1>`` of a weight grid to time ``t``.

    ``w`` holds the initial mode weights on an N-d grid padded by one level
    per axis, and ``k+1`` steps every axis up by one.  The block through
    ``|e, k>`` turns at ``rate * root[k]``, so with ``theta = rate*t*root``
    the excited and ground branches are

    - ``E[k] = c_e w[k] cos(theta[k]) - i c_g w[k+1] sin(theta[k])``;
    - ``F[k] = c_g w[k] cos(theta[k-1]) - i c_e w[k-1] sin(theta[k-1])``,

    with every term below the grid reading 0 (a ground state touching an
    empty mode is dark).  The padding level captures everything the
    rotation feeds from the truncated input, so the evolution is exactly
    unitary on it and the norm deficit is the static truncation tail.

    The lowering term must carry the index-shifted weights ``w[k-1]``: the
    transition that populates ``|g, k>`` starts from ``|e, k-1>``.
    ``unshifted_d=True`` uses ``w[k]`` instead, a norm-violating variant
    kept only as the falsification control of the verification suite.
    """
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t!r}")
    theta_up = rate * t * root
    cos_up, sin_up = np.cos(theta_up), np.sin(theta_up)
    # theta one level down; theta = 0 below the grid
    cos_dn, sin_dn = _shift(cos_up, -1, fill=1.0), _shift(sin_up, -1)
    w_dn = w if unshifted_d else _shift(w, -1)
    e_branch = q0.c_e * (w * cos_up) + q0.c_g * (-1j * _shift(w, 1) * sin_up)
    g_branch = q0.c_g * (w * cos_dn) + q0.c_e * (-1j * w_dn * sin_dn)
    return e_branch, g_branch


def _padded(w: CoherentAmplitudes) -> np.ndarray:
    return np.concatenate([w.weights, [0.0]])


def evolve_state(
    q0: QubitAmplitudes,
    p: ModeParams,
    wa: CoherentAmplitudes,
    wb: CoherentAmplitudes,
    t: float,
    unshifted_d: bool = False,
) -> GlobalState:
    """Closed-form evolution of the initial product state to time ``t``.

    The blocks are ``|e, m, n> <-> |g, m+1, n+1>`` at frequency
    ``eta*kappa*sqrt((m+1)(n+1))``.  The grids have ``n_max + 2`` entries
    per axis (one level past the input truncation), so the norm deficit of
    the result equals the truncation tail mass of the two coherent inputs,
    independent of time.  See :func:`_rotate_blocks` for ``unshifted_d``.
    """
    _check_consistent(p, wa, wb)
    m = np.arange(wa.n_max + 2, dtype=float)[:, None]
    n = np.arange(wb.n_max + 2, dtype=float)[None, :]
    root = np.sqrt((m + 1.0) * (n + 1.0))
    w = np.outer(_padded(wa), _padded(wb))
    e_branch, g_branch = _rotate_blocks(q0, w, p.rabi_rate, root, t, unshifted_d)
    return GlobalState(e_branch=e_branch, g_branch=g_branch, time=float(t))


def _cross(x: GlobalState, y: GlobalState) -> np.ndarray:
    """Mode trace of ``|x><y|``: the 2x2 sums of branch products ``x_i conj(y_j)``."""
    y_conj = (np.conj(y.e_branch), np.conj(y.g_branch))
    return np.array([[np.sum(a * b) for b in y_conj] for a in (x.e_branch, x.g_branch)])


def reduced_qubit_density(s: GlobalState) -> np.ndarray:
    """Trace out both modes; returns the 2x2 density in the (e, g) basis.

    The ground population is reported as computed from the grids, not
    forced to ``1 - rho_ee``; their agreement is asserted by tests.
    """
    return _cross(s, s)


def stationary_evolve(
    q0: QubitAmplitudes,
    p: ModeParams,
    wb: CoherentAmplitudes,
    t: float,
) -> GlobalState:
    """Motionless-qubit baseline: resonant Jaynes-Cummings evolution.

    Only the cavity mode participates: the blocks are
    ``|e, n> <-> |g, n+1>`` at frequency ``kappa*sqrt(n+1)``.  The
    vibrational grid collapses to a single index (axis 0 of the returned
    grids has length 1).
    """
    _check_consistent(p, None, wb)
    root = np.sqrt(np.arange(wb.n_max + 2, dtype=float) + 1.0)
    e_row, g_row = _rotate_blocks(q0, _padded(wb), p.kappa, root, t)
    return GlobalState(e_branch=e_row[None, :], g_branch=g_row[None, :], time=float(t))


#: a subsystem's evolution of an initial qubit state, ``evolve(q0, t)``
Evolve = Callable[[QubitAmplitudes, float], GlobalState]


def single_qubit_map(evolve: Evolve, t: float) -> ProcessMatrix:
    """Process matrix of the qubit channel at time ``t``.

    ``evolve(q0, t)`` is the subsystem's own evolution, e.g.
    ``lambda q0, t: evolve_state(q0, p, wa, wb, t)`` or the same with
    :func:`stationary_evolve`.  The two qubit basis states are evolved
    through the full dilation and the modes traced out; the columns of the
    returned matrix are the vectorized images of
    ``|e><e|, |e><g|, |g><e|, |g><g|``.  This is a genuine linear map on
    density matrices: multiplying summed-over-grid 2x2 operators on both
    sides instead would generate cross terms between distinct grid points
    and fail to reproduce the reduced density.
    """
    branches = (evolve(QubitAmplitudes(1.0, 0.0), t), evolve(QubitAmplitudes(0.0, 1.0), t))
    columns = [_cross(x, y).reshape(4) for x in branches for y in branches]
    return ProcessMatrix(matrix=np.stack(columns, axis=1), time=float(t))
