"""Scenario evaluation: time sweeps over the dynamics, CSV output, gnuplot scripts.

A scenario names one curve family (single-qubit coherence, mode-mode
correlation, two-qubit concurrence or coherence, each with a stationary
variant where meaningful) plus the physical parameters.  :class:`Scenario`
is the one place a mode name is interpreted: the command line builds one
from its flags, and both the CSV and the plot script of a curve are
rendered from it.  The truncation,
the coherent weights and the block frequencies are fixed once per
scenario, and each row function takes the whole time grid: the map rows
use the (T, 4, 4) process matrix that ``single_qubit_map`` builds chunk by
chunk, and the moments row takes ``mode_moments`` of every time in one
call, summed per block frequency without building a state.  A sweep is one
float table, a row per time, which the CSV writer formats as it is.  Every
row is a pure function of the scenario and its time, the same whatever the
chunk length, and the CSV writer pins the formatting so reruns are
byte-identical.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .composite import BellSpec, bell_state, concurrence, evolve_two_qubit, two_qubit_coherence
from .dynamics import (
    ModeParams,
    QubitAmplitudes,
    Subsystem,
    apply_map,
    single_qubit_map,
    stationary_subsystem,
    vibrating_subsystem,
)
from .errors import ParameterError
from .fock import TAIL_TOL
from .observables import l1_coherence, mode_moments

# The row functions name the kernels and observables they call, so those
# resolve through this module's globals on every call rather than being
# captured when the table is built: a wrapper that rebinds them here (the
# per-layer tracer in perfbench/spans.py) sees every call.  Each takes the
# scenario's time grid and returns one array per value column.

Columns = Sequence[np.ndarray]


def _coherence_row(s: Scenario, sub: Subsystem, times: np.ndarray) -> Columns:
    c = np.array([s.c_e, s.c_g], dtype=complex)
    return (l1_coherence(apply_map(single_qubit_map(sub, times), np.outer(c, c.conj()))),)


def _moments_row(s: Scenario, sub: Subsystem, times: np.ndarray) -> Columns:
    sample = mode_moments(sub, QubitAmplitudes(s.c_e, s.c_g), times)
    return sample.n_a_mean, sample.n_b_mean, sample.joint_mean, sample.cross_corr, sample.g2


def _two_qubit_density(s: Scenario, sub: Subsystem, times: np.ndarray):
    rho0 = bell_state(BellSpec(s.bell_kind, s.mu, s.upsilon))
    return evolve_two_qubit(rho0, single_qubit_map(sub, times))


def _concurrence_row(s: Scenario, sub: Subsystem, times: np.ndarray) -> Columns:
    return (concurrence(_two_qubit_density(s, sub, times)),)


def _tqc_row(s: Scenario, sub: Subsystem, times: np.ndarray) -> Columns:
    return (two_qubit_coherence(_two_qubit_density(s, sub, times)),)


@dataclass(frozen=True)
class _Mode:
    """One base mode: the value columns after (t, axis), the row observable,
    the plotted column with its label and fixed y-range (None autoscales),
    and whether a stationary variant exists."""

    columns: tuple[str, ...]
    row: Callable[[Scenario, Subsystem, np.ndarray], Columns]
    y_column: str
    y_label: str
    y_range: tuple[int, int] | None
    has_stationary: bool = True


_COHERENCE = _Mode(("zeta",), _coherence_row, "zeta", "coherence", (0, 1))
_MODES = {
    "single-coherence": _COHERENCE,
    "single-coherence-excited": _COHERENCE,
    # no stationary variant: without the vibrational mode there is nothing to correlate
    "mode-correlation": _Mode(
        ("n_a", "n_b", "joint", "cross_corr", "g2"), _moments_row,
        "cross_corr", "cross correlation", None, has_stationary=False,
    ),
    "concurrence": _Mode(("value",), _concurrence_row, "value", "concurrence", (0, 1)),
    # two-qubit coherence of a 4x4 density can exceed 1, so autoscale
    "tqc": _Mode(("value",), _tqc_row, "value", "two-qubit coherence", None),
}

#: scenario modes with a vibrating qubit (two-mode sideband dynamics)
VIBRATING_MODES = tuple(_MODES)
#: stationary counterparts of the base modes that have one
STATIONARY_MODES = tuple(f"stationary-{m}" for m, spec in _MODES.items() if spec.has_stationary)
ALL_MODES = VIBRATING_MODES + STATIONARY_MODES


def _split(mode: str) -> tuple[_Mode, bool]:
    """Table entry of a mode, and whether the mode is its stationary variant."""
    base = mode.removeprefix("stationary-")
    return _MODES[base], base != mode


@dataclass(frozen=True)
class Scenario:
    """One runnable curve: mode name plus every physical and sweep parameter.

    ``c_e``/``c_g`` drive the single-qubit modes; ``bell_kind``/``mu`` drive
    the two-qubit ones (``upsilon`` is the real non-negative complement).
    The irrelevant half is carried anyway so the emitted metadata is the
    full parameter set regardless of mode.  Left out, ``c_e``/``c_g`` become
    |e> for an ``-excited`` mode and the balanced state otherwise; give both
    or neither, and an ``-excited`` mode takes no state but (1, 0).
    """

    mode: str
    c_e: complex | None = None
    c_g: complex | None = None
    bell_kind: str = "phi"
    mu: float = 2.0 ** -0.5
    eta: float = 0.02
    kappa: float = 1.0
    alpha_sq: float = 1.0
    beta_sq: float = 1.0
    t_max: float = 2500.0
    n_steps: int = 501

    def __post_init__(self):
        if self.mode not in ALL_MODES:
            raise ParameterError(
                f"unknown scenario mode {self.mode!r}; expected one of {', '.join(ALL_MODES)}"
            )
        try:
            operator.index(self.n_steps)
        except TypeError:
            raise ParameterError(f"n_steps must be an integer, got {self.n_steps!r}") from None
        if self.n_steps < 2:
            raise ParameterError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ParameterError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if not (0.0 <= self.mu <= 1.0):
            raise ParameterError(f"mu must lie in [0, 1], got {self.mu!r}")
        if self.bell_kind not in ("phi", "psi"):
            raise ParameterError(f"bell kind must be 'phi' or 'psi', got {self.bell_kind!r}")
        # written so that NaN and inf fail too
        if not all(x >= 0 and math.isfinite(x) for x in (self.alpha_sq, self.beta_sq)):
            raise ParameterError("alpha_sq and beta_sq must be finite and >= 0")
        self._resolve_amplitudes()
        # fail fast on anything ModeParams or QubitAmplitudes would reject; the
        # two-qubit modes check the amplitudes too, as the metadata records them
        self.mode_params()
        QubitAmplitudes(self.c_e, self.c_g)

    def _resolve_amplitudes(self) -> None:
        excited = self.mode.endswith("-excited")
        if (self.c_e is None) != (self.c_g is None):
            raise ParameterError("give both c_e and c_g (--ce and --cg) or neither")
        if self.c_e is None:
            c_e, c_g = (1.0, 0.0) if excited else (2.0 ** -0.5, 2.0 ** -0.5)
            object.__setattr__(self, "c_e", c_e)
            object.__setattr__(self, "c_g", c_g)
        elif excited and (self.c_e, self.c_g) != (1, 0):
            raise ParameterError(
                f"mode {self.mode!r} starts in |e>; got c_e={self.c_e!r}, c_g={self.c_g!r}"
            )

    @property
    def upsilon(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.mu * self.mu))

    def mode_params(self) -> ModeParams:
        return ModeParams(
            eta=self.eta,
            kappa=self.kappa,
            alpha_mag=math.sqrt(self.alpha_sq),
            beta_mag=math.sqrt(self.beta_sq),
        )

    def times(self) -> np.ndarray:
        """Row grid: t_i = i * t_max / (n_steps - 1)."""
        return np.arange(self.n_steps) * (self.t_max / (self.n_steps - 1))

    def columns(self) -> tuple[str, ...]:
        spec, stationary = _split(self.mode)
        return ("t", "kappa_t" if stationary else "eta_kappa_t") + spec.columns


def run_scenario(s: Scenario) -> np.ndarray:
    """The scenario's (n_steps, len(columns)) float table, one row per time.

    The evolution is set up once, on each mode's narrowest Fock window at
    :data:`vibqubit.fock.TAIL_TOL` (:func:`vibqubit.fock.choose_window`),
    then the mode's row function evaluates the whole time grid.  The axis
    column is the subsystem's clock, its rate times t.
    """
    spec, stationary = _split(s.mode)
    sub = (stationary_subsystem if stationary else vibrating_subsystem)(s.mode_params())
    times = s.times()
    table = np.empty((times.size, 2 + len(spec.columns)))
    table[:, 0] = times
    table[:, 1] = sub.rate * times
    table[:, 2:] = np.column_stack(spec.row(s, sub, times))
    return table


def _format_value(x: float) -> str:
    return f"{x:.8e}"


def _metadata_lines(s: Scenario) -> list[str]:
    values = {
        "mode": s.mode,
        "eta": _format_value(s.eta),
        "kappa": _format_value(s.kappa),
        "alpha_sq": _format_value(s.alpha_sq),
        "beta_sq": _format_value(s.beta_sq),
        "c_e": f"{complex(s.c_e).real:.8e},{complex(s.c_e).imag:.8e}",
        "c_g": f"{complex(s.c_g).real:.8e},{complex(s.c_g).imag:.8e}",
        "bell": s.bell_kind,
        "mu": _format_value(s.mu),
        "upsilon": _format_value(s.upsilon),
        "t_max": _format_value(s.t_max),
        "n_steps": str(s.n_steps),
        "tail_tol": _format_value(TAIL_TOL),
    }
    return [f"# {key} = {value}" for key, value in values.items()]


def render_csv(s: Scenario, table: np.ndarray) -> str:
    """Render metadata, header, and the rows of ``table``; 9 significant
    digits throughout.

    Nothing about where or how the rows were computed enters the bytes:
    the output path is not a :class:`Scenario` field but an argument of the
    CLI, and every row is the same whatever chunk length the sweep used, so
    the same physics serializes to the same bytes wherever it was computed.
    """
    head = "".join(line + "\n" for line in _metadata_lines(s)) + ",".join(s.columns()) + "\n"
    row = ",".join(["%.8e"] * len(s.columns())) + "\n"  # same text as _format_value
    return head + (row * len(table)) % tuple(table.ravel().tolist())


def write_csv(s: Scenario, table: np.ndarray, path: str) -> None:
    text = render_csv(s, table)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def emit_plot_script(s: Scenario, csv_path: str) -> str:
    """Text of a gnuplot script plotting the curve of ``s`` from ``csv_path``."""
    spec, stationary = _split(s.mode)
    axis_label = "kappa*t" if stationary else "eta*kappa*t"
    lines = [
        "# gnuplot script generated from a scenario CSV",
        "set datafile separator ','",
        f"set xlabel '{axis_label}'",
        f"set ylabel '{spec.y_label}'",
        "set key off",
        "set grid",
    ]
    if spec.y_range is not None:
        lines.append(f"set yrange [{spec.y_range[0]}:{spec.y_range[1]}]")
    lines.append(f"plot '{csv_path}' using 2:{s.columns().index(spec.y_column) + 1} with lines")
    return "\n".join(lines) + "\n"
