"""Scenario evaluation: time sweeps over the dynamics, CSV output, plot scripts.

A scenario names one curve family (single-qubit coherence, mode-mode
correlation, two-qubit concurrence or coherence, each with a stationary
variant where meaningful) plus the physical parameters.  The truncation,
the coherent weights and the evolution are fixed once per scenario and the
rows evaluated one time point at a time, optionally over contiguous slices
of the time grid in a process pool; every point is a pure function of the
scenario, so the table is identical for any worker count, and the CSV
writer pins the formatting so reruns are byte-identical.
"""
from __future__ import annotations

import io
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .composite import BellSpec, bell_state, concurrence, evolve_two_qubit, two_qubit_coherence
from .dynamics import (
    Evolve,
    GlobalState,
    ModeParams,
    QubitAmplitudes,
    evolve_state,
    reduced_qubit_density,
    single_qubit_map,
    stationary_evolve,
)
from .errors import ParameterError
from .fock import choose_truncation, coherent_amplitudes
from .observables import l1_coherence, mode_moments

# The row functions name the kernels and observables they call, so those
# resolve through this module's globals on every call rather than being
# captured when the table is built: a wrapper that rebinds them here (the
# per-layer tracer in perfbench/spans.py) sees every call.


def _coherence_row(s: Scenario, evolve: Evolve, t: float) -> tuple[float, ...]:
    return (l1_coherence(reduced_qubit_density(evolve(QubitAmplitudes(s.c_e, s.c_g), t))),)


def _moments_row(s: Scenario, evolve: Evolve, t: float) -> tuple[float, ...]:
    sample = mode_moments(evolve(QubitAmplitudes(s.c_e, s.c_g), t))
    g2 = float("nan") if sample.g2 is None else sample.g2
    return (sample.n_a_mean, sample.n_b_mean, sample.joint_mean, sample.cross_corr, g2)


def _two_qubit_density(s: Scenario, evolve: Evolve, t: float):
    m = single_qubit_map(evolve, t)
    return evolve_two_qubit(bell_state(BellSpec(s.bell_kind, s.mu, s.upsilon)), m, m)


def _concurrence_row(s: Scenario, evolve: Evolve, t: float) -> tuple[float, ...]:
    return (concurrence(_two_qubit_density(s, evolve, t)),)


def _tqc_row(s: Scenario, evolve: Evolve, t: float) -> tuple[float, ...]:
    return (two_qubit_coherence(_two_qubit_density(s, evolve, t)),)


@dataclass(frozen=True)
class _Mode:
    """One base mode: the value columns after (t, axis), the row observable,
    the plotted column with its label and fixed y-range (None autoscales),
    and whether a stationary variant exists."""

    columns: tuple[str, ...]
    row: Callable[[Scenario, Evolve, float], tuple[float, ...]]
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


def _columns(mode: str) -> tuple[str, ...]:
    spec, stationary = _split(mode)
    return ("t", "kappa_t" if stationary else "eta_kappa_t") + spec.columns


@dataclass(frozen=True)
class Scenario:
    """One runnable curve: mode name plus every physical and sweep parameter.

    ``c_e``/``c_g`` drive the single-qubit modes; ``bell_kind``/``mu`` drive
    the two-qubit ones (``upsilon`` is the real non-negative complement).
    The irrelevant half is carried anyway so the emitted metadata is the
    full parameter set regardless of mode.
    """

    mode: str
    c_e: complex = 2.0 ** -0.5
    c_g: complex = 2.0 ** -0.5
    bell_kind: str = "phi"
    mu: float = 2.0 ** -0.5
    eta: float = 0.02
    kappa: float = 1.0
    alpha_sq: float = 1.0
    beta_sq: float = 1.0
    t_max: float = 2500.0
    n_steps: int = 501
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.mode not in ALL_MODES:
            raise ParameterError(
                f"unknown scenario mode {self.mode!r}; expected one of {', '.join(ALL_MODES)}"
            )
        if self.n_steps < 2:
            raise ParameterError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ParameterError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if not (0.0 <= self.mu <= 1.0):
            raise ParameterError(f"mu must lie in [0, 1], got {self.mu!r}")
        if self.bell_kind not in ("phi", "psi"):
            raise ParameterError(f"bell kind must be 'phi' or 'psi', got {self.bell_kind!r}")
        if self.alpha_sq < 0 or self.beta_sq < 0:
            raise ParameterError("alpha_sq and beta_sq must be >= 0")
        # fail fast on anything ModeParams or QubitAmplitudes would reject
        self.mode_params()
        if not self.mode.endswith(("concurrence", "tqc")):
            QubitAmplitudes(self.c_e, self.c_g)

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
        return _columns(self.mode)


def stationary_variant(mode: str) -> str:
    """Map a base mode name to its stationary counterpart."""
    if mode.startswith("stationary-"):
        return mode
    name = f"stationary-{mode}"
    if name not in STATIONARY_MODES:
        raise ParameterError(
            f"mode {mode!r} has no stationary variant (the vibrational mode is essential to it)"
        )
    return name


def _rows(s: Scenario, times: np.ndarray) -> list[tuple[float, ...]]:
    """Rows of the table at ``times``; the evolution is set up once for all of them."""
    p = s.mode_params()
    wb = coherent_amplitudes(p.beta_mag, choose_truncation(s.beta_sq, s.tail_tol))
    spec, stationary = _split(s.mode)
    if stationary:
        rate = s.kappa

        def evolve(q0: QubitAmplitudes, t: float) -> GlobalState:
            return stationary_evolve(q0, p, wb, t)
    else:
        rate = s.eta * s.kappa
        wa = coherent_amplitudes(p.alpha_mag, choose_truncation(s.alpha_sq, s.tail_tol))

        def evolve(q0: QubitAmplitudes, t: float) -> GlobalState:
            return evolve_state(q0, p, wa, wb, t)

    return [(t, rate * t, *spec.row(s, evolve, t)) for t in map(float, times)]


def run_scenario(s: Scenario, workers: int = 1) -> list[tuple[float, ...]]:
    """Evaluate every row of the scenario, in row order.

    With ``workers > 1`` the time grid is cut into contiguous slices, one
    per worker process, and the slices are joined in order, so the result
    never depends on worker count or completion order.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    times = s.times()
    if workers == 1:
        return _rows(s, times)
    slices = np.array_split(times, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for part in pool.map(_rows, [s] * len(slices), slices) for row in part]


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
        "tail_tol": _format_value(s.tail_tol),
    }
    return [f"# {key} = {value}" for key, value in values.items()]


def render_csv(s: Scenario, rows: list[tuple[float, ...]]) -> str:
    """Render metadata, header, and rows; 9 significant digits throughout.

    Nothing about where or how the rows were computed enters the bytes:
    the output path and worker count are not :class:`Scenario` fields but
    arguments of the CLI and of :func:`run_scenario`, so the same physics
    serializes to the same bytes wherever and however it was computed.
    """
    buf = io.StringIO()
    for line in _metadata_lines(s):
        buf.write(line + "\n")
    buf.write(",".join(s.columns()) + "\n")
    for row in rows:
        buf.write(",".join(_format_value(x) for x in row) + "\n")
    return buf.getvalue()


def write_csv(s: Scenario, rows: list[tuple[float, ...]], path: str) -> None:
    text = render_csv(s, rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_csv_header(path: str) -> tuple[dict[str, str], list[str]]:
    """Metadata dict and column list of a scenario CSV; used by plot-script."""
    if not os.path.exists(path):
        raise ParameterError(f"CSV not found: {path}")
    metadata: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "=" in line:
                    key, _, value = line[1:].partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if not line:
                continue
            return metadata, line.split(",")
    raise ParameterError(f"CSV {path} has no header row")


def emit_plot_script(csv_path: str, mode: str | None = None) -> str:
    """Text of a gnuplot script rendering the scenario curve.

    ``mode`` defaults to the value recorded in the CSV metadata.  The CSV
    must exist and carry the exact column set of that mode.
    """
    metadata, columns = read_csv_header(csv_path)
    if mode is None:
        mode = metadata.get("mode")
        if mode is None:
            raise ParameterError(f"CSV {csv_path} has no mode metadata; pass the mode explicitly")
    if mode not in ALL_MODES:
        raise ParameterError(f"unknown scenario mode {mode!r}")
    expected = list(_columns(mode))
    if columns != expected:
        raise ParameterError(
            f"CSV {csv_path} columns {columns} do not match mode {mode!r} (expected {expected})"
        )

    axis_label = "eta*kappa*t" if expected[1] == "eta_kappa_t" else "kappa*t"
    spec, _ = _split(mode)
    y_col = expected.index(spec.y_column) + 1

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
    lines.append(f"plot '{csv_path}' using 2:{y_col} with lines")
    return "\n".join(lines) + "\n"
