"""Verification suite: every analytic result checked against the brute force.

Each check guards one concrete guarantee of the package.  The checks share
a :class:`DensityAuditor` that inspects every density matrix any of them
produces, so the final invariant check covers every sampled point rather
than a separate hand-picked set.

Every check builds its coherent inputs with
:func:`~vibqubit.fock.windowed_amplitudes` at the one tail tolerance
:data:`TAIL_TOL` (only the two-qubit map check pins its grid size), and
the oracle agreement is held to :data:`FIDELITY_DEFICIT`.  :func:`run_all`
runs the checks in report order and times each call.
"""
from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .composite import (
    BellSpec,
    bell_state,
    concurrence,
    evolve_two_qubit,
    two_qubit_coherence,
)
from .curves import revival_peak, upper_envelope
from .dynamics import (
    ModeParams,
    QubitAmplitudes,
    apply_map,
    evolve,
    reduced_qubit_density,
    single_qubit_map,
    stationary_subsystem,
    vibrating_subsystem,
)
from .fock import CoherentAmplitudes, coherent_amplitudes, windowed_amplitudes
from .observables import l1_coherence, mode_moments
from .oracle import (
    build_red_sideband,
    coherent_product_state,
    evolve_exact_series,
    fidelity,
    two_subsystem_oracle,
)

_BALANCED = QubitAmplitudes(2.0 ** -0.5, 2.0 ** -0.5)
_EXCITED = QubitAmplitudes(1.0, 0.0)
#: initial densities of the balanced and the excited qubit
_BALANCED_RHO = np.full((2, 2), 0.5)
_EXCITED_RHO = np.diag([1.0, 0.0])
#: truncation tail tolerance of every coherent input
TAIL_TOL = 1e-12
#: allowed 1 - fidelity of the closed form against the oracle
FIDELITY_DEFICIT = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str
    seconds: float = 0.0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: measured {self.measured}, bound {self.bound} ... {status}"
        if self.detail:
            text += f"  [{self.detail}]"
        return text


@dataclass
class DensityAuditor:
    """Accumulates worst-case density-matrix defects across all checks."""

    count: int = 0
    max_herm_dev: float = 0.0
    max_trace_dev: float = 0.0
    min_eigenvalue: float = field(default=math.inf)

    def record(self, rho: np.ndarray) -> None:
        """Audit one density, or each of a stack of them along leading axes."""
        mat = np.asarray(rho)
        if mat.size == 0:
            return
        adjoint = np.swapaxes(mat.conj(), -1, -2)
        self.count += mat.size // (mat.shape[-1] * mat.shape[-2])
        self.max_herm_dev = max(self.max_herm_dev, float(np.max(np.abs(mat - adjoint))))
        trace = np.trace(mat, axis1=-2, axis2=-1).real
        self.max_trace_dev = max(self.max_trace_dev, float(np.max(np.abs(trace - 1.0))))
        lowest = np.linalg.eigvalsh(0.5 * (mat + adjoint))[..., 0]
        self.min_eigenvalue = min(self.min_eigenvalue, float(np.min(lowest)))


def _inputs(a_sq: float, b_sq: float) -> tuple[ModeParams, CoherentAmplitudes, CoherentAmplitudes]:
    """Mode parameters and both coherent weight sets at intensities
    (alpha_sq, beta_sq), on the windows of :data:`TAIL_TOL`.  Every
    intensity verify uses lies below 27.6, so each window starts at level 0."""
    p = ModeParams(alpha_mag=math.sqrt(a_sq), beta_mag=math.sqrt(b_sq))
    return p, windowed_amplitudes(a_sq, TAIL_TOL), windowed_amplitudes(b_sq, TAIL_TOL)


def check_oracle_equivalence(audit: DensityAuditor) -> CheckResult:
    """Analytic evolution vs matrix exponential over the intensity grid.

    Every window of :func:`_inputs` starts at level 0, so the analytic grids
    have ``n_max + 2`` levels per axis from level 0, the oracle's space, and
    a state of ``evolve`` is already in the oracle's basis; a window above
    level 0 would give a shorter state, and ``fidelity`` raises on the
    mismatch.  The worst point is named only past 16 eps, below which many
    points tie.
    """
    times = np.linspace(0.0, 2500.0, 64)
    rounding = 16 * np.finfo(float).eps
    worst = 0.0
    worst_at = ""
    checked = 0
    for a_sq in (0.0, 1.0, 3.0, 5.0):
        for b_sq in (0.0, 1.0, 3.0, 5.0):
            p, wa, wb = _inputs(a_sq, b_sq)
            h = build_red_sideband(p, wa.n_max + 1, wb.n_max + 1)
            sub = vibrating_subsystem(p, wa, wb)
            pair = (_EXCITED, _BALANCED)
            psi0 = [coherent_product_state(q0, wa, wb, wa.n_max + 1, wb.n_max + 1) for q0 in pair]
            # one pass steps both states; exact has axes (time, state, basis)
            exact = evolve_exact_series(np.stack(psi0), h, times)
            for j, q0 in enumerate(pair):
                psi = evolve(sub, q0, times)
                audit.record(reduced_qubit_density(psi))
                for k, state in enumerate(psi):
                    deficit = 1.0 - fidelity(state, exact[k, j])
                    checked += 1
                    if deficit > worst:
                        worst = deficit
                        worst_at = f"a_sq={a_sq}, b_sq={b_sq}, c_e={abs(q0.c_e):.3f}, t={times[k]:.1f}"
    return CheckResult(
        name="oracle-equivalence-single",
        passed=worst <= FIDELITY_DEFICIT,
        measured=f"worst fidelity deficit {worst:.3e}",
        bound=f"<= {FIDELITY_DEFICIT:.3e}",
        detail=worst_at if worst > rounding else f"{checked} states, all within 16 eps",
    )


def check_falsification(audit: DensityAuditor) -> CheckResult:
    """The printed lowering coefficient must visibly break norm conservation.

    Run with the unshifted variant (lowering weights ``weights_down`` set to
    ``weights``) at unit intensities and the dimensionless time 2; a correct
    implementation of the corrected coefficient keeps the same norm deficit
    at truncation level.
    """
    p, wa, wb = _inputs(1.0, 1.0)
    t = 2.0 / p.rabi_rate
    sub = vibrating_subsystem(p, wa, wb)
    unshifted = dataclasses.replace(sub, weights_down=sub.weights)
    bad = reduced_qubit_density(evolve(unshifted, _BALANCED, t))
    good = reduced_qubit_density(evolve(sub, _BALANCED, t))
    audit.record(good)
    bad_dev = abs(1.0 - np.trace(bad).real)
    good_dev = abs(1.0 - np.trace(good).real)
    return CheckResult(
        name="printed-coefficient-falsification",
        passed=bad_dev > 1e-3,
        measured=f"norm deviation {bad_dev:.6f} (corrected variant: {good_dev:.2e})",
        bound="> 1e-03 for the uncorrected variant",
    )


def check_map_consistency(audit: DensityAuditor) -> CheckResult:
    """Process matrix applied to random pure states vs direct evolution."""
    rng = np.random.default_rng(20260817)
    states = []
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        states.append(QubitAmplitudes(complex(v[0]), complex(v[1])))
    sub = vibrating_subsystem(*_inputs(1.0, 1.0))
    times = np.linspace(0.0, 2500.0, 16)
    m = single_qubit_map(sub, times)
    worst = 0.0
    for q0 in states:
        direct = reduced_qubit_density(evolve(sub, q0, times))
        rho0 = np.array(
            [[abs(q0.c_e) ** 2, q0.c_e * np.conj(q0.c_g)],
             [q0.c_g * np.conj(q0.c_e), abs(q0.c_g) ** 2]]
        )
        via_map = apply_map(m, rho0)
        audit.record(direct)
        audit.record(via_map)
        worst = max(worst, float(np.max(np.abs(direct - via_map))))
    return CheckResult(
        name="map-trace-consistency",
        passed=worst <= 1e-9,
        measured=f"worst entrywise difference {worst:.3e}",
        bound="<= 1e-09",
        detail="50 random pure states, 16 times",
    )


def _trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r1 - r2))))


def check_two_qubit_map(audit: DensityAuditor) -> CheckResult:
    """Local-map composition vs the four-mode joint oracle.

    At intensity 1 every point sits at the n_max = 12 truncation offset, so
    the detail counts the points within 1% of the worst and names the first
    of them in loop order rather than one of the tied points.
    """
    n_max = 12
    points = []  # (trace distance, kind, intensity, time) in loop order
    for kind in ("phi", "psi"):
        spec = BellSpec(kind, 2.0 ** -0.5, 2.0 ** -0.5)
        rho0 = bell_state(spec)
        for intensity in (0.0, 1.0):
            p = ModeParams(alpha_mag=math.sqrt(intensity), beta_mag=math.sqrt(intensity))
            w = coherent_amplitudes(p.alpha_mag, n_max)
            times = np.linspace(0.0, 1000.0, 16)
            m = single_qubit_map(vibrating_subsystem(p, w, w), times)
            via_map = evolve_two_qubit(rho0, m)
            audit.record(via_map)
            via_oracle = two_subsystem_oracle(spec, p, n_max, times)
            audit.record(via_oracle)
            points += [(_trace_distance(a, b), kind, intensity, t) for a, b, t in zip(via_map, via_oracle, times)]
    worst = max(td for td, *_ in points)
    tied = [point for point in points if point[0] >= 0.99 * worst]
    _, kind, intensity, t = tied[0]
    return CheckResult(
        name="two-qubit-map-validation",
        passed=worst <= 1e-6,
        measured=f"worst trace distance {worst:.3e}",
        bound="<= 1e-06",
        detail=(
            f"{len(tied)} of {len(points)} points within 1% of the worst, "
            f"first {kind}, intensity={intensity}, t={t:.1f}"
        ),
    )


def check_anchors(audit: DensityAuditor) -> CheckResult:
    """Exactly known values at t = 0."""
    sub = vibrating_subsystem(*_inputs(1.0, 1.0))
    balanced = reduced_qubit_density(evolve(sub, _BALANCED, 0.0))
    excited = reduced_qubit_density(evolve(sub, _EXCITED, 0.0))
    bell = bell_state(BellSpec("phi", 2.0 ** -0.5, 2.0 ** -0.5))
    for rho in (balanced, excited, bell):
        audit.record(rho)
    worst_c0 = 0.0
    for a_sq in (0.0, 1.0, 3.0, 5.0):
        for b_sq in (0.0, 1.0, 3.0, 5.0):
            sub = vibrating_subsystem(*_inputs(a_sq, b_sq))
            for q0 in (_EXCITED, _BALANCED):
                sample = mode_moments(sub, q0, 0.0)
                worst_c0 = max(worst_c0, abs(sample.cross_corr))
    deviations = {
        "zeta(0) balanced": abs(l1_coherence(balanced) - 1.0),
        "zeta(0) excited": abs(l1_coherence(excited)),
        "concurrence(bell)": abs(concurrence(bell) - 1.0),
        "TQC(0)": abs(two_qubit_coherence(bell) - 1.0),
        "cross_corr(0)": worst_c0,
    }
    failures = [f"{label}: off by {dev:.2e}" for label, dev in deviations.items() if dev > 1e-12]
    return CheckResult(
        name="exact-anchors",
        passed=not failures,
        measured="; ".join(failures) if failures else f"all anchors hit (worst C(0) {worst_c0:.1e})",
        bound="each within 1e-12",
    )


_TREND_TIMES = np.linspace(0.0, 2500.0, 2501)
_TREND_BOUND = "over beta_sq in {1, 2, 4} at alpha_sq = 1"


def _trend_maps() -> Iterator[np.ndarray]:
    """The process matrix over the trend grid for each beta_sq of the trend
    bound, at alpha_sq = 1."""
    for b_sq in (1.0, 2.0, 4.0):
        yield single_qubit_map(vibrating_subsystem(*_inputs(1.0, b_sq)), _TREND_TIMES)


def _first_below(values: np.ndarray, level: float) -> float:
    return upper_envelope(_TREND_TIMES, values).first_crossing_below(level)


def check_qualitative_coherence_trend(audit: DensityAuditor) -> CheckResult:
    halves = []
    for m in _trend_maps():
        rho = apply_map(m, _BALANCED_RHO)
        audit.record(rho[::100])
        zeta = l1_coherence(rho)
        halves.append(_first_below(zeta, zeta[0] / 2.0))
    return CheckResult(
        name="qualitative-coherence-half-time",
        passed=halves[0] <= halves[1] <= halves[2],
        measured="half-times " + ", ".join(f"{h:.1f}" for h in halves),
        bound=f"non-decreasing {_TREND_BOUND}",
    )


def check_qualitative_entanglement_trends(audit: DensityAuditor) -> tuple[CheckResult, CheckResult]:
    rho0 = bell_state(BellSpec("phi", 2.0 ** -0.5, 2.0 ** -0.5))
    extinctions, halves = [], []
    for m in _trend_maps():
        rho = evolve_two_qubit(rho0, m)
        audit.record(rho[::100])
        extinctions.append(_first_below(concurrence(rho), 0.01))
        tqc = two_qubit_coherence(rho)
        halves.append(_first_below(tqc, tqc[0] / 2.0))
    return (
        CheckResult(
            name="qualitative-concurrence-extinction",
            passed=extinctions[0] >= extinctions[1] >= extinctions[2],
            measured="extinction times " + ", ".join(f"{e:.1f}" for e in extinctions),
            bound=f"non-increasing {_TREND_BOUND}",
        ),
        CheckResult(
            name="qualitative-tqc-half-time",
            passed=halves[0] <= halves[1] <= halves[2],
            measured="half-times " + ", ".join(f"{h:.1f}" for h in halves),
            bound=f"non-decreasing {_TREND_BOUND}",
        ),
    )


def check_correlation_floor(audit: DensityAuditor) -> CheckResult:
    """Late-window cross-correlation: positive floor iff the qubit starts balanced."""
    sub = vibrating_subsystem(*_inputs(1.0, 1.0))
    times = np.linspace(2500.0, 5000.0, 1251)
    mins = {}
    for label, q0 in (("balanced", _BALANCED), ("excited", _EXCITED)):
        audit.record(reduced_qubit_density(evolve(sub, q0, times[::100])))
        mins[label] = float(np.min(mode_moments(sub, q0, times).cross_corr))
    return CheckResult(
        name="qualitative-correlation-floor",
        passed=mins["balanced"] > 0.0 and mins["excited"] <= 0.0,
        measured=f"min C(t) balanced {mins['balanced']:.4e}, excited {mins['excited']:.4e}",
        bound="balanced > 0 and excited <= 0 over t in [2500, 5000]",
    )


def check_revival(audit: DensityAuditor) -> CheckResult:
    """Stationary baseline shows the textbook collapse-revival timing."""
    p, _, wb = _inputs(0.0, 25.0)
    times = np.linspace(0.0, 60.0, 3001)
    rho = apply_map(single_qubit_map(stationary_subsystem(p, wb), times), _EXCITED_RHO)
    audit.record(rho[::200])
    signal = np.abs(rho[:, 0, 0].real - 0.5)
    collapse = upper_envelope(times, signal).first_crossing_below(0.05)
    peak_time, peak_value = revival_peak(times, signal, (collapse, float(times[-1])))
    expected = 2.0 * math.pi * 5.0 / p.kappa
    rel_dev = abs(peak_time - expected) / expected
    return CheckResult(
        name="stationary-revival-timing",
        passed=rel_dev <= 0.15,
        measured=f"revival peak at t {peak_time:.2f} (amplitude {peak_value:.3f})",
        bound=f"within 15% of {expected:.2f}",
        detail=f"collapse (envelope < 0.05) at t {collapse:.2f}",
    )


def check_density_invariants(audit: DensityAuditor) -> CheckResult:
    ok = (
        audit.max_herm_dev <= 1e-9
        and audit.max_trace_dev <= 1e-9
        and audit.min_eigenvalue >= -1e-8
    )
    return CheckResult(
        name="density-invariants",
        passed=ok,
        measured=(
            f"hermiticity {audit.max_herm_dev:.2e}, trace {audit.max_trace_dev:.2e}, "
            f"min eigenvalue {audit.min_eigenvalue:.2e}"
        ),
        bound="<= 1e-09, <= 1e-09, >= -1e-08",
        detail=f"{audit.count} densities audited",
    )


#: the checks in report order; run_all looks each ``check_<name>`` up when
#: it runs, so a wrapper rebinding one (perfbench/spans.py) sees the call
CHECKS = (
    "oracle_equivalence", "falsification", "map_consistency", "two_qubit_map", "anchors",
    "qualitative_coherence_trend", "qualitative_entanglement_trends", "correlation_floor",
    "revival", "density_invariants",
)


def run_all() -> list[CheckResult]:
    """Run every check, timing each call; the density audit is reported last.

    A call that reports two results splits its time between them.
    """
    audit = DensityAuditor()
    results = []
    for name in CHECKS:
        start = time.perf_counter()
        out = globals()[f"check_{name}"](audit)
        elapsed = time.perf_counter() - start
        batch = out if isinstance(out, tuple) else (out,)
        for result in batch:
            result.seconds = elapsed / len(batch)
        results.extend(batch)
    return results
