"""Verification suite: every analytic result checked against the brute force.

Each check guards one concrete guarantee of the package.  The checks share
a :class:`DensityAuditor` that inspects every density matrix any of them
produces, so the final invariant check covers every sampled point rather
than a separate hand-picked set.

The tolerance profile scales oracle-agreement bounds with the truncation
tail tolerance: coarser truncation legitimately costs fidelity, and the
bound follows it linearly from the calibrated default pairing (tail 1e-12,
fidelity deficit 1e-8).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .composite import (
    BellSpec,
    TwoQubitDensity,
    bell_state,
    concurrence,
    evolve_two_qubit,
    two_qubit_coherence,
)
from .curves import revival_peak, upper_envelope
from .dynamics import (
    ModeParams,
    QubitAmplitudes,
    evolve,
    reduced_qubit_density,
    single_qubit_map,
    stationary_subsystem,
    time_chunks,
    vibrating_subsystem,
)
from .fock import choose_truncation, coherent_amplitudes
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


@dataclass(frozen=True)
class ToleranceProfile:
    """Knobs of the verification run.

    ``tail_tol`` drives truncation everywhere a check does not pin the grid
    size itself; ``fidelity_deficit`` is the allowed 1 - fidelity against
    the oracle and relaxes proportionally with ``tail_tol``.
    """

    tail_tol: float = 1e-12

    @property
    def fidelity_deficit(self) -> float:
        return 1e-8 * (self.tail_tol / 1e-12)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str
    seconds: float
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

    def record(self, rho: np.ndarray | TwoQubitDensity) -> None:
        """Audit one density, or each of a stack of them along leading axes."""
        mat = np.asarray(getattr(rho, "matrix", rho))
        if mat.size == 0:
            return
        adjoint = np.swapaxes(mat.conj(), -1, -2)
        self.count += mat.size // (mat.shape[-1] * mat.shape[-2])
        self.max_herm_dev = max(self.max_herm_dev, float(np.max(np.abs(mat - adjoint))))
        trace = np.trace(mat, axis1=-2, axis2=-1).real
        self.max_trace_dev = max(self.max_trace_dev, float(np.max(np.abs(trace - 1.0))))
        lowest = np.linalg.eigvalsh(0.5 * (mat + adjoint))[..., 0]
        self.min_eigenvalue = min(self.min_eigenvalue, float(np.min(lowest)))

    def record_sampled(self, rho, chunk: slice, every: int = 100) -> None:
        """Audit the densities of a sweep chunk whose index in the sweep is a
        multiple of ``every``."""
        self.record(np.asarray(getattr(rho, "matrix", rho))[-chunk.start % every :: every])


def check_oracle_equivalence(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Analytic evolution vs matrix exponential over the intensity grid.

    The analytic grids have ``n_max + 2`` levels per axis, the size of the
    oracle's space, so a flattened state is already in the oracle's basis.
    """
    start = time.perf_counter()
    times = np.linspace(0.0, 2500.0, 64)
    worst = 0.0
    worst_at = ""
    for a_sq in (0.0, 1.0, 3.0, 5.0):
        for b_sq in (0.0, 1.0, 3.0, 5.0):
            p = ModeParams(alpha_mag=math.sqrt(a_sq), beta_mag=math.sqrt(b_sq))
            wa = coherent_amplitudes(p.alpha_mag, choose_truncation(a_sq, profile.tail_tol))
            wb = coherent_amplitudes(p.beta_mag, choose_truncation(b_sq, profile.tail_tol))
            h = build_red_sideband(p, wa.n_max + 1, wb.n_max + 1)
            sub = vibrating_subsystem(p, wa, wb)
            for q0 in (_EXCITED, _BALANCED):
                psi0 = coherent_product_state(q0, wa, wb, wa.n_max + 1, wb.n_max + 1)
                exact = evolve_exact_series(psi0, h, times)
                for chunk in time_chunks(sub, times.size):
                    states = evolve(sub, q0, times[chunk])
                    audit.record(reduced_qubit_density(states))
                    for k, e, g in zip(range(chunk.start, chunk.stop), states.e_branch, states.g_branch):
                        deficit = 1.0 - fidelity(np.concatenate([e.ravel(), g.ravel()]), exact[k])
                        if deficit > worst:
                            worst = deficit
                            worst_at = f"a_sq={a_sq}, b_sq={b_sq}, c_e={abs(q0.c_e):.3f}, t={times[k]:.1f}"
    return CheckResult(
        name="oracle-equivalence-single",
        passed=worst <= profile.fidelity_deficit,
        measured=f"worst fidelity deficit {worst:.3e}",
        bound=f"<= {profile.fidelity_deficit:.3e}",
        seconds=time.perf_counter() - start,
        detail=worst_at,
    )


def check_falsification(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """The printed lowering coefficient must visibly break norm conservation.

    Run with the unshifted variant at unit intensities and the dimensionless
    time 2; a correct implementation of the corrected coefficient keeps the
    same norm deficit at truncation level.
    """
    start = time.perf_counter()
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    n_max = choose_truncation(1.0, profile.tail_tol)
    w = coherent_amplitudes(1.0, n_max)
    t = 2.0 / p.rabi_rate
    sub = vibrating_subsystem(p, w, w)
    bad = evolve(sub, _BALANCED, t, unshifted_d=True)
    good = evolve(sub, _BALANCED, t)
    audit.record(reduced_qubit_density(good))
    bad_dev = abs(1.0 - bad.norm_sq())
    good_dev = abs(1.0 - good.norm_sq())
    return CheckResult(
        name="printed-coefficient-falsification",
        passed=bad_dev > 1e-3,
        measured=f"norm deviation {bad_dev:.6f} (corrected variant: {good_dev:.2e})",
        bound="> 1e-03 for the uncorrected variant",
        seconds=time.perf_counter() - start,
    )


def check_map_consistency(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Process matrix applied to random pure states vs direct evolution."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    n_max = choose_truncation(1.0, profile.tail_tol)
    w = coherent_amplitudes(1.0, n_max)
    states = []
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        states.append(QubitAmplitudes(complex(v[0]), complex(v[1])))
    sub = vibrating_subsystem(p, w, w)
    times = np.linspace(0.0, 2500.0, 16)
    m = single_qubit_map(sub, times)
    worst = 0.0
    for q0 in states:
        direct = reduced_qubit_density(evolve(sub, q0, times))
        rho0 = np.array(
            [[abs(q0.c_e) ** 2, q0.c_e * np.conj(q0.c_g)],
             [q0.c_g * np.conj(q0.c_e), abs(q0.c_g) ** 2]]
        )
        via_map = m.apply(rho0)
        audit.record(direct)
        audit.record(via_map)
        worst = max(worst, float(np.max(np.abs(direct - via_map))))
    return CheckResult(
        name="map-trace-consistency",
        passed=worst <= 1e-9,
        measured=f"worst entrywise difference {worst:.3e}",
        bound="<= 1e-09",
        seconds=time.perf_counter() - start,
        detail="50 random pure states, 16 times",
    )


def _trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r1 - r2))))


def check_two_qubit_map(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Local-map composition vs the four-mode joint oracle."""
    start = time.perf_counter()
    n_max = 12
    worst = 0.0
    worst_at = ""
    for kind in ("phi", "psi"):
        spec = BellSpec(kind, 2.0 ** -0.5, 2.0 ** -0.5)
        rho0 = bell_state(spec)
        for intensity in (0.0, 1.0):
            p = ModeParams(alpha_mag=math.sqrt(intensity), beta_mag=math.sqrt(intensity))
            w = coherent_amplitudes(p.alpha_mag, n_max)
            times = np.linspace(0.0, 1000.0, 16)
            m = single_qubit_map(vibrating_subsystem(p, w, w), times)
            via_map = evolve_two_qubit(rho0, m, m)
            audit.record(via_map)
            for k, t in enumerate(times):
                via_oracle = two_subsystem_oracle(spec, p, n_max, float(t))
                audit.record(via_oracle)
                td = _trace_distance(via_map.matrix[k], via_oracle.matrix)
                if td > worst:
                    worst = td
                    worst_at = f"{kind}, intensity={intensity}, t={t:.1f}"
    return CheckResult(
        name="two-qubit-map-validation",
        passed=worst <= 1e-6,
        measured=f"worst trace distance {worst:.3e}",
        bound="<= 1e-06",
        seconds=time.perf_counter() - start,
        detail=worst_at,
    )


def check_anchors(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Exactly known values at t = 0."""
    start = time.perf_counter()
    n_max = choose_truncation(1.0, profile.tail_tol)
    w = coherent_amplitudes(1.0, n_max)
    sub = vibrating_subsystem(ModeParams(alpha_mag=1.0, beta_mag=1.0), w, w)
    failures = []

    rho = reduced_qubit_density(evolve(sub, _BALANCED, 0.0))
    audit.record(rho)
    dev = abs(l1_coherence(rho) - 1.0)
    if dev > 1e-12:
        failures.append(f"zeta(0) balanced: off by {dev:.2e}")

    rho = reduced_qubit_density(evolve(sub, _EXCITED, 0.0))
    audit.record(rho)
    dev = abs(l1_coherence(rho))
    if dev > 1e-12:
        failures.append(f"zeta(0) excited: off by {dev:.2e}")

    bell = bell_state(BellSpec("phi", 2.0 ** -0.5, 2.0 ** -0.5))
    audit.record(bell)
    dev = abs(concurrence(bell) - 1.0)
    if dev > 1e-12:
        failures.append(f"concurrence(bell): off by {dev:.2e}")
    dev = abs(two_qubit_coherence(bell) - 1.0)
    if dev > 1e-12:
        failures.append(f"TQC(0): off by {dev:.2e}")

    worst_c0 = 0.0
    for a_sq in (0.0, 1.0, 3.0, 5.0):
        for b_sq in (0.0, 1.0, 3.0, 5.0):
            pp = ModeParams(alpha_mag=math.sqrt(a_sq), beta_mag=math.sqrt(b_sq))
            wa = coherent_amplitudes(pp.alpha_mag, choose_truncation(a_sq, profile.tail_tol))
            wb = coherent_amplitudes(pp.beta_mag, choose_truncation(b_sq, profile.tail_tol))
            sub = vibrating_subsystem(pp, wa, wb)
            for q0 in (_EXCITED, _BALANCED):
                sample = mode_moments(evolve(sub, q0, 0.0))
                worst_c0 = max(worst_c0, abs(sample.cross_corr))
    if worst_c0 > 1e-12:
        failures.append(f"cross_corr(0): off by {worst_c0:.2e}")

    return CheckResult(
        name="exact-anchors",
        passed=not failures,
        measured="; ".join(failures) if failures else f"all anchors hit (worst C(0) {worst_c0:.1e})",
        bound="each within 1e-12",
        seconds=time.perf_counter() - start,
    )


def _coherence_half_times(profile: ToleranceProfile, audit: DensityAuditor) -> list[float]:
    times = np.linspace(0.0, 2500.0, 2501)
    wa = coherent_amplitudes(1.0, choose_truncation(1.0, profile.tail_tol))
    out = []
    for b_sq in (1.0, 2.0, 4.0):
        p = ModeParams(alpha_mag=1.0, beta_mag=math.sqrt(b_sq))
        wb = coherent_amplitudes(p.beta_mag, choose_truncation(b_sq, profile.tail_tol))
        sub = vibrating_subsystem(p, wa, wb)
        zeta = np.empty(times.size)
        for chunk in time_chunks(sub, times.size):
            rho = single_qubit_map(sub, times[chunk]).apply(_BALANCED_RHO)
            audit.record_sampled(rho, chunk)
            zeta[chunk] = l1_coherence(rho)
        env = upper_envelope(times, zeta)
        out.append(env.first_crossing_below(zeta[0] / 2.0))
    return out


def _two_qubit_sweeps(profile: ToleranceProfile, audit: DensityAuditor) -> tuple[list[float], list[float]]:
    times = np.linspace(0.0, 2500.0, 2501)
    rho0 = bell_state(BellSpec("phi", 2.0 ** -0.5, 2.0 ** -0.5))
    wa = coherent_amplitudes(1.0, choose_truncation(1.0, profile.tail_tol))
    extinctions, halves = [], []
    for b_sq in (1.0, 2.0, 4.0):
        p = ModeParams(alpha_mag=1.0, beta_mag=math.sqrt(b_sq))
        wb = coherent_amplitudes(p.beta_mag, choose_truncation(b_sq, profile.tail_tol))
        sub = vibrating_subsystem(p, wa, wb)
        conc = np.empty(times.size)
        tqc = np.empty(times.size)
        for chunk in time_chunks(sub, times.size):
            m = single_qubit_map(sub, times[chunk])
            rho = evolve_two_qubit(rho0, m, m)
            audit.record_sampled(rho, chunk)
            conc[chunk] = concurrence(rho)
            tqc[chunk] = two_qubit_coherence(rho)
        extinctions.append(upper_envelope(times, conc).first_crossing_below(0.01))
        halves.append(upper_envelope(times, tqc).first_crossing_below(tqc[0] / 2.0))
    return extinctions, halves


def check_qualitative_coherence_trend(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    start = time.perf_counter()
    halves = _coherence_half_times(profile, audit)
    ok = halves[0] <= halves[1] <= halves[2]
    return CheckResult(
        name="qualitative-coherence-half-time",
        passed=ok,
        measured="half-times " + ", ".join(f"{h:.1f}" for h in halves),
        bound="non-decreasing over beta_sq in {1, 2, 4} at alpha_sq = 1",
        seconds=time.perf_counter() - start,
    )


def check_qualitative_entanglement_trends(
    profile: ToleranceProfile, audit: DensityAuditor
) -> tuple[CheckResult, CheckResult]:
    start = time.perf_counter()
    extinctions, halves = _two_qubit_sweeps(profile, audit)
    elapsed = time.perf_counter() - start
    conc_ok = extinctions[0] >= extinctions[1] >= extinctions[2]
    tqc_ok = halves[0] <= halves[1] <= halves[2]
    conc_result = CheckResult(
        name="qualitative-concurrence-extinction",
        passed=conc_ok,
        measured="extinction times " + ", ".join(f"{e:.1f}" for e in extinctions),
        bound="non-increasing over beta_sq in {1, 2, 4} at alpha_sq = 1",
        seconds=elapsed / 2,
    )
    tqc_result = CheckResult(
        name="qualitative-tqc-half-time",
        passed=tqc_ok,
        measured="half-times " + ", ".join(f"{h:.1f}" for h in halves),
        bound="non-decreasing over beta_sq in {1, 2, 4} at alpha_sq = 1",
        seconds=elapsed / 2,
    )
    return conc_result, tqc_result


def check_correlation_floor(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Late-window cross-correlation: positive floor iff the qubit starts balanced."""
    start = time.perf_counter()
    p = ModeParams(alpha_mag=1.0, beta_mag=1.0)
    w = coherent_amplitudes(1.0, choose_truncation(1.0, profile.tail_tol))
    sub = vibrating_subsystem(p, w, w)
    times = np.linspace(2500.0, 5000.0, 1251)
    mins = {}
    for label, q0 in (("balanced", _BALANCED), ("excited", _EXCITED)):
        lowest = math.inf
        for chunk in time_chunks(sub, times.size):
            state = evolve(sub, q0, times[chunk])
            audit.record_sampled(reduced_qubit_density(state), chunk)
            lowest = min(lowest, float(np.min(mode_moments(state).cross_corr)))
        mins[label] = lowest
    ok = mins["balanced"] > 0.0 and mins["excited"] <= 0.0
    return CheckResult(
        name="qualitative-correlation-floor",
        passed=ok,
        measured=f"min C(t) balanced {mins['balanced']:.4e}, excited {mins['excited']:.4e}",
        bound="balanced > 0 and excited <= 0 over t in [2500, 5000]",
        seconds=time.perf_counter() - start,
    )


def check_revival(profile: ToleranceProfile, audit: DensityAuditor) -> CheckResult:
    """Stationary baseline shows the textbook collapse-revival timing."""
    start = time.perf_counter()
    p = ModeParams(alpha_mag=0.0, beta_mag=5.0)
    wb = coherent_amplitudes(5.0, choose_truncation(25.0, profile.tail_tol))
    sub = stationary_subsystem(p, wb)
    times = np.linspace(0.0, 60.0, 3001)
    signal = np.empty(times.size)
    for chunk in time_chunks(sub, times.size):
        rho = single_qubit_map(sub, times[chunk]).apply(_EXCITED_RHO)
        audit.record_sampled(rho, chunk, every=200)
        signal[chunk] = np.abs(rho[:, 0, 0].real - 0.5)
    collapse = upper_envelope(times, signal).first_crossing_below(0.05)
    peak_time, peak_value = revival_peak(times, signal, (collapse, float(times[-1])))
    expected = 2.0 * math.pi * 5.0 / p.kappa
    rel_dev = abs(peak_time - expected) / expected
    return CheckResult(
        name="stationary-revival-timing",
        passed=rel_dev <= 0.15,
        measured=f"revival peak at t {peak_time:.2f} (amplitude {peak_value:.3f})",
        bound=f"within 15% of {expected:.2f}",
        seconds=time.perf_counter() - start,
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
        seconds=0.0,
        detail=f"{audit.count} densities audited",
    )


def run_all(profile: ToleranceProfile | None = None) -> list[CheckResult]:
    """Run every check; the density audit is reported last."""
    profile = profile or ToleranceProfile()
    audit = DensityAuditor()
    results = [
        check_oracle_equivalence(profile, audit),
        check_falsification(profile, audit),
        check_map_consistency(profile, audit),
        check_two_qubit_map(profile, audit),
        check_anchors(profile, audit),
        check_qualitative_coherence_trend(profile, audit),
        *check_qualitative_entanglement_trends(profile, audit),
        check_correlation_floor(profile, audit),
        check_revival(profile, audit),
    ]
    results.append(check_density_invariants(audit))
    return results
