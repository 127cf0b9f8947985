"""Correctness gate: every sweep row checked, a seeded sample recomputed by expm.

The recomputation uses only :mod:`vibqubit.oracle` (sparse Hamiltonian and
``expm_multiply``), the coherent weights of :mod:`vibqubit.fock` and the
parameter containers of :mod:`vibqubit.dynamics`; partial traces, the
two-qubit map and every observable are computed here, so no closed-form
algebra of the program under test enters the reference values.

Tolerances, all absolute and applied to values printed with 9 significant
digits (relative rounding 5e-9, added to each bound):

- Densities.  The verify suite bounds the disagreement between the closed
  form and the oracle by a trace distance of 1e-6 (two-qubit map check).
  Holding every reduced density to that, an off-diagonal entry moves by at
  most T, so zeta = 2|rho_eg| moves by at most 2e-6, and the two-qubit l1
  coherence (12 off-diagonal entries) by at most 1.2e-5.
- Moments.  A trace distance T between global states moves <O> by at most
  2 T ||O||, with ||n_a|| = N_a, ||n_b|| = N_b and ||n_a n_b|| = N_a N_b
  the largest grid indices; g2 is a ratio and takes the sum of the three
  relative bounds.
- Concurrence.  C is built from square roots of the eigenvalues of
  rho rho~, which sit at 0 for the rank-deficient states these sweeps
  produce.  An eigenvalue perturbed by e moves its root by sqrt(e), so
  eigensolver rounding alone (e ~ 16 eps for a 4x4 problem) moves C by up
  to 3 sqrt(16 eps) = 1.8e-7 on top of the linear 2e-6 bound above.  The
  gate therefore allows 2e-6 + 3 * sqrt(16 * eps) and no golden bytes.
- Tail mass.  choose_truncation bounds the exact Poisson tail; the
  reported tail_mass = 1 - sum(w**2) also carries rounding: the recurrence
  w[k+1] = w[k] |alpha| / sqrt(k + 1) leaves w_k**2 off by up to ~3 k eps
  relative (3 <n> eps <= 3 (n_max + 1) eps in the sum) and the sum of
  n_max + 1 terms adds (n_max + 1) eps, so tail_mass may exceed tail_tol by
  up to 4 (n_max + 1) eps.  Seen: 1.0003e-12 at alpha_sq = 7.848, whose
  exact tail is 9.998e-13.
- Pair conservation.  a and b are created and destroyed in pairs, so
  <n_a> - <n_b> is the difference of the truncated Poisson means, which
  differ from alpha_sq, beta_sq by x p_N / (1 - tail) <= (N + 1) tail /
  (1 - tail) each (p_{N+1} = p_N x / (N + 1) <= tail).
"""
from __future__ import annotations

import math
import random
import re
from types import SimpleNamespace

import numpy as np

from vibqubit.dynamics import ModeParams, QubitAmplitudes
from vibqubit.fock import choose_truncation, coherent_amplitudes
from vibqubit.oracle import (
    build_jaynes_cummings,
    build_red_sideband,
    coherent_product_state,
    evolve_exact_series,
)

from workloads import ETA, KAPPA, TAIL_TOL, Invocation

PRINT_RTOL = 5e-9
DENSITY_TD = 1e-6
ZETA_TOL = 2 * DENSITY_TD
TQC_TOL = 12 * DENSITY_TD
EPS = float(np.finfo(float).eps)
CONCURRENCE_TOL = 2 * DENSITY_TD + 3 * math.sqrt(16 * EPS)
G2_FLOOR = 1e-15  # the CLI writes g2 = NaN below this <n_a><n_b>
PHASE_CAP = 2000.0

#: sigma_y (x) sigma_y, basis (ee, eg, ge, gg)
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)

#: verify checks that fail at the seed commit by design; reported, never gated
TREND_CHECKS = ("qualitative-coherence-half-time", "qualitative-tqc-half-time")
GUARANTEE_CHECKS = (
    "oracle-equivalence-single",
    "printed-coefficient-falsification",
    "map-trace-consistency",
    "two-qubit-map-validation",
    "exact-anchors",
    "qualitative-concurrence-extinction",
    "qualitative-correlation-floor",
    "stationary-revival-timing",
    "density-invariants",
)
_CHECK_LINE = re.compile(r"^(?P<name>[\w-]+): measured (?P<measured>.*?), bound .* \.\.\. (?P<status>PASS|FAIL)")


def expected_columns(mode: str) -> tuple[str, ...]:
    axis = "kappa_t" if mode.startswith("stationary-") else "eta_kappa_t"
    if mode == "mode-correlation":
        return ("t", axis, "n_a", "n_b", "joint", "cross_corr", "g2")
    if mode.endswith(("concurrence", "tqc")):
        return ("t", axis, "value")
    return ("t", axis, "zeta")


def parse_csv(text: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    """Metadata, header and the float table of a scenario CSV."""
    metadata, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return metadata, header or [], np.array(rows, dtype=float)


def _weights(x: float):
    return coherent_amplitudes(math.sqrt(x), choose_truncation(x, TAIL_TOL))


def _close(got: np.ndarray, want: np.ndarray, tol) -> np.ndarray:
    """Elementwise agreement within tol plus print rounding; NaN matches NaN."""
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (np.abs(got - want) <= tol + PRINT_RTOL * np.abs(want))


def check_rows(inv: Invocation, text: str) -> list[str]:
    """Invariants that must hold on every row of one CSV."""
    problems = []
    metadata, header, table = parse_csv(text)
    if tuple(header) != expected_columns(inv.mode):
        return [f"columns {header} do not match mode {inv.mode}"]
    if metadata.get("mode") != inv.mode or table.shape[0] != inv.steps:
        return [f"metadata mode {metadata.get('mode')!r} / {table.shape[0]} rows, expected {inv.mode!r} / {inv.steps}"]
    times = _times(inv)
    rate = KAPPA if inv.stationary else ETA * KAPPA
    if not (_close(table[:, 0], times, 0.0).all() and _close(table[:, 1], rate * times, 0.0).all()):
        problems.append("time columns differ from the requested grid")

    weights = [("beta_sq", _weights(inv.beta_sq))]
    if not inv.stationary:
        weights.append(("alpha_sq", _weights(inv.alpha_sq)))
    for name, w in weights:
        if not w.tail_mass <= TAIL_TOL + 4 * (w.n_max + 1) * EPS:
            problems.append(f"{name}: tail mass {w.tail_mass:.6e} exceeds {TAIL_TOL:.0e}")

    values = table[:, 2:]
    if inv.mode == "mode-correlation":
        n_a, n_b = table[:, 2], table[:, 3]
        wb, wa = weights[0][1], weights[1][1]
        tol = sum((w.n_max + 1) * w.tail_mass / (1 - w.tail_mass) for w in (wa, wb))
        tol += 1e-12 + 2 * PRINT_RTOL * (np.abs(n_a) + np.abs(n_b))
        drift = np.abs((n_a - n_b) - (inv.alpha_sq - inv.beta_sq))
        if not (drift <= tol).all():
            problems.append(f"<n_a> - <n_b> drifts {drift.max():.3e} from alpha_sq - beta_sq")
        if not np.isfinite(values[:, :4]).all():
            problems.append("non-finite moment")
    elif not inv.mode.endswith("tqc"):
        if not ((values >= 0.0) & (values <= 1.0)).all():
            problems.append(f"{header[2]} outside [0, 1]")
    elif not np.isfinite(values).all():
        problems.append("non-finite two-qubit coherence")
    return problems


def _system(inv: Invocation, basis: bool):
    """Oracle operator and initial states: |e>, |g> if ``basis``, else the run's qubit state."""
    wb = _weights(inv.beta_sq)
    qubits = [(1.0, 0.0), (0.0, 1.0)] if basis else [inv.amplitudes]
    if inv.stationary:
        levels = wb.n_max + 2
        # evolve_exact_series reads only these two fields of a TruncatedOperator
        h = SimpleNamespace(dimension=2 * levels, matrix=build_jaynes_cummings(KAPPA, levels - 1))
        grid = np.zeros(levels)
        grid[: wb.n_max + 1] = wb.weights
        states = [np.concatenate([ce * grid, cg * grid]).astype(complex) for ce, cg in qubits]
        return h, [s / np.linalg.norm(s) for s in states], (2, 1, levels)
    wa = _weights(inv.alpha_sq)
    p = ModeParams(eta=ETA, kappa=KAPPA, alpha_mag=math.sqrt(inv.alpha_sq), beta_mag=math.sqrt(inv.beta_sq))
    h = build_red_sideband(p, wa.n_max + 1, wb.n_max + 1)
    states = [
        coherent_product_state(QubitAmplitudes(ce, cg), wa, wb, wa.n_max + 1, wb.n_max + 1)
        for ce, cg in qubits
    ]
    return h, states, (2, wa.n_max + 2, wb.n_max + 2)


def _propagate(h, psi0: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """States at increasing ``times``, each stepped from the previous one."""
    out, psi, t_prev = [], psi0, 0.0
    for t in times:
        if t > t_prev:
            psi = evolve_exact_series(psi / np.linalg.norm(psi), h, np.array([t - t_prev]))[0]
        out.append(psi)
        t_prev = t
    return out


def _two_qubit_density(inv: Invocation, phi_e: np.ndarray, phi_g: np.ndarray) -> np.ndarray:
    """(Phi x Phi)(Bell) with Phi(|x><y|) = Tr_modes |phi_x><phi_y|."""
    phi = np.stack([phi_e, phi_g]).reshape(2, 2, -1)  # (basis state, qubit, modes)
    k = np.einsum("xim,yjm->xyij", phi, phi.conj())
    mu, upsilon = inv.mu, math.sqrt(max(0.0, 1.0 - inv.mu * inv.mu))
    psi = np.array([0.0, mu, upsilon, 0.0] if inv.bell == "phi" else [mu, 0.0, 0.0, upsilon])
    rho0 = np.outer(psi, psi).reshape(2, 2, 2, 2)
    return np.einsum("abcd,acij,bdkl->ikjl", rho0, k, k).reshape(4, 4)


def wootters_concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4), l_i the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho))."""
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    r = root @ (_YY @ rho.conj() @ _YY) @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (r + r.conj().T)), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def oracle_values(inv: Invocation, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected value columns at ``times`` and their absolute tolerances."""
    two_qubit = inv.mode.endswith(("concurrence", "tqc"))
    h, states, shape = _system(inv, basis=two_qubit)
    series = [_propagate(h, s, times) for s in states]
    expected, tols = [], []
    for k in range(len(times)):
        psi = [series[j][k].reshape(shape) for j in range(len(states))]
        if two_qubit:
            rho = _two_qubit_density(inv, *psi)
            if inv.mode.endswith("concurrence"):
                expected.append([wootters_concurrence(rho)])
                tols.append([CONCURRENCE_TOL])
            else:
                expected.append([float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diag(rho))))])
                tols.append([TQC_TOL])
        elif inv.mode == "mode-correlation":
            prob = np.sum(np.abs(psi[0]) ** 2, axis=0)
            prob /= prob.sum()
            m = np.arange(prob.shape[0])[:, None]
            n = np.arange(prob.shape[1])[None, :]
            n_a, n_b, joint = (float(np.sum(x * prob)) for x in (m, n, m * n))
            denom = n_a * n_b
            g2 = joint / denom if denom > G2_FLOOR else math.nan
            top_a, top_b = prob.shape[0] - 1, prob.shape[1] - 1
            tol_a, tol_b, tol_j = (2 * DENSITY_TD * x for x in (top_a, top_b, top_a * top_b))
            tol_g2 = abs(g2) * (tol_j / joint + tol_a / n_a + tol_b / n_b) if denom > G2_FLOOR else 0.0
            expected.append([n_a, n_b, joint, joint - denom, g2])
            tols.append([tol_a, tol_b, tol_j, tol_j + tol_a * n_b + tol_b * n_a, tol_g2])
        else:
            e, g = psi[0][0].ravel(), psi[0][1].ravel()
            expected.append([2.0 * abs(np.vdot(g, e))])
            tols.append([ZETA_TOL])
    return np.array(expected), np.array(tols)


def check_oracle(inv: Invocation, text: str, rows: list[int]) -> list[str]:
    """Compare the given row indices of one CSV with the expm oracle."""
    _, _, table = parse_csv(text)
    rows = sorted(rows)
    # the printed t has 9 digits; the run used the exact grid
    expected, tols = oracle_values(inv, _times(inv)[rows])
    got = table[rows, 2:]
    ok = _close(got, expected, tols)
    if ok.all():
        return []
    k, c = np.argwhere(~ok)[0]
    return [
        f"row {rows[k]} column {c + 2}: {float(got[k, c])!r} vs oracle {float(expected[k, c])!r} "
        f"(tolerance {tols[k, c]:.2e})"
    ]


def _times(inv: Invocation) -> np.ndarray:
    return np.arange(inv.steps) * (inv.t_max / (inv.steps - 1))


def oracle_rows(inv: Invocation, rng: random.Random, count: int) -> list[int]:
    """``count`` seeded row indices among those the oracle can reach cheaply.

    expm_multiply takes steps in proportion to ||H t||, so rows are drawn
    from those where the fastest rotation on the grid has turned through
    at most PHASE_CAP radians; for the stationary modes (coupling kappa,
    not eta kappa) that is the first few hundred time units.
    """
    wb = _weights(inv.beta_sq)
    if inv.stationary:
        fastest = KAPPA * math.sqrt(wb.n_max + 2)
    else:
        fastest = ETA * KAPPA * math.sqrt((_weights(inv.alpha_sq).n_max + 2) * (wb.n_max + 2))
    times = _times(inv)
    eligible = [k for k in range(inv.steps) if fastest * times[k] <= PHASE_CAP]
    return rng.sample(eligible, min(count, len(eligible)))


def check_sweep(invocations: list[Invocation], texts: list[str], rng: random.Random,
                scenarios: int, rows: int) -> dict[int, list[str]]:
    """Problems by scenario index: row invariants on all, the oracle on a sample."""
    problems = {i: check_rows(inv, text) for i, (inv, text) in enumerate(zip(invocations, texts))}
    for i in rng.sample(range(len(invocations)), min(scenarios, len(invocations))):
        if not problems[i]:
            problems[i] = check_oracle(invocations[i], texts[i], oracle_rows(invocations[i], rng, rows))
    return {i: p for i, p in problems.items() if p}


def parse_verify(output: str) -> dict[str, tuple[str, str]]:
    """check name -> (status, measured) from the text `vibqubit verify` prints."""
    results = {}
    for line in output.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            results[match["name"]] = (match["status"], match["measured"])
    return results


def verify_failures(results: dict[str, tuple[str, str]]) -> list[str]:
    """Guarantee checks that did not PASS, missing ones included."""
    failures = [n for n in GUARANTEE_CHECKS if results.get(n, ("missing",))[0] != "PASS"]
    extra = [n for n, (status, _) in results.items()
             if n not in GUARANTEE_CHECKS and n not in TREND_CHECKS and status != "PASS"]
    return failures + extra
