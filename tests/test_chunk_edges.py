"""Sweep rows at the edges of time chunks against the sparse-expm oracle.

Each scenario mode runs a sweep cut into at least three chunks, the last
one partial, and the first and last row of every chunk are recomputed from
the oracle's Hamiltonian and ``expm_multiply`` with this module's own
partial traces, two-qubit map and Wootters concurrence.

Tolerances follow from the trace distance of 1e-6 to which the verification
suite holds the closed form: an off-diagonal entry of a reduced density
moves by at most that, so zeta = 2|rho_eg| by 2e-6 and the l1 coherence of
a two-qubit density (12 off-diagonal entries) by 1.2e-5; a mode moment
``<O>`` moves by at most ``2e-6 ||O||``; concurrence adds the eigensolver's
``3 sqrt(16 eps)``, since it takes square roots of eigenvalues near zero.
"""
import math

import numpy as np
import pytest

from vibqubit import QubitAmplitudes, dynamics
from vibqubit.oracle import evolve_coherent
from vibqubit.scenarios import ALL_MODES, Scenario, run_scenario

TRACE_DISTANCE = 1e-6
EPS = float(np.finfo(float).eps)
STEPS = 11
TIMES_PER_CHUNK = 4
#: sigma_y (x) sigma_y in the basis (ee, eg, ge, gg)
YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


def scenario(mode):
    amplitudes = (1.0, 0.0) if mode.endswith("-excited") else (0.6, 0.8j)
    return Scenario(
        mode=mode, alpha_sq=1.0, beta_sq=2.0, c_e=amplitudes[0], c_g=amplitudes[1],
        bell_kind="psi", mu=0.6, n_steps=STEPS,
        t_max=40.0 if mode.startswith("stationary-") else 900.0,
    )


def subsystem(s):
    stationary = s.mode.startswith("stationary-")
    return (dynamics.stationary_subsystem if stationary else dynamics.vibrating_subsystem)(s.mode_params())


def oracle_branches(s, *qubits):
    """Evolved (T, K, 2, levels_a, levels_b) amplitudes of each qubit state x
    the modes of the scenario's subsystem; a stationary run has one level on
    mode a."""
    p, modes = s.mode_params(), subsystem(s).modes
    if s.mode.startswith("stationary-"):
        return evolve_coherent(p.kappa, qubits, modes, s.times())[:, :, :, None]
    return evolve_coherent(p.rabi_rate, qubits, modes, s.times())


def oracle_values(s):
    """(T, value columns) of the scenario, from the oracle alone."""
    base = s.mode.removeprefix("stationary-")
    q0 = QubitAmplitudes(s.c_e, s.c_g)
    if base.startswith("single-coherence"):
        psi = oracle_branches(s, q0)[:, 0]
        return 2.0 * np.abs(np.einsum("tmn,tmn->t", psi[:, 0], psi[:, 1].conj()))[:, None]
    if base == "mode-correlation":
        prob = np.sum(np.abs(oracle_branches(s, q0)[:, 0]) ** 2, axis=1)
        m = np.arange(prob.shape[1])[:, None]
        n = np.arange(prob.shape[2])[None, :]
        total = prob.sum(axis=(1, 2))
        n_a, n_b, joint = ((prob * w).sum(axis=(1, 2)) / total for w in (m, n, m * n))
        return np.stack([n_a, n_b, joint, joint - n_a * n_b, joint / (n_a * n_b)], axis=1)
    # process matrix: entry (q, r, x, y) is the mode trace of |psi_x><psi_y|
    basis = oracle_branches(s, QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.0, 1.0))
    m4 = np.einsum("txqmn,tyrmn->tqrxy", basis, basis.conj())
    psi = np.array([s.mu, 0, 0, s.upsilon] if s.bell_kind == "psi" else [0, s.mu, s.upsilon, 0])
    rho0 = np.outer(psi, psi).reshape(2, 2, 2, 2)
    rho = np.einsum("taceg,tbdfh,efgh->tabcd", m4, m4, rho0).reshape(STEPS, 4, 4)
    if base == "tqc":
        return (np.abs(rho).sum(axis=(1, 2)) - np.abs(np.diagonal(rho, axis1=1, axis2=2)).sum(axis=1))[:, None]
    values = []
    for r in rho:
        lam = np.sort(np.maximum(np.linalg.eigvals(r @ YY @ r.conj() @ YY).real, 0.0))[::-1]
        roots = np.sqrt(lam)
        values.append(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
    return np.array(values)[:, None]


def tolerances(s, values):
    """Allowed difference per value column, from the trace distance bound."""
    base = s.mode.removeprefix("stationary-")
    if base.startswith("single-coherence"):
        return np.array([2 * TRACE_DISTANCE])
    if base == "tqc":
        return np.array([12 * TRACE_DISTANCE])
    if base == "concurrence":
        return np.array([2 * TRACE_DISTANCE + 3 * math.sqrt(16 * EPS)])
    # ||n_a|| and ||n_b|| are the largest grid indices
    norm_a, norm_b = (w.n_max + 1 for w in subsystem(s).modes)
    n_a, n_b, joint = np.max(values[:, :3], axis=0)
    d_a, d_b, d_joint = (2 * TRACE_DISTANCE * x for x in (norm_a, norm_b, norm_a * norm_b))
    d_cross = d_joint + n_a * d_b + n_b * d_a
    # g2 = joint / (n_a n_b): relative bounds add
    n_a_min, n_b_min, joint_min = np.min(values[:, :3], axis=0)
    rel_g2 = d_joint / joint_min + d_a / n_a_min + d_b / n_b_min
    return np.array([d_a, d_b, d_joint, d_cross, rel_g2 * np.max(values[:, 4])])


@pytest.mark.parametrize("mode", ALL_MODES)
def test_chunk_edges_match_oracle(mode, monkeypatch):
    s = scenario(mode)
    sub = subsystem(s)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", TIMES_PER_CHUNK * 4 * sub.weights.nbytes)
    chunks = [chunk for chunk, _, _ in dynamics._phases(sub, s.times())]
    assert len(chunks) >= 3 and chunks[-1].stop - chunks[-1].start < TIMES_PER_CHUNK

    rows = run_scenario(s)[:, 2:]
    expected = oracle_values(s)
    bound = tolerances(s, expected)
    for chunk in chunks:
        for k in (chunk.start, chunk.stop - 1):
            assert np.all(np.abs(rows[k] - expected[k]) <= bound), (mode, k, rows[k], expected[k])
