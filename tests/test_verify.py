"""Unit tests for the verification plumbing itself.

The full suite is exercised end-to-end by the acceptance tests; here we pin
the report formatting, the density auditor, how ``run_all`` calls and
times the checks, and the two-qubit map's detail line.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from vibqubit import oracle, verify
from vibqubit.verify import CheckResult, DensityAuditor


class TestCheckResultLine:
    def test_pass_line(self):
        result = CheckResult(
            name="demo", passed=True, measured="1.0e-9", bound="<= 1e-8", seconds=0.1
        )
        assert result.line() == "demo: measured 1.0e-9, bound <= 1e-8 ... PASS"

    def test_fail_line_with_detail(self):
        result = CheckResult(
            name="demo",
            passed=False,
            measured="2",
            bound="1",
            seconds=0.1,
            detail="extra context",
        )
        line = result.line()
        assert line.endswith("FAIL  [extra context]")
        assert "measured 2, bound 1" in line


class TestDensityAuditor:
    def test_counts_and_tracks_worst_case(self):
        audit = DensityAuditor()
        audit.record(np.eye(2) / 2.0)
        audit.record(np.diag([0.7, 0.2]))  # trace 0.9
        assert audit.count == 2
        assert audit.max_trace_dev == pytest.approx(0.1, abs=1e-15)
        assert audit.max_herm_dev == 0.0
        assert audit.min_eigenvalue == pytest.approx(0.2, abs=1e-15)

    def test_detects_negative_eigenvalue_and_hermiticity_break(self):
        audit = DensityAuditor()
        audit.record(np.array([[0.5, 0.6], [0.6, 0.5]]))  # eigenvalues -0.1, 1.1
        assert audit.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
        audit.record(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
        assert audit.max_herm_dev == pytest.approx(0.2, abs=1e-15)


class TestRunAll:
    def test_times_each_check_it_looks_up_by_name(self, monkeypatch):
        # run_all finds each check_<name> when it runs, so a rebound check
        # (as a tracer installs) is the one called; the paired trend checks
        # split the time of their one call
        calls = []

        def fake(name, n_results):
            def check(audit):
                calls.append(name)
                time.sleep(0.01)
                out = tuple(
                    CheckResult(name=f"{name}-{i}", passed=True, measured="", bound="")
                    for i in range(n_results)
                )
                return out if n_results > 1 else out[0]
            return check

        for name in verify.CHECKS:
            pair = name == "qualitative_entanglement_trends"
            monkeypatch.setattr(verify, f"check_{name}", fake(name, 2 if pair else 1))
        results = verify.run_all()
        assert calls == list(verify.CHECKS)
        assert len(results) == 11
        assert all(r.seconds >= 0.005 for r in results if "entanglement" not in r.name)
        first, second = (r for r in results if "entanglement" in r.name)
        assert first.seconds == second.seconds >= 0.004


class TestOraclePasses:
    """Each check steps the states that share a Hamiltonian in one pass."""

    @pytest.mark.parametrize(
        "check, passes",
        [
            ("oracle_equivalence", 16),  # one per intensity pair
            ("two_qubit_map", 4),  # one per (kind, intensity)
        ],
    )
    def test_expm_pass_count(self, monkeypatch, check, passes):
        calls = []
        propagate = oracle._propagate_expm

        def counted(*args, **kwargs):
            calls.append(1)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(oracle, "_propagate_expm", counted)
        result = getattr(verify, f"check_{check}")(DensityAuditor())
        assert result.passed, result.line()
        assert len(calls) == passes


def test_two_qubit_map_detail_names_no_arbitrary_tied_point(results):
    # the oracle keeps the truncated norm, as the map does, so every point
    # agrees to rounding and the detail names none of them
    assert results["two-qubit-map-validation"].detail == "64 points, all within 16 eps"


def test_revival_without_collapse_fails_instead_of_raising(monkeypatch):
    # an empty cavity gives a Rabi oscillation whose envelope never falls
    # below 0.05, so there is no window to look for a revival in
    inputs = verify._inputs
    monkeypatch.setattr(verify, "_inputs", lambda a_sq, b_sq: inputs(a_sq, 0.0))
    result = verify.check_revival(DensityAuditor())
    assert not result.passed
    assert result.measured == "no collapse below 0.05 by t 60.00"


def test_revival_bound_follows_the_cavity_it_ran(monkeypatch):
    inputs = verify._inputs  # the expected revival time is 2 pi |beta| / kappa of these
    monkeypatch.setattr(verify, "_inputs", lambda a_sq, b_sq: inputs(a_sq, 16.0))
    assert verify.check_revival(DensityAuditor()).bound == "within 15% of 25.13"
