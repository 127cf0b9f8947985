"""Sweep rows and verify verdicts against values committed from an earlier revision.

``tests/golden.npz`` holds the unformatted rows of 36 scenarios (9 modes x
(alpha_sq, beta_sq) in {(0, 0), (1, 4), (0.3, 2.2), (9, 25)}, 61 steps,
default ``t_max``, c = (0.6, 0.8i) or |e> for the ``-excited`` modes) and,
from the verify suite, each check's name, PASS/FAIL status and the
one-decimal half-times and extinction times it prints.  Regenerate it from
the code on the path with

    PYTHONPATH=src python tests/test_golden.py

and give the largest change per column in CHANGES.md when you do.

Rounding may move a row, not the physics.  ``theta_max = rate * t_max *
freqs[-1]`` is the sweep's largest rotation angle; direct cos/sin already
carries about ``theta * eps`` of angle error, so zeta and TQC are held
within ``1e-12 + 16 theta_max eps`` absolute, the moments within that bound
relative to the magnitude of what each is computed from, and concurrence
within that bound plus the eigensolver's ``3 sqrt(16 eps)`` (it takes square
roots of eigenvalues near zero).  g2 must be NaN in the same places.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest

from vibqubit.dynamics import stationary_subsystem, vibrating_subsystem
from vibqubit.scenarios import ALL_MODES, Scenario, run_scenario

GOLDEN = Path(__file__).with_name("golden.npz")
INTENSITIES = ((0.0, 0.0), (1.0, 4.0), (0.3, 2.2), (9.0, 25.0))
STEPS = 61
EPS = float(np.finfo(float).eps)
#: a printed half-time or extinction time: the numbers after the label
_TIMES = re.compile(r"^(?:half-times|extinction times) (.*)$")


def scenario(mode: str, alpha_sq: float, beta_sq: float) -> Scenario:
    amplitudes = {} if mode.endswith("-excited") else {"c_e": 0.6, "c_g": 0.8j}
    return Scenario(mode=mode, alpha_sq=alpha_sq, beta_sq=beta_sq, n_steps=STEPS, **amplitudes)


def _key(mode: str, alpha_sq: float, beta_sq: float) -> str:
    return f"rows/{mode}/{alpha_sq!r}/{beta_sq!r}"


def verify_summary(results) -> dict[str, np.ndarray]:
    """Names, statuses and printed times of the verify checks, in suite order."""
    times = [_TIMES.match(r.measured) for r in results]
    return {
        "verify/names": np.array([r.name for r in results]),
        "verify/passed": np.array([r.passed for r in results]),
        "verify/times": np.array([m.group(1) if m else "" for m in times]),
    }


def write_golden(path: Path = GOLDEN) -> None:
    from vibqubit.verify import run_all

    arrays = {
        _key(mode, a, b): run_scenario(scenario(mode, a, b))
        for mode in ALL_MODES
        for a, b in INTENSITIES
    }
    arrays.update(verify_summary(run_all()))
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def _phase_bound(s: Scenario) -> float:
    """``1e-12 + 16 theta_max eps`` for the sweep of ``s``."""
    build = stationary_subsystem if s.mode.startswith("stationary-") else vibrating_subsystem
    sub = build(s.mode_params())
    return 1e-12 + 16.0 * sub.rate * s.t_max * sub.freqs[-1] * EPS


@pytest.mark.parametrize("mode", ALL_MODES)
def test_rows_match_golden(mode, golden):
    base = mode.removeprefix("stationary-")
    for a, b in INTENSITIES:
        s = scenario(mode, a, b)
        old = golden[_key(mode, a, b)]
        new = run_scenario(s)
        assert new.shape == old.shape
        assert np.array_equal(new[:, :2], old[:, :2]), (mode, a, b)  # t and the scaled axis
        bound = _phase_bound(s)
        old, new = old[:, 2:], new[:, 2:]
        if base == "mode-correlation":
            n_a, n_b, joint = old[:, 0], old[:, 1], old[:, 2]
            # cross_corr = joint - n_a n_b rounds on the scale of its two terms
            scale = np.abs(old)
            scale[:, 3] = np.abs(joint) + np.abs(n_a * n_b)
            assert np.array_equal(np.isnan(new), np.isnan(old)), (mode, a, b)
            both = ~np.isnan(old)
            assert np.all(np.abs(new - old)[both] <= bound * scale[both]), (mode, a, b)
        else:
            if base == "concurrence":
                bound += 3.0 * math.sqrt(16.0 * EPS)
            assert np.all(np.abs(new - old) <= bound), (mode, a, b, np.max(np.abs(new - old)))


def test_verify_matches_golden(results, golden):
    summary = verify_summary(list(results.values()))
    for key, value in summary.items():
        assert np.array_equal(value, golden[key]), (key, value, golden[key])


if __name__ == "__main__":
    write_golden()
