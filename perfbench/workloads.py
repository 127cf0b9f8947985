"""Seeded inputs of the benchmark workloads, as `vibqubit` command lines.

Standard library only: the set-up probe times this module's work after
the interpreter starts and before numpy is imported.  The same
(workload, seed) always gives the same invocations, because
``random.Random`` seeded with a string is stable across runs.

Every sweep invocation carries the parameters it was built from, so the
correctness gate can recompute each row without reading the CLI's
defaults back out of the program under test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: defaults of `vibqubit run` that the benchmark relies on and never passes
ETA = 0.02
KAPPA = 1.0
TAIL_TOL = 1e-12

ALL_MODES = (
    "single-coherence",
    "single-coherence-excited",
    "mode-correlation",
    "concurrence",
    "tqc",
    "stationary-single-coherence",
    "stationary-single-coherence-excited",
    "stationary-concurrence",
    "stationary-tqc",
)
LONG_SWEEP_MODES = (
    "single-coherence",
    "mode-correlation",
    "concurrence",
    "tqc",
    "stationary-single-coherence",
    "stationary-concurrence",
)
WIDE_GRID_MODES = ("single-coherence", "mode-correlation", "concurrence", "tqc")
SHORT_SCAN_REPEATS = 33  # 33 x 9 modes = 297 invocations

WORKLOADS = ("long-sweep", "wide-grid", "short-scan", "verify")


@dataclass(frozen=True)
class Invocation:
    """One `vibqubit run` call: its parameters, and argv without ``--out``."""

    mode: str
    alpha_sq: float
    beta_sq: float
    t_max: float
    steps: int
    c_e: complex
    c_g: complex
    bell: str
    mu: float

    def argv(self, out: str) -> list[str]:
        args = [
            "run", "--mode", self.mode,
            "--alpha-sq", repr(self.alpha_sq), "--beta-sq", repr(self.beta_sq),
            "--t-max", repr(self.t_max), "--steps", str(self.steps),
            "--bell", self.bell, "--mu", repr(self.mu),
        ]
        if not self.mode.endswith("-excited"):
            # the `=` form keeps argparse from reading "-0.3,0.1" as a flag
            args += [
                f"--ce={self.c_e.real!r},{self.c_e.imag!r}",
                f"--cg={self.c_g.real!r},{self.c_g.imag!r}",
            ]
        return args + ["--out", out]

    @property
    def stationary(self) -> bool:
        return self.mode.startswith("stationary-")

    @property
    def amplitudes(self) -> tuple[complex, complex]:
        """Initial qubit amplitudes the CLI resolves for this invocation."""
        if self.mode.endswith("-excited"):
            return 1.0 + 0j, 0j
        return self.c_e, self.c_g


def _round(x: float) -> float:
    # six significant digits print exactly in the CSV's 9-digit metadata
    return float(f"{x:.6g}")


def _invocation(rng: random.Random, mode: str, alpha_sq: float, beta_sq: float,
                t_max: float, steps: int) -> Invocation:
    theta = rng.uniform(0.0, math.pi / 2)
    phase = rng.uniform(-math.pi, math.pi)
    return Invocation(
        mode=mode,
        alpha_sq=_round(alpha_sq),
        beta_sq=_round(beta_sq),
        t_max=_round(t_max),
        steps=steps,
        c_e=complex(math.cos(theta), 0.0),
        c_g=complex(math.sin(theta) * math.cos(phase), math.sin(theta) * math.sin(phase)),
        bell=rng.choice(("phi", "psi")),
        mu=_round(rng.uniform(0.0, 1.0)),
    )


def _constant_product(rng: random.Random, lo: float, hi: float, product: float) -> tuple[float, float]:
    """alpha_sq log-uniform in [lo, hi] and beta_sq = product / alpha_sq.

    Holding the product fixed holds the Fock-grid area nearly fixed, so a
    pass costs about the same whatever the seed draws.
    """
    alpha_sq = lo * (hi / lo) ** rng.random()
    return alpha_sq, product / alpha_sq


def long_sweep(rng: random.Random) -> list[Invocation]:
    """6 modes x 2001 steps, alpha_sq in [0.5, 2], beta_sq = 2 / alpha_sq in [1, 4]."""
    out = []
    for mode in LONG_SWEEP_MODES:
        a, b = _constant_product(rng, 0.5, 2.0, 2.0)
        out.append(_invocation(rng, mode, a, b, rng.uniform(2000.0, 5000.0), 2001))
    rng.shuffle(out)
    return out


def wide_grid(rng: random.Random) -> list[Invocation]:
    """4 vibrating modes x 101 steps, alpha_sq in [66.7, 150], beta_sq = 1e4 / alpha_sq.

    Short sweeps (t_max in [20, 60], eta*kappa*t up to 1.2, past the
    collapse) keep the oracle check affordable on grids of 130-245 levels
    per mode; the row cost does not depend on t.
    """
    out = []
    for mode in WIDE_GRID_MODES:
        a, b = _constant_product(rng, 1e4 / 150.0, 150.0, 1e4)
        out.append(_invocation(rng, mode, a, b, rng.uniform(20.0, 60.0), 101))
    rng.shuffle(out)
    return out


def short_scan(rng: random.Random) -> list[Invocation]:
    """297 runs of 21 steps, each of the 9 modes 33 times in seeded order."""
    modes = list(ALL_MODES) * SHORT_SCAN_REPEATS
    rng.shuffle(modes)
    return [
        _invocation(rng, mode, rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0),
                    rng.uniform(500.0, 5000.0), 21)
        for mode in modes
    ]


def generate(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass; empty for `verify`, whose inputs are fixed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "long-sweep":
        return long_sweep(rng)
    if workload == "wide-grid":
        return wide_grid(rng)
    if workload == "short-scan":
        return short_scan(rng)
    if workload == "verify":
        return []
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


#: the warm-up call every workload makes once before timing
WARMUP = Invocation("single-coherence", 1.0, 1.0, 500.0, 21, complex(2 ** -0.5), complex(2 ** -0.5), "phi", 0.5)
