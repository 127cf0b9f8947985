"""The benchmark's contract with the package: every name it uses resolves.

``perfbench/gate.py`` imports its oracle and parameter names from the
package, and ``perfbench/spans.py`` wraps package functions by name.  A
deletion that takes one of them away should fail here, not silently zero a
per-layer metric or break the benchmark's correctness gate.
"""
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from vibqubit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: span targets the package no longer defines; the tracer skips them and
#: their metrics read 0 until spans.py names the functions sweeps call
KNOWN_MISSING = {("dynamics", "evolve_state"), ("dynamics", "stationary_evolve")}


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/`` importable for one test; its modules are dropped after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_gate_imports_resolve(perfbench):
    gate = importlib.import_module("gate")
    assert callable(gate.coherent_product_state) and callable(gate.evolve_exact_series)


def test_span_targets_resolve(perfbench):
    spans = importlib.import_module("spans")
    missing = {
        (module, name)
        for _, module, name in spans.targets()
        if not callable(getattr(importlib.import_module(f"vibqubit.{module}"), name, None))
    }
    assert missing <= KNOWN_MISSING


def test_gate_passes_a_stationary_and_a_vibrating_run_on_every_row(perfbench, tmp_path):
    # the benchmark's whole oracle path: row invariants, then every row against the gate's oracle
    gate, workloads = importlib.import_module("gate"), importlib.import_module("workloads")
    vibrating = dataclasses.replace(workloads.WARMUP, c_e=0.6 + 0j, c_g=0.8j)
    stationary = dataclasses.replace(workloads.WARMUP, mode="stationary-concurrence", t_max=20.0)
    for inv in (stationary, vibrating):
        out = tmp_path / f"{inv.mode}.csv"
        assert main(inv.argv(str(out))) == 0
        text = out.read_text()
        assert gate.check_rows(inv, text) == []
        assert gate.check_oracle(inv, text, list(range(inv.steps))) == []
