"""Per-layer tracing from outside the package: wrapped public functions.

Each layer is a module of `vibqubit`; each wrapped function records a span
(name, start, end, parent) in memory.  A span's self time is its duration
minus the durations of its direct children, which nest inside it.

A function is wrapped wherever it is bound: in its own module and in every
module that bound it with ``from .x import y`` (``scenarios``, ``verify``,
``oracle``, ``composite``, and ``dynamics`` itself for ``single_qubit_map``
calling ``evolve_state``).  A name a later version of the package no
longer defines is skipped, so its metrics read 0.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: span group -> (module, function names); a group's time is the self time of its spans
GROUPS = {
    "fock": ("fock", ("choose_truncation", "coherent_amplitudes")),
    "dynamics.evolve": ("dynamics", ("evolve_state", "stationary_evolve")),
    "dynamics.map": ("dynamics", ("single_qubit_map",)),
    "dynamics.reduce": ("dynamics", ("reduced_qubit_density",)),
    "observables.l1": ("observables", ("l1_coherence",)),
    "observables.moments": ("observables", ("mode_moments",)),
    "composite.evolve2": ("composite", ("bell_state", "evolve_two_qubit")),
    "composite.concurrence": ("composite", ("concurrence",)),
    "composite.tqc": ("composite", ("two_qubit_coherence",)),
    "scenarios.run": ("scenarios", ("run_scenario",)),
    "scenarios.csv": ("scenarios", ("write_csv",)),
    "cli": ("cli", ("main",)),
    "oracle.build": ("oracle", ("build_red_sideband", "coherent_product_state")),
    "oracle.expm": ("oracle", ("evolve_exact_series",)),
    "oracle.joint": ("oracle", ("two_subsystem_oracle",)),
    "curves": ("curves", ("upper_envelope", "revival_peak")),
}
#: verify checks, each its own span group ``verify.<name>``
VERIFY_CHECKS = (
    "oracle_equivalence",
    "falsification",
    "map_consistency",
    "two_qubit_map",
    "anchors",
    "qualitative_coherence_trend",
    "qualitative_entanglement_trends",
    "correlation_floor",
    "revival",
    "density_invariants",
)


def targets():
    """(group, module name, function name) of every function to wrap."""
    for group, (module, names) in GROUPS.items():
        for name in names:
            yield group, module, name
    for check in VERIFY_CHECKS:
        yield f"verify.{check}", "verify", f"check_{check}"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [group, start, end, parent index]
        self.stack: list[int] = []
        self.fock_args: set = set()
        self.kernel_entries = 0
        self.csv_bytes = 0
        self.max_dim = 0
        self.audit_calls = 0

    def wrap(self, group: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([group, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # observers run after the span closes, so their cost lands in the parent

    def _fock(self, name):
        def observe(args, kwargs, result):
            key = (name, args, tuple(sorted(kwargs.items())))
            try:
                self.fock_args.add(key)
            except TypeError:  # an unhashable argument
                self.fock_args.add(repr(key))
        return observe

    def _state(self, args, kwargs, result):
        self.kernel_entries += getattr(getattr(result, "e_branch", None), "size", 0)

    def _csv(self, args, kwargs, result):
        path = kwargs.get("path", args[2] if len(args) > 2 else None)
        if path is not None and os.path.exists(path):
            self.csv_bytes += os.path.getsize(path)

    def _operator(self, args, kwargs, result):
        self.max_dim = max(self.max_dim, getattr(result, "dimension", 0))

    def _observer(self, group: str, name: str):
        if group == "fock":
            return self._fock(name)
        if group == "dynamics.evolve":
            return self._state
        if group == "scenarios.csv":
            return self._csv
        if name == "build_red_sideband":
            return self._operator
        return None

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every target where it is bound; returns what to restore."""
        package = {n: m for n, m in sys.modules.items() if n == "vibqubit" or n.startswith("vibqubit.")}
        restore = []
        for group, module, name in targets():
            fn = getattr(package.get(f"vibqubit.{module}"), name, None)
            if fn is None:
                continue
            wrapped = self.wrap(group, fn, self._observer(group, name))
            for mod in package.values():
                if getattr(mod, name, None) is fn:
                    restore.append((mod, name, fn))
                    setattr(mod, name, wrapped)
        auditor = getattr(package.get("vibqubit.verify"), "DensityAuditor", None)
        if auditor is not None and hasattr(auditor, "record"):
            record = auditor.record

            def counted(auditor_self, *args, **kwargs):
                self.audit_calls += 1
                return record(auditor_self, *args, **kwargs)

            restore.append((auditor, "record", record))
            auditor.record = counted
        return restore

    @staticmethod
    def uninstall(restore) -> None:
        for owner, name, fn in reversed(restore):
            setattr(owner, name, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count by group."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (group, start, end, _), inner in zip(self.spans, child):
            self_s[group] += end - start - inner
            calls[group] += 1
        return self_s, calls

    def inclusive(self, group: str) -> float:
        return sum(end - start for g, start, end, _ in self.spans if g == group)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in BENCHMARK.json."""
        self_s, calls = self.totals()
        fock_calls = calls["fock"]
        out = {
            "fock.calls": fock_calls,
            "fock.self_s": self_s["fock"],
            "fock.distinct_frac": len(self.fock_args) / fock_calls if fock_calls else 0.0,
            "dynamics.evolve.calls": calls["dynamics.evolve"],
            "dynamics.evolve.self_s": self_s["dynamics.evolve"],
            "dynamics.kernel_entries": self.kernel_entries,
            "dynamics.map.self_s": self_s["dynamics.map"],
            "dynamics.reduce.self_s": self_s["dynamics.reduce"],
            "observables.l1.self_s": self_s["observables.l1"],
            "observables.moments.self_s": self_s["observables.moments"],
            "observables.calls": calls["observables.l1"] + calls["observables.moments"],
            "composite.evolve2.self_s": self_s["composite.evolve2"],
            "composite.concurrence.self_s": self_s["composite.concurrence"],
            "composite.tqc.self_s": self_s["composite.tqc"],
            "composite.calls": sum(calls[g] for g in ("composite.evolve2", "composite.concurrence", "composite.tqc")),
            "scenarios.run.self_s": self_s["scenarios.run"],
            "scenarios.csv_s": self_s["scenarios.csv"],
            "scenarios.csv_bytes": self.csv_bytes,
            "cli.self_s": self_s["cli"],
            "oracle.build_s": self_s["oracle.build"],
            "oracle.expm_s": self_s["oracle.expm"],
            "oracle.joint_s": self_s["oracle.joint"],
            "oracle.max_dim": self.max_dim,
            "curves.self_s": self_s["curves"],
            "verify.audit.calls": self.audit_calls,
        }
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.s"] = self.inclusive(f"verify.{check}")
        return out
