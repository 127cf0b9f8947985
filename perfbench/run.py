"""Benchmark of the `vibqubit` command line: sweeps and the verify suite.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-sweep --seed 1 --seconds 20 --trace 0

One client drives ``vibqubit.cli.main(argv)`` in this process in a closed
loop: the next invocation starts when the previous one has written its
CSV.  A pass is one run of every invocation of the workload; passes repeat
(at least twice) until the next one would end past ``--seconds``.  Every pass is gated on
correctness (gate.py); ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` alternates plain and traced passes and prints the per-layer
metrics (spans.py).  The last line of output is one JSON object.

BLAS threads are capped at the number of CPUs this process may use.  Only
process-local measures are taken: no CPU pinning, cache dropping, cgroup
or kernel setting, so a shared host adds run-to-run noise, which the
median over passes and set-ups absorbs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
MIN_PASSES = 2  # so verify (about 10 s a pass) never reports a single pass
#: per workload, how many scenarios and rows in each the oracle recomputes
ORACLE_SAMPLE = {"long-sweep": (2, 3), "wide-grid": (1, 1), "short-scan": (6, 2)}

import workloads  # noqa: E402  (stdlib only)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads (inherited by the set-up runs)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def time_setups(workload: str, seed: int, workdir: Path) -> list[float]:
    """Seconds of SETUP_RUNS fresh set-ups (import, inputs, warm-up), one after another."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Workload:
    """Passes of one workload and what the gate needs from them."""

    def __init__(self, cli, name: str, seed: int, workdir: Path):
        self.cli, self.name, self.seed, self.workdir = cli, name, seed, workdir
        self.invocations = workloads.generate(name, seed)
        self.walls: list[float] = []  # seconds per plain pass
        self.traced_walls: list[float] = []
        self.latencies: list[list[float]] = []  # seconds per invocation, by plain pass
        self.rows: list[int] = []  # output rows per plain pass
        self.layer_metrics: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_texts: list[str | None] | None = None
        self.first_digests: list[str | None] | None = None
        self.verify_results: dict | None = None

    def _call(self, argv: list[str]) -> tuple[int | None, str]:
        """Exit code (None if it raised) and captured stdout of one CLI call."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                return self.cli.main(argv), out.getvalue()
        except Exception:  # a failed operation is counted, not fatal
            self.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None, out.getvalue()

    def run_pass(self, tracer=None) -> None:
        restore = tracer.install() if tracer is not None else []
        try:
            if self.name == "verify":
                start = time.perf_counter()
                code, output = self._call(["verify"])
                wall = time.perf_counter() - start
                latencies = [wall]
            else:
                latencies, codes = [], []
                start = time.perf_counter()
                for i, inv in enumerate(self.invocations):
                    t0 = time.perf_counter()
                    codes.append(self._call(inv.argv(str(self.workdir / f"{i:03d}.csv")))[0])
                    latencies.append(time.perf_counter() - t0)
                wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall(restore)
        if self.name == "verify":
            rows = self._gate_verify(code, output)
        else:
            rows = self._gate_sweep(codes)
        if tracer is None:
            self.walls.append(wall)
            self.latencies.append(latencies)
            self.rows.append(rows)
        else:
            self.traced_walls.append(wall)
            self.layer_metrics.append(tracer.metrics())

    def _gate_verify(self, code, output: str) -> int:
        import gate

        results = gate.parse_verify(output)
        failures = gate.verify_failures(results) if code in (0, 1) else list(gate.GUARANTEE_CHECKS)
        self.attempted += max(len(gate.GUARANTEE_CHECKS), len(results) - len(gate.TREND_CHECKS))
        self.failed += len(failures)
        self.problems += [f"verify check {name} did not pass" for name in failures]
        self.verify_results = self.verify_results or results
        return len(results)

    def _gate_sweep(self, codes: list) -> int:
        """Exit codes and byte identity now; row checks once, on the first pass."""
        texts, digests = [], []
        for i, code in enumerate(codes):
            path = self.workdir / f"{i:03d}.csv"
            text = path.read_text() if code == 0 and path.exists() else None
            texts.append(text)
            digests.append(hashlib.sha256(text.encode()).hexdigest() if text is not None else None)
        if self.first_digests is None:
            self.first_texts, self.first_digests = texts, digests
        bad = set()
        for i, (code, digest) in enumerate(zip(codes, digests)):
            if code != 0 or digest is None:
                bad.add(i)
                self.problems.append(f"invocation {i} ({self.invocations[i].mode}) exited with {code}")
            elif digest != self.first_digests[i]:
                bad.add(i)
                self.problems.append(f"invocation {i} ({self.invocations[i].mode}) CSV differs from the first pass")
        self.attempted += len(codes)
        self.failed += len(bad)
        return sum(self.invocations[i].steps for i in range(len(codes)) if i not in bad)

    def gate_content(self, passes: int) -> None:
        """Row invariants on every CSV and the oracle on a seeded sample.

        A scenario that fails counts as a failed operation in every pass.
        """
        if self.name == "verify" or self.first_texts is None:
            return
        import gate

        present = [i for i, text in enumerate(self.first_texts) if text is not None]
        scenarios, rows = ORACLE_SAMPLE[self.name]
        found = gate.check_sweep(
            [self.invocations[i] for i in present],
            [self.first_texts[i] for i in present],
            random.Random(f"gate/{self.name}/{self.seed}"),
            scenarios, rows,
        )
        for k, problems in found.items():
            inv = self.invocations[present[k]]
            self.failed += passes
            self.problems += [f"{inv.mode} alpha_sq={inv.alpha_sq} beta_sq={inv.beta_sq}: {p}" for p in problems]


def measure(work: Workload, seconds: float, traced: bool) -> int:
    """Run passes (plain, or plain+traced pairs) until the next would overrun, at least MIN_PASSES."""
    import spans

    start = time.perf_counter()
    units = []
    while True:
        t0 = time.perf_counter()
        if not traced:
            work.run_pass()
        elif len(units) % 2:  # alternate the order so neither side always runs first
            work.run_pass(spans.Tracer())
            work.run_pass()
        else:
            work.run_pass()
            work.run_pass(spans.Tracer())
        units.append(time.perf_counter() - t0)
        if len(units) >= MIN_PASSES and time.perf_counter() - start + statistics.median(units) > seconds:
            return len(units)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_facts(nproc: int) -> str:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return (
        f"nproc {nproc}, cpu {cpu}, python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, blas {blas}, BLAS threads capped at {nproc}"
    )


def end_to_end(work: Workload, setups: list[float]) -> dict[str, float]:
    """Medians over passes: each invocation's latency is its median over the passes.

    The host's speed shifts for seconds at a time; the per-invocation
    median keeps a burst inside one pass from moving the pass time or the
    latency percentiles, which are taken over invocations.
    """
    latencies = [statistics.median(column) for column in zip(*work.latencies)]
    wall = sum(latencies)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "rows_per_s": statistics.median(work.rows) / wall,
        "scenario_p50_ms": 1e3 * percentile(latencies, 50),
        "scenario_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(work: Workload) -> dict[str, float]:
    out = {name: statistics.median(m[name] for m in work.layer_metrics) for name in work.layer_metrics[0]}
    plain, traced = statistics.median(work.walls), statistics.median(work.traced_walls)
    out["trace.wall_s"] = traced
    out["trace.overhead_frac"] = (traced - plain) / plain
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vibqubit" / "__init__.py").is_file():
        print(f"error: {SRC / 'vibqubit'} not found; run from the root of a vibqubit checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    nproc = cap_blas_threads()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = time_setups(args.workload, args.seed, workdir)
        sys.path.insert(0, str(SRC))
        import vibqubit.cli as cli

        work = Workload(cli, args.workload, args.seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(workloads.WARMUP.argv(str(workdir / "warmup.csv")))
        passes = measure(work, args.seconds, traced=bool(args.trace))
        metrics = per_layer(work) if args.trace else end_to_end(work, setups)
        work.gate_content(passes * (2 if args.trace else 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    count = len(work.invocations) or 1
    print(f"workload {args.workload}, seed {args.seed}: {count} invocation(s) per pass, {passes} "
          f"{'plain+traced pairs' if args.trace else 'passes'}, closed loop, 1 client")
    if args.workload == "verify":
        import gate

        print("seed unused: the verify suite's inputs are fixed")
        for name in sorted(set(work.verify_results or {}) & set(gate.TREND_CHECKS)):
            status, measured = work.verify_results[name]
            print(f"documented trend check (reported, not gated): {name} {status}, {measured}")
    print(f"machine: {machine_facts(nproc)}")
    print("steadiness: process-local measures only (no CPU pinning, cache dropping, cgroup or "
          "kernel settings); medians over passes and set-ups absorb short bursts, but drift of a "
          "shared host's speed over minutes stays in the run-to-run spread")
    calls = len(work.latencies[0]) if work.latencies else 0
    samples = {"setup_s": len(setups), "scenario_p50_ms": calls, "scenario_p90_ms": calls}
    for name, value in metrics.items():
        n = samples.get(name, len(work.layer_metrics) if args.trace else len(work.walls))
        print(f"{name} = {value:.6g} {units[name]} (n={n})")
    print(f"failed_frac = {work.failed / max(work.attempted, 1):.6g} fraction "
          f"({work.failed} of {work.attempted} operations)")
    for problem in work.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
