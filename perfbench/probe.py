"""One benchmark set-up, timed from interpreter start-up to a finished warm-up.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Times the import of ``vibqubit.cli``, the generation of the seeded inputs
and one warm-up ``run``, and prints the seconds taken.  run.py starts this
several times and reports the median as ``setup_s``.
"""
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import vibqubit.cli as cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.generate(workload, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workloads.WARMUP.argv(os.path.join(workdir, f"warmup-{os.getpid()}.csv")))
    if code != 0:
        print(f"warm-up run exited with {code}", file=sys.stderr)
        return 1
    print(f"{time.perf_counter() - START!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
