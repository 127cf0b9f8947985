#!/usr/bin/env python3
"""Generate the standard figure set: CSV curves plus gnuplot scripts.

Sweeps the cavity intensity over a small set of values at fixed vibrational
intensity for every vibrating-qubit scenario, then runs the stationary
counterparts once each as baselines.  Every curve lands in its own CSV with
a matching ``.gp`` gnuplot script next to it, so the whole figure set is::

    python3 scripts/run_figures.py --out-dir figures
    for f in figures/*.gp; do gnuplot "$f"; done
"""
from __future__ import annotations

import argparse
import pathlib
import sys

from vibqubit import (
    STATIONARY_MODES,
    VIBRATING_MODES,
    Scenario,
    emit_plot_script,
    run_scenario,
    write_csv,
)

DEFAULT_BETA_SQ = (1.0, 2.0, 4.0)
# the stationary collapse-and-revival structure lives at early times
STATIONARY_T_MAX = 60.0
STATIONARY_STEPS = 1201


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", default="figures", help="directory for CSVs and plot scripts"
    )
    parser.add_argument(
        "--alpha-sq", type=float, default=1.0, help="vibrational intensity |alpha|^2"
    )
    parser.add_argument(
        "--beta-sq",
        type=float,
        nargs="+",
        default=list(DEFAULT_BETA_SQ),
        help="cavity intensities |beta|^2 to sweep",
    )
    parser.add_argument(
        "--t-max", type=float, default=2500.0, help="time window for vibrating scenarios"
    )
    parser.add_argument(
        "--steps", type=int, default=501, help="rows per curve for vibrating scenarios"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel workers per scenario"
    )
    return parser


def run_one(scenario: Scenario, csv_path: pathlib.Path, workers: int) -> pathlib.Path:
    rows = run_scenario(scenario, workers)
    write_csv(scenario, rows, str(csv_path))
    gp_path = csv_path.parent / (csv_path.name + ".gp")
    # the plot script references the CSV by the same path used to write it,
    # so run gnuplot from the directory this script was invoked from
    gp_path.write_text(emit_plot_script(str(csv_path), scenario.mode))
    return csv_path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    written: list[pathlib.Path] = []
    for mode in VIBRATING_MODES:
        for beta_sq in args.beta_sq:
            scenario = Scenario(
                mode=mode,
                alpha_sq=args.alpha_sq,
                beta_sq=beta_sq,
                t_max=args.t_max,
                n_steps=args.steps,
            )
            csv_path = out_dir / f"{mode}-beta{beta_sq:g}.csv"
            written.append(run_one(scenario, csv_path, args.workers))

    for mode in STATIONARY_MODES:
        for beta_sq in args.beta_sq:
            scenario = Scenario(
                mode=mode,
                alpha_sq=args.alpha_sq,
                beta_sq=beta_sq,
                t_max=STATIONARY_T_MAX,
                n_steps=STATIONARY_STEPS,
            )
            csv_path = out_dir / f"{mode}-beta{beta_sq:g}.csv"
            written.append(run_one(scenario, csv_path, args.workers))

    for path in written:
        print(f"wrote {path} and {path}.gp")
    print(f"{len(written)} curves in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
