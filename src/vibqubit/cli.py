"""Command-line front end: run scenario sweeps, verify, emit plot scripts.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(bad flags, bad config file, malformed CSV), 3 resource limit exceeded.
"""
from __future__ import annotations

import argparse
import configparser
import sys

from .errors import ParameterError, ResourceError
from .scenarios import (
    ALL_MODES,
    Scenario,
    emit_plot_script,
    run_scenario,
    stationary_variant,
    write_csv,
)
from .verify import ToleranceProfile, run_all

#: keys accepted in a config-file section, with their parsers
_CONFIG_PARSERS = {
    "alpha_sq": float,
    "beta_sq": float,
    "eta": float,
    "kappa": float,
    "ce": str,
    "cg": str,
    "bell": str,
    "mu": float,
    "t_max": float,
    "steps": int,
    "tail_tol": float,
    "out": str,
    "stationary": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
}


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _complex_flag(text: str) -> complex:
    try:
        return _parse_complex_pair(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibqubit",
        description="Vibrating-qubit cavity dynamics: sweeps, verification, plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a scenario sweep and write a CSV")
    run.add_argument("--config", metavar="PATH", help="INI config file, one section per mode")
    run.add_argument("--mode", choices=ALL_MODES, help="scenario mode")
    run.add_argument("--alpha-sq", type=float, help="mean phonon number |alpha|^2")
    run.add_argument("--beta-sq", type=float, help="mean photon number |beta|^2")
    run.add_argument("--eta", type=float, help="Lamb-Dicke parameter")
    run.add_argument("--kappa", type=float, help="qubit-cavity coupling")
    run.add_argument("--ce", type=_complex_flag, metavar="RE,IM", help="initial excited amplitude")
    run.add_argument("--cg", type=_complex_flag, metavar="RE,IM", help="initial ground amplitude")
    run.add_argument("--bell", choices=("phi", "psi"), help="Bell family for two-qubit modes")
    run.add_argument("--mu", type=float, help="Bell weight mu (upsilon = sqrt(1 - mu^2))")
    run.add_argument("--t-max", type=float, help="sweep end time")
    run.add_argument("--steps", type=int, help="number of time samples")
    run.add_argument("--tail-tol", type=float, help="coherent-state truncation tail tolerance")
    run.add_argument("--out", metavar="PATH", help="output CSV path (default <mode>.csv)")
    run.add_argument(
        "--stationary",
        action="store_true",
        help="run the motionless-qubit variant of the selected mode",
    )

    verify = sub.add_parser("verify", help="run the oracle-equivalence and invariant suite")
    verify.add_argument("--tail-tol", type=float, default=1e-12, help="truncation tolerance profile")

    plot = sub.add_parser("plot-script", help="generate a gnuplot script for a scenario CSV")
    plot.add_argument("csv", help="scenario CSV produced by `run`")
    plot.add_argument("--mode", choices=ALL_MODES, help="override the mode recorded in the CSV")
    plot.add_argument("--out", metavar="PATH", help="script path (default <csv>.gp)")
    return parser


def _load_config(path: str, mode_flag: str | None) -> tuple[str | None, dict]:
    """Read the INI file; returns (mode from config, settings dict)."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ParameterError(f"config {path}: {exc}") from None
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        where = f" (line {line})" if line else ""
        raise ParameterError(f"config {path}{where}: {exc.message}") from None

    sections = cp.sections()
    for name in sections:
        if name not in ALL_MODES:
            raise ParameterError(
                f"config {path}: section [{name}] is not a scenario mode; "
                f"expected one of {', '.join(ALL_MODES)}"
            )

    if mode_flag is not None:
        mode = mode_flag
        source = cp[mode] if mode in sections else cp.defaults()
    elif len(sections) == 1:
        mode = sections[0]
        source = cp[mode]
    elif not sections:
        raise ParameterError(f"config {path}: no scenario section and no --mode given")
    else:
        raise ParameterError(
            f"config {path}: multiple sections ({', '.join(sections)}); pick one with --mode"
        )

    settings = {}
    for key, raw in dict(source).items():
        if key not in _CONFIG_PARSERS:
            raise ParameterError(
                f"config {path}, section [{mode}], key {key!r}: unknown key; "
                f"expected one of {', '.join(sorted(_CONFIG_PARSERS))}"
            )
        try:
            settings[key] = _CONFIG_PARSERS[key](raw)
        except ValueError as exc:
            raise ParameterError(
                f"config {path}, section [{mode}], key {key!r}: {exc}"
            ) from None
    return mode, settings


def _build_scenario(args: argparse.Namespace) -> tuple[Scenario, str]:
    """The scenario and the output path of a `run` call."""
    settings: dict = {}
    mode = args.mode
    if args.config:
        config_mode, settings = _load_config(args.config, args.mode)
        mode = config_mode or mode
    if mode is None:
        raise ParameterError("no scenario mode: pass --mode or a config file with one section")

    # command-line flags win over config values
    for key, flag in (
        ("alpha_sq", args.alpha_sq),
        ("beta_sq", args.beta_sq),
        ("eta", args.eta),
        ("kappa", args.kappa),
        ("bell", args.bell),
        ("mu", args.mu),
        ("t_max", args.t_max),
        ("steps", args.steps),
        ("tail_tol", args.tail_tol),
        ("out", args.out),
    ):
        if flag is not None:
            settings[key] = flag
    if args.ce is not None:
        settings["ce"] = args.ce
    if args.cg is not None:
        settings["cg"] = args.cg
    if args.stationary:
        settings["stationary"] = True

    if settings.pop("stationary", False):
        mode = stationary_variant(mode)

    ce, cg = settings.pop("ce", None), settings.pop("cg", None)
    if (ce is None) != (cg is None):
        raise ParameterError("give both --ce and --cg or neither")
    if ce is None:
        if mode.endswith("-excited"):
            ce, cg = 1.0 + 0j, 0.0 + 0j
        else:
            ce = cg = complex(2.0 ** -0.5)
    elif isinstance(ce, str):
        ce, cg = _parse_complex_pair(ce), _parse_complex_pair(cg)

    out = settings.pop("out", None) or f"{mode}.csv"
    scenario = Scenario(
        mode=mode,
        c_e=ce,
        c_g=cg,
        bell_kind=settings.pop("bell", "phi"),
        mu=settings.pop("mu", 2.0 ** -0.5),
        eta=settings.pop("eta", 0.02),
        kappa=settings.pop("kappa", 1.0),
        alpha_sq=settings.pop("alpha_sq", 1.0),
        beta_sq=settings.pop("beta_sq", 1.0),
        t_max=settings.pop("t_max", 2500.0),
        n_steps=settings.pop("steps", 501),
        tail_tol=settings.pop("tail_tol", 1e-12),
    )
    return scenario, out


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, out = _build_scenario(args)
    rows = run_scenario(scenario)
    write_csv(scenario, rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    profile = ToleranceProfile(tail_tol=args.tail_tol)
    results = run_all(profile)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_plot_script(args: argparse.Namespace) -> int:
    text = emit_plot_script(args.csv, mode=args.mode)
    out = args.out or f"{args.csv}.gp"
    with open(out, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote plot script to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "plot-script": _cmd_plot_script}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(
            f"resource limit: {exc} (required {exc.required_bytes} bytes, "
            f"budget {exc.budget_bytes})",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
