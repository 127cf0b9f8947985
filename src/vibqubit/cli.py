"""Command-line front end: run scenario sweeps and the verification suite.

Each ``run`` flag but ``--out`` sets the :class:`~vibqubit.scenarios.Scenario`
field its ``dest`` names; a flag left out keeps the field's default.

Exit codes: 0 success, 1 verification failure, 2 invalid parameters
(bad flags or values, or an ``--out`` that cannot be written), 3 resource
limit exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import ParameterError, ResourceError
from .scenarios import ALL_MODES, Scenario, run_scenario, write_csv


def _complex_flag(text: str) -> complex:
    """``RE,IM`` as a complex number."""
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves it as it was, and each
    argument built costs a terminal-size query, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="vibqubit",
        description="Vibrating-qubit cavity dynamics: scenario sweeps and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a scenario sweep and write a CSV")
    run.add_argument("--mode", choices=ALL_MODES, required=True, help="scenario mode")
    run.add_argument("--alpha-sq", type=float, help="mean phonon number |alpha|^2")
    run.add_argument("--beta-sq", type=float, help="mean photon number |beta|^2")
    run.add_argument("--eta", type=float, help="Lamb-Dicke parameter")
    run.add_argument("--kappa", type=float, help="qubit-cavity coupling")
    run.add_argument("--ce", dest="c_e", type=_complex_flag, metavar="RE,IM",
                     help="initial excited amplitude")
    run.add_argument("--cg", dest="c_g", type=_complex_flag, metavar="RE,IM",
                     help="initial ground amplitude")
    run.add_argument("--bell", dest="bell_kind", choices=("phi", "psi"),
                     help="Bell family for two-qubit modes")
    run.add_argument("--mu", type=float, help="Bell weight mu (upsilon = sqrt(1 - mu^2))")
    run.add_argument("--t-max", type=float, help="sweep end time")
    run.add_argument("--steps", dest="n_steps", type=int, help="number of time samples")
    run.add_argument("--tail-tol", type=float, help="coherent-state truncation tail tolerance")
    run.add_argument("--out", metavar="PATH", help="output CSV path (default <mode>.csv)")

    sub.add_parser("verify", help="run the oracle-equivalence and invariant suite")
    return parser


def _build_scenario(args: argparse.Namespace) -> tuple[Scenario, str]:
    """The scenario and the output path of a `run` call."""
    fields = {f.name for f in dataclasses.fields(Scenario)}
    scenario = Scenario(**{k: v for k, v in vars(args).items() if k in fields and v is not None})
    return scenario, args.out or f"{scenario.mode}.csv"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, out = _build_scenario(args)
    rows = run_scenario(scenario)
    try:
        write_csv(scenario, rows, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # not at the top: its oracle loads scipy, which `run` never needs

    results = verify.run_all()
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify}
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
