"""Command-line interface.

    slowphase <subcommand> --config <path> [--out <dir>]

Subcommands: run (full pipeline), cycle, floquet, manifold, response,
validate, export.  Later stages load earlier artifacts from the output
directory.  Exit codes: 0 success (``--help`` included), 2 validation-threshold
failure, 3 numerical abort (resonance, small divisor, Newton, hyperbolicity),
4 configuration, I/O or usage failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .errors import ConfigError, NumericalError, SlowphaseError, ValidationFailure
from .export import FORMATS, SELECTORS, export_artifacts
from .pipeline import Stage, load_result, run_pipeline

SUBCOMMAND_STAGE = {
    "run": Stage.VALIDATE,
    "cycle": Stage.CYCLE,
    "floquet": Stage.FLOQUET,
    "manifold": Stage.MANIFOLD,
    "response": Stage.RESPONSE,
    "validate": Stage.VALIDATE,
}


class _Parser(argparse.ArgumentParser):
    """Exits 4 on a usage error (argparse's own code, 2, means a validation
    failure here); subcommand parsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slowphase",
        description="Slow-submanifold parameterization and response functions "
        "of limit-cycle oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_STAGE:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory override")
    p = sub.add_parser("export")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--what", default="all", choices=SELECTORS)
    p.add_argument("--format", default="csv", choices=FORMATS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out:
            config = replace(config, out_dir=args.out).validate()

        if args.command == "export":
            result = load_result(config)
            files = export_artifacts(result, args.what, args.format)
            for f in files:
                print(f)
            return 0

        through = SUBCOMMAND_STAGE[args.command]
        resume = None
        if args.command != "run":
            resume = load_result(config)
        result = run_pipeline(config, through=through, resume=resume)
        _report(result, through)
        return 0
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SlowphaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _report(result, through) -> None:
    """Print the results of the stages up to ``through``, which all ran."""
    ran = Stage.ORDER[: Stage.ORDER.index(through) + 1]
    print(f"period T = {result.cycle.period:.12g}")
    if Stage.FLOQUET in ran:
        for j, (mu, lam) in enumerate(
            zip(result.spectrum.multipliers, result.spectrum.exponents)
        ):
            print(f"mu_{j} = {mu:.6g}    lam_{j} = {lam:.6g}")
    if Stage.MANIFOLD in ran:
        print(
            "manifold order %d, max residual %.3e"
            % (
                result.manifold.nominal_order,
                float(result.manifold.residuals.max()),
            )
        )
    if Stage.RESPONSE in ran:
        print(
            "response order %d, solvability %.3e, normalization defect %.3e"
            % (
                result.response.order,
                result.response.solvability_residual,
                result.response.normalization_defect,
            )
        )
    if Stage.VALIDATE in ran:
        summary = result.validation.summary()
        print("validation:")
        for key in sorted(summary):
            print(f"  {key}: {summary[key]}")


if __name__ == "__main__":
    raise SystemExit(main())
