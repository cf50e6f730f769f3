"""Command-line interface.

Commands:
  analyze         spectral CHSH report for a scenario file
  check-identity  randomized verification of the C^2 commutator identity
  simulate        seeded Monte Carlo Bell run for a scenario with a state
  sweep           incompatibility sweep over planar settings
  lhv             the 16 deterministic local strategies and the classical bound

Exit codes are a stable contract: 0 success, 1 I/O or parse error,
2 input validation error, 3 --expect-no-violation failed, 4 internal
verification failure.  Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, fileio, quantum
from .chsh import IDENTITY_SEED, IDENTITY_TRIALS, analyze, s_value, verify_identity_sign
from .lhv import classical_max, classical_min, enumerate_strategies, strategy_s_value
from .sampler import RunConfig, run_experiment
from .sweep import incompatibility_sweep

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_EXPECTATION = 3
EXIT_INTERNAL = 4


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="chshlab", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"chshlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output_help = "write the report to PATH"
    seed_help = "64-bit unsigned seed (decimal or 0x-hex)"

    p = sub.add_parser("analyze", help="spectral report for a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--output", metavar="PATH", help=output_help)
    p.add_argument(
        "--expect-no-violation", action="store_true",
        help="exit 3 if the analyzed scenario can violate |S| <= 2",
    )

    p = sub.add_parser(
        "check-identity",
        help="verify the sign of C^2 = I + sign*(1/4)[a1,a2] kron [b1,b2]",
    )
    p.add_argument("--trials", type=int, default=IDENTITY_TRIALS, help="random scenarios to test")
    p.add_argument("--seed", type=_parse_seed, default=IDENTITY_SEED, metavar="U64",
                   help=seed_help)

    p = sub.add_parser("simulate", help="seeded Monte Carlo Bell run")
    p.add_argument("scenario", help="scenario JSON file (state required)")
    p.add_argument("--shots", type=int, required=True, help="shots per setting pair")
    p.add_argument("--seed", type=_parse_seed, default=0, metavar="U64", help=seed_help)
    p.add_argument("--output", metavar="PATH", help=output_help)

    p = sub.add_parser("sweep", help="incompatibility sweep")
    p.add_argument("--phi-steps", type=int, default=19, help="grid points over [0, pi/2]")
    p.add_argument("--state", default="psi_minus", help="named state for the S column: "
                   + ", ".join(quantum.STATE_NAMES))
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--output", metavar="PATH", help=output_help)

    sub.add_parser("lhv", help="deterministic local strategies and bound")
    return parser


def _write_or_print(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}")


def _cmd_analyze(args) -> int:
    scenario, echo = fileio.load_scenario(args.scenario)
    report = analyze(scenario)
    doc = fileio.make_document("analyze", {"scenario": echo}, "report", fileio.report_to_dict(report))
    _write_or_print(fileio.dumps(doc), args.output)
    if args.output is not None:
        print(f"max_s_over_states = {report.max_s_over_states!r}")
        print(f"violates = {report.violates}")
    if args.expect_no_violation and report.violates:
        print("expectation failed: scenario admits a violating state", file=sys.stderr)
        return EXIT_EXPECTATION
    return EXIT_OK


def _cmd_check_identity(args) -> int:
    check = verify_identity_sign(trials=args.trials, seed=args.seed)
    print(f"trials: {check.trials}")
    print(f"seed: {args.seed}")
    print(f"max residual (sign +1): {check.max_residual_plus!r}")
    print(f"max residual (sign -1): {check.max_residual_minus!r}")
    if check.verified_sign is not None:
        sign = "-" if check.verified_sign == -1 else "+"
        print(f"verified sign: {check.verified_sign:+d}   "
              f"[C^2 = I {sign} (1/4) [a1,a2] kron [b1,b2]]")
        if check.verified_sign == -1:
            print("note: the +1 sign convention fails for this operator ordering")
        return EXIT_OK
    if check.plus_ok and check.minus_ok:
        print("both signs hold (commutator term vanished on every trial)")
        return EXIT_OK
    print("neither sign convention verified; this indicates an implementation bug",
          file=sys.stderr)
    return EXIT_INTERNAL


def _cmd_simulate(args) -> int:
    scenario, echo = fileio.load_scenario(args.scenario)
    cfg = RunConfig(scenario=scenario, shots_per_pair=args.shots, seed=args.seed)
    result = run_experiment(cfg)
    exact = s_value(scenario)
    doc = fileio.make_document(
        "simulate",
        {"scenario": echo, "shots_per_pair": args.shots, "seed": args.seed},
        "result",
        fileio.run_result_to_dict(result),
    )
    doc["s_exact"] = exact
    _write_or_print(fileio.dumps(doc), args.output)
    if args.output is not None:
        print(f"s_hat = {result.s_hat!r} +/- {result.s_stderr!r}")
        print(f"s_exact = {exact!r}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    state = fileio.state_from_spec(args.state)
    result = incompatibility_sweep(args.phi_steps, state)
    if args.format == "csv":
        _write_or_print(fileio.sweep_result_to_csv(result), args.output)
    else:
        doc = fileio.make_document(
            "sweep",
            {"phi_steps": args.phi_steps, "state": args.state},
            "result",
            fileio.sweep_result_to_dict(result),
        )
        _write_or_print(fileio.dumps(doc), args.output)
    if args.output is not None:
        print(f"best max_s = {result.best.max_s!r} at phi = {result.best.phi!r}")
    return EXIT_OK


def _cmd_lhv(args) -> int:
    print("  a1  a2  b1  b2    S")
    for st in enumerate_strategies():
        s = strategy_s_value(st)
        print(f"  {st.a1:+d}  {st.a2:+d}  {st.b1:+d}  {st.b2:+d}   {s:+d}")
    print(f"strategies: {len(enumerate_strategies())}")
    print(f"classical max S: {classical_max()}")
    print(f"classical min S: {classical_min()}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "check-identity": _cmd_check_identity,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "lhv": _cmd_lhv,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (fileio.FormatError, OSError, UnicodeDecodeError) as exc:  # before ValueError, its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
