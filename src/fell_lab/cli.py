"""Command line interface.

Commands:

    fell-lab example <name> [--param k=v ...] [--json]
    fell-lab ktheory solve <file> [--json]
    fell-lab verify <file> [--samples N] [--tol T] [--seed S] [--json]

Exit codes: 0 all requested checks pass, 1 a check verified false, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import conv, ktheory, scenarios, spaces

USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected k=v, got {pair!r}")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return spaces.json_object(json.load(fh), f"{path}: the top level")


def cmd_example(args: argparse.Namespace) -> int:
    try:
        params = _parse_params(args.param or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        result = scenarios.run_scenario(scenarios.ScenarioSpec(args.name, params))
    except (scenarios.UnknownScenarioError, spaces.ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.text())
    return 0 if result.passed else CHECK_FAILED


def cmd_ktheory_solve(args: argparse.Namespace) -> int:
    try:
        data = _load_json(args.file)
        ses = ktheory.ses_from_dict(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    k0, k1 = ktheory.solve_six_term(ses)
    if args.json:
        print(json.dumps({"K0": str(k0), "K1": str(k1)}))
    else:
        print(f"K0 = {k0}")
        print(f"K1 = {k1}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = spaces.json_keys(_load_json(args.file), ("model", "element"), "a verify file")
        model = spaces.model_from_dict(data["model"])
        element = conv.element_from_dict(model, data["element"])
        spaces.sample_count(args.samples)  # checked even where a grid ignores it
        tol = spaces.finite_float(args.tol, "--tol")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if isinstance(element.rule, conv.GridRule):
        # A grid element is only defined at its own base points.
        samples = list(element.rule.points)
    else:
        samples = spaces.sample_base_points(model, args.samples, seed=args.seed)

    report = conv.verify_projection(element, samples)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.text())
    return 0 if report.passes(tol) else CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other exit 2."""

    def error(self, message: str) -> None:
        print(f"error: {' '.join(message.split())}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fell-lab",
        description=(
            "Groupoid models of local homeomorphisms: projection verification "
            "by fiberwise convolution and exact six-term K-theory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="run a named example scenario")
    p_example.add_argument("name", help=f"one of: {', '.join(scenarios.SCENARIO_NAMES)}")
    p_example.add_argument(
        "--param",
        action="append",
        metavar="K=V",
        help="scenario parameter, repeatable (e.g. --param m=3 --param k=2)",
    )
    p_example.add_argument("--json", action="store_true", help="machine-readable output")
    p_example.set_defaults(func=cmd_example)

    p_ktheory = sub.add_parser("ktheory", help="exact K-theory utilities")
    ksub = p_ktheory.add_subparsers(dest="ktheory_command", required=True)
    p_solve = ksub.add_parser("solve", help="solve a two-strata six-term system")
    p_solve.add_argument("file", help="JSON file with group ranks and boundary matrices")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_ktheory_solve)

    p_verify = sub.add_parser("verify", help="verify an element from a file")
    p_verify.add_argument("file", help="JSON file describing a model and an element")
    p_verify.add_argument("--samples", type=int, default=10000)
    p_verify.add_argument("--tol", type=float, default=conv.ALGEBRA_TOL)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
