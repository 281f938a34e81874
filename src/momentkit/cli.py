"""Command-line interface.

Subcommands: ``verify``, ``trivialize``, ``twist``, ``tot``, ``rank``,
``conformal`` and ``roundtrip``.  Exit codes: 0 when every check passed or
the command computed successfully, 1 when a verification check failed, 2 on
usage or parse errors.  ``--json`` switches to a machine-readable report
(``schema: 1``); identical inputs, flags and seeds produce byte-identical
JSON (timing is reported only in the human-readable output).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .instances import random_gauge_twist, random_instance
from .line import default_degree_bound
from .modelfile import (
    ModelError,
    ModelFile,
    model_from_system,
    parse_model,
    parse_tot_expression,
)
from .moment import MomentSystem, NotConformal
from .reporting import Check

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    command: str
    passed: bool
    exit_code: int
    checks: list[Check] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "checks": [c.to_dict() for c in self.checks],
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{self.command}: {'PASS' if self.passed else 'FAIL'}"]
        for check in self.checks:
            lines.append(f"  {check.name}: {'PASS' if check.passed else 'FAIL'}")
            for finding in check.findings:
                witness = ", ".join(finding.witness)
                lines.append(f"    at ({witness}): {finding.residual}")
            for note in check.notes:
                lines.append(f"    note: {note}")
        for key, value in self.details.items():
            lines.append(f"  {key}: {_format_detail(value)}")
        lines.append(f"  elapsed: {self.elapsed * 1000:.1f} ms")
        return "\n".join(lines) + "\n"


def _format_detail(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{k} = {v}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


class UsageError(Exception):
    """Bad invocation discovered after argument parsing (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Exact verification toolkit for Poisson moment systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, with_model: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if with_model:
            cmd.add_argument("model", help="path to a model file")
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        return cmd

    add("verify", "run all system verification checks")
    add("trivialize", "compute the canonical flat lifts of the generators")

    twist = add("twist", "apply a gauge twist and report the twisted system")
    twist.add_argument("--seed", type=int, help="generate the twist from a seed")
    twist.add_argument("--name", help="use a twist declared in the model")
    twist.add_argument("--emit", help="write the twisted system as a model file")

    tot = add("tot", "bracket of two total-space expressions")
    tot.add_argument("--left", required=True, help="expression such as 'x*s^2'")
    tot.add_argument("--right", required=True, help="expression such as 'y*s^-1'")

    rank = add("rank", "bracket-matrix rank at a declared point")
    rank.add_argument("--point", required=True, help="name of a declared point")
    rank.add_argument("--space", choices=("base", "tot"), default="tot")

    add("conformal", "verify and extend the declared conformal field")

    roundtrip = add("roundtrip", "seeded twist/trivialize recovery suite", with_model=False)
    roundtrip.add_argument("--cases", type=int, default=100)
    roundtrip.add_argument("--seed", type=int, default=0)
    return parser


def _load_model(path: str) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read model file {path!r}: {exc}") from exc
    return parse_model(text)


def _cmd_verify(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    report = model.build_system().verify()
    return RunReport(
        "verify",
        report.passed,
        0 if report.passed else 1,
        list(report.checks),
    )


def _cmd_trivialize(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    system = model.build_system()
    report = system.verify()
    if not report.passed:
        return RunReport("trivialize", False, 1, list(report.checks))
    result = system.trivialize()
    return RunReport(
        "trivialize",
        True,
        0,
        list(result.checks),
        {"lifts": {g: str(v) for g, v in result.lifts.items()}},
    )


def _cmd_twist(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    system = model.build_system()
    if args.seed is not None:
        rng = random.Random(args.seed)
        gauge = random_gauge_twist(rng, system.ring, system.n)
    else:
        try:
            gauge = model.gauge_twist(args.name)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    twisted = system.twist(gauge)
    report = twisted.verify()
    details = {
        "bracket": {f"{{{a},{b}}}": str(v) for (a, b), v in twisted.structure.table_items()},
        "alpha": {g: str(v) for g, v in twisted.line.alpha_items()},
    }
    if args.seed is not None:
        details["seed"] = args.seed
    if args.emit:
        emitted = model_from_system(twisted, points=model.points)
        Path(args.emit).write_text(emitted.render(), encoding="utf-8")
        details["emitted"] = args.emit
    return RunReport(
        "twist",
        report.passed,
        0 if report.passed else 1,
        list(report.checks),
        details,
    )


def _cmd_tot(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    line = model.build_system().line
    try:
        left = parse_tot_expression(args.left, line)
        right = parse_tot_expression(args.right, line)
    except ModelError as exc:
        raise UsageError(f"malformed total-space expression: {exc}") from exc
    bracket = line.tot_bracket(left, right)
    return RunReport(
        "tot",
        True,
        0,
        [],
        {"left": str(left), "right": str(right), "bracket": str(bracket)},
    )


def _cmd_rank(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    system = model.build_system()
    try:
        point = model.point(args.point)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    if args.space == "base":
        rank = system.structure.bivector_rank(point)
    else:
        if point.s is None:
            raise UsageError(
                f"point {args.point!r} has no s-coordinate; required for the total space"
            )
        rank = system.tot_rank(point)
    return RunReport(
        "rank",
        True,
        0,
        [],
        {"rank": rank, "space": args.space, "point": args.point},
    )


def _cmd_conformal(args: argparse.Namespace) -> RunReport:
    model = _load_model(args.model)
    if model.conformal is None:
        raise UsageError("model declares no conformal field")
    decl = model.conformal
    system = model.build_system()
    report = system.verify()
    if not report.passed:
        return RunReport("conformal", False, 1, list(report.checks))
    try:
        extension = system.extend_conformal(decl.values, decl.weight)
    except NotConformal as exc:
        return RunReport("conformal", False, 1, [exc.check], {"weight": str(decl.weight)})
    details = {
        "weight": str(decl.weight),
        "mu": None if extension.mu is None else str(extension.mu),
        "h": "free constant" if extension.h_is_free else "non-constant h required",
        "notes": list(extension.notes),
    }
    # A failed constant ansatz for the module weight is reported, not fatal.
    passed = extension.passed
    return RunReport(
        "conformal",
        passed,
        0 if passed else 1,
        [extension.base, extension.pairs, extension.module_check],
        details,
    )


def _cmd_roundtrip(args: argparse.Namespace) -> RunReport:
    if args.cases < 1:
        raise UsageError("--cases must be positive")
    failures: list[str] = []
    for index in range(args.cases):
        seed = args.seed + index
        model, gauge = random_instance(seed)
        base = model.build_system().structure.restrict(0)
        trivial = MomentSystem.trivial(base, model.order)
        twisted = trivial.twist(gauge)
        if not twisted.verify().passed:
            failures.append(f"seed {seed}: twisted system failed verification")
            continue
        # trivialize() raises unless every lift is flat and every relation is
        # recovered, so a returned result is a recovered case.
        twisted.trivialize()
    passed = not failures
    return RunReport(
        "roundtrip",
        passed,
        0 if passed else 1,
        [],
        {
            "cases": args.cases,
            "seed": args.seed,
            "recovered": f"{args.cases - len(failures)}/{args.cases}",
            "failures": failures,
        },
    )


_HANDLERS = {
    "verify": _cmd_verify,
    "trivialize": _cmd_trivialize,
    "twist": _cmd_twist,
    "tot": _cmd_tot,
    "rank": _cmd_rank,
    "conformal": _cmd_conformal,
    "roundtrip": _cmd_roundtrip,
}


def _check_environment() -> None:
    try:
        default_degree_bound()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        _check_environment()
        report = _HANDLERS[args.command](args)
    except (ModelError, UsageError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - start
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
