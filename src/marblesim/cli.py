"""Command line front end.

Subcommands:

    run     simulate one input vector through a netlist file
    table   enumerate the truth table of a netlist file or library gate
    verify  check library gates against their reference functions
    lint    report junction inputs that would arrive off-schedule
    print   parse a netlist and reprint it in canonical form

``--format records`` switches every subcommand but ``print`` to a
line-oriented, tab-separated output meant for scripting; the default text
format is for people.  Both are byte-deterministic for a given invocation.
The exit code is 0 exactly when the command produced no error diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path

from .analysis import (GateReport, TruthTable, timing_lint, truth_table,
                       verify_gate)
from .errors import MarblesimError
from .gates import get_macro, library
from .netlist import CircuitAst, elaborate, parse, print_canonical
from .physics import (CollisionMode, MidbandWarning, collision_mode,
                      load_physics_config)
from .sim import SimConfig, format_trace, simulate

__all__ = ["main"]

_PHYSICS_ENV = "MARBLE_PHYSICS"

# Bit values 0 and 1 mapped to the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use: each ``parse_args`` call
    returns a fresh namespace, so no option carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="marblesim",
        description="Simulate collision-based marble logic circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--format", choices=("text", "records"),
                         default="text",
                         help="output style (default: text)")

    def add_mode(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--mode", choices=("bounce", "merge", "auto"),
                         default="bounce",
                         help="collision mode; auto derives it from physics")
        cmd.add_argument("--physics", metavar="FILE",
                         help=f"physics config (default: ${_PHYSICS_ENV})")

    run = sub.add_parser("run", help="simulate one input vector")
    run.add_argument("file", help="netlist file")
    run.add_argument("--inputs", required=True, metavar="BITS",
                     help="input bits, first declared input first")
    add_mode(run)
    run.add_argument("--trace", action="store_true",
                     help="print every marble placement")
    run.add_argument("--strict", action="store_true",
                     help="fail on off-schedule junction or syringe arrivals")
    run.add_argument("--no-repair", action="store_true",
                     help="skip automatic hold insertion on unbalanced "
                          "junction inputs")
    add_common(run)

    table = sub.add_parser("table", help="print a truth table")
    table.add_argument("target", metavar="FILE_OR_GATE",
                       help="netlist file, or a library gate name")
    add_mode(table)
    add_common(table)

    verify = sub.add_parser("verify", help="verify library gates")
    verify.add_argument("gates", nargs="*", metavar="GATE",
                        help="gate names (default: whole library)")
    add_common(verify)

    lint = sub.add_parser("lint", help="report timing imbalances")
    lint.add_argument("file", help="netlist file")
    add_common(lint)

    show = sub.add_parser("print", help="reprint a netlist canonically")
    show.add_argument("file", help="netlist file")

    return parser


def _resolve_mode(name: str, physics_path: str | None) -> CollisionMode:
    if name != "auto":
        if physics_path is not None:
            raise MarblesimError("--physics needs --mode auto")
        return CollisionMode(name)
    path = physics_path or os.environ.get(_PHYSICS_ENV)
    if not path:
        raise MarblesimError(
            f"--mode auto needs --physics or ${_PHYSICS_ENV}")
    params, policy = load_physics_config(path)
    # Midband warnings always print; others follow the caller's filters.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MidbandWarning)
        mode = collision_mode(policy, params)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return mode


def _read_netlist(path: str) -> CircuitAst:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MarblesimError(f"cannot read {path}: {exc}") from None
    return parse(text)


def _load_circuit(path: str, insert_holds: bool = True):
    return elaborate(_read_netlist(path), insert_holds=insert_holds)


def _cmd_run(args: argparse.Namespace) -> int:
    mode = _resolve_mode(args.mode, args.physics)
    circuit = _load_circuit(args.file, insert_holds=not args.no_repair)
    try:
        bits = tuple(["01".index(ch) for ch in args.inputs])
    except ValueError:
        raise MarblesimError(f"--inputs must be 0s and 1s, "
                             f"got {args.inputs!r}") from None
    config = SimConfig(mode=mode, strict_timing=args.strict,
                       trace_enabled=args.trace)
    outputs, trace, ledger = simulate(circuit, bits, config)

    if args.format == "records":
        for name, bit in zip(circuit.outputs, outputs):
            print(f"output\t{name}\t{bit}")
        print(f"marbles\t{ledger.input_marbles}\t{ledger.injected}"
              f"\t{ledger.output_marbles}\t{ledger.waste_marbles}")
        print(f"mass\t{ledger.input_mass}\t{ledger.injected_mass}"
              f"\t{ledger.output_mass}\t{ledger.waste_mass}")
        for rec in ledger.injections:
            print(f"injection\t{rec.marble_id}\t{rec.node}"
                  f"\t{rec.kind.value}\t{rec.phase}\t{rec.mass}")
        for hazard in trace.hazards:
            print(f"hazard\t{hazard.phase}\t{hazard.node}\t{hazard.port}"
                  f"\t{hazard.marble_id}\t{hazard.expected_phase}")
        for phase, node in trace.collisions:
            print(f"collision\t{phase}\t{node}")
        if args.trace:
            for line in format_trace(trace).splitlines():
                print(f"event\t{line}")
    else:
        print(" ".join(f"{name}={bit}"
                       for name, bit in zip(circuit.outputs, outputs)))
        print(f"marbles: in={ledger.input_marbles} "
              f"injected={ledger.injected} out={ledger.output_marbles} "
              f"waste={ledger.waste_marbles}")
        print(f"mass: in={ledger.input_mass} "
              f"injected={ledger.injected_mass} out={ledger.output_mass} "
              f"waste={ledger.waste_mass}")
        for rec in ledger.injections:
            print(f"injection: marble {rec.marble_id} from {rec.node} "
                  f"({rec.kind.value}) at phase {rec.phase} mass {rec.mass}")
        for hazard in trace.hazards:
            print(f"hazard: {hazard}")
        for phase, node in trace.collisions:
            print(f"collision: phase {phase} at {node}")
        if args.trace:
            print("trace:")
            for line in format_trace(trace).splitlines():
                print(f"  {line}")
    return 1 if trace.hazards else 0


def format_table(table: TruthTable) -> str:
    lines = [f"{table.name} mode={table.mode.value}",
             f"{' '.join(table.inputs)} | {' '.join(table.outputs)}"]
    for bits, outputs in table.rows:
        lines.append(f"{' '.join(map(str, bits))} | "
                     f"{' '.join(map(str, outputs))}")
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> int:
    mode = _resolve_mode(args.mode, args.physics)
    if os.path.isfile(args.target):
        circuit = _load_circuit(args.target)
    else:
        try:
            circuit = elaborate(get_macro(args.target).expansion)
        except MarblesimError:
            raise MarblesimError(
                f"{args.target!r} is neither a file nor a library gate"
            ) from None
    table = truth_table(circuit, mode)
    if args.format == "records":
        sys.stdout.write("".join(
            f"row\t{bytes(bits).translate(_DIGITS).decode()}"
            f"\t{bytes(outputs).translate(_DIGITS).decode()}\n"
            for bits, outputs in table.rows))
    else:
        print(format_table(table))
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def format_report(report: GateReport) -> str:
    lines = [f"gate {report.name}"]
    for table, ok in zip(report.tables, report.table_ok):
        lines.append(f"table {table.mode.value}: "
                     f"{'ok' if ok else 'MISMATCH'}")
    lines.append(f"modes agree: {_yn(report.modes_agree)}")
    lines.append(f"reversible: {_yn(report.reversible)} "
                 f"(claimed {_yn(report.reversible_claim)})")
    lines.append(f"conservative: {_yn(report.conservative)} "
                 f"(claimed {_yn(report.conservative_claim)})")
    physical = ", ".join(f"{table.mode.value} {_yn(flag)}" for table, flag
                         in zip(report.tables, report.physical))
    lines.append(f"physically conservative: {physical}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    names = args.gates or [macro.name for macro in library()]
    reports = [verify_gate(name) for name in names]
    if args.format == "records":
        lines = []
        for report in reports:
            fields = [
                ("table_bounce", report.table_ok[0]),
                ("table_merge", report.table_ok[1]),
                ("modes_agree", report.modes_agree),
                ("reversible", report.reversible),
                ("reversible_claim", report.reversible_claim),
                ("conservative", report.conservative),
                ("conservative_claim", report.conservative_claim),
                ("physical_bounce", report.physical[0]),
                ("physical_merge", report.physical[1]),
                ("ok", report.ok),
            ]
            lines += [f"verify\t{report.name}\t{field}\t{_yn(value)}\n"
                      for field, value in fields]
        sys.stdout.write("".join(lines))
    else:
        print("\n\n".join(format_report(report) for report in reports))
    return 0 if all(report.ok for report in reports) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    diagnostics = timing_lint(_load_circuit(args.file, insert_holds=False))
    for diag in diagnostics:
        if args.format == "records":
            where = diag.line if diag.line is not None else "-"
            print(f"lint\t{diag.severity}\t{where}\t{diag.message}")
        else:
            print(str(diag))
    if args.format == "text" and not diagnostics:
        print("clean")
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_print(args: argparse.Namespace) -> int:
    sys.stdout.write(print_canonical(_read_netlist(args.file)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "lint": _cmd_lint,
    "print": _cmd_print,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MarblesimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
