"""Exhaustive circuit analysis: truth tables, gate verification, lint.

Everything here runs the simulator over full input spaces, so it is meant
for gate-sized circuits (the input count is capped).  Verification compares
a macro's simulated tables in both collision modes against its reference
Boolean function and checks the reversibility and conservativeness claims,
plus physical conservativity: a run is physically conservative when no
syringe or tap added a marble, nothing landed in waste, and exactly as many
marbles left as entered (const sources count as entering).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .gates import boolean_spec, get_macro
from .netlist import Circuit, Diagnostic, elaborate
from .physics import CollisionMode
from .primitives import NodeKind
from .sim import Ledger, SimConfig, simulate

__all__ = [
    "GateReport",
    "TruthTable",
    "check_conservative",
    "check_reversible",
    "format_report",
    "format_table",
    "physically_conservative",
    "timing_lint",
    "truth_table",
    "verify_gate",
]

_MODES = (CollisionMode.BOUNCE, CollisionMode.MERGE)


@dataclass(frozen=True)
class TruthTable:
    """Simulated input/output map of one circuit under one mode."""

    name: str
    mode: CollisionMode
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def as_map(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(self.rows)


def _runs(circuit: Circuit, mode: CollisionMode, max_inputs: int = 16
          ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Ledger]]:
    """Simulate every input vector untraced, counting up with the first
    input as the most significant bit; yield its bits, outputs and
    ledger."""
    n = len(circuit.inputs)
    if n > max_inputs:
        raise ValueError(f"circuit {circuit.name!r} has {n} inputs; "
                         f"refusing to enumerate more than {max_inputs}")
    config = SimConfig(mode=mode, trace_enabled=False)
    for value in range(2 ** n):
        bits = tuple((value >> (n - 1 - k)) & 1 for k in range(n))
        outputs, _, ledger = simulate(circuit, bits, config)
        yield bits, outputs, ledger


def truth_table(circuit: Circuit, mode: CollisionMode,
                max_inputs: int = 16) -> TruthTable:
    """Simulate every input vector, counting up with the first input as
    the most significant bit."""
    runs = _runs(circuit, mode, max_inputs)
    return TruthTable(circuit.name, mode, circuit.inputs, circuit.outputs,
                      tuple(run[:2] for run in runs))


def check_reversible(table: TruthTable) -> bool:
    """Equal arity and an injective map: the inputs can be recovered."""
    if len(table.inputs) != len(table.outputs):
        return False
    images = [outputs for _, outputs in table.rows]
    return len(set(images)) == len(images)


def check_conservative(table: TruthTable) -> bool:
    """Every row preserves the number of set bits."""
    return all(sum(bits) == sum(outputs) for bits, outputs in table.rows)


def physically_conservative(ledger: Ledger) -> bool:
    """No active injection, no waste, marble count preserved.

    Const sources are passive (they release the same marble every run), so
    their marbles count as entering the circuit rather than as injections.
    """
    active = [rec for rec in ledger.injections
              if rec.kind is not NodeKind.CONST]
    const_marbles = len(ledger.injections) - len(active)
    return (not active and ledger.waste_marbles == 0
            and ledger.output_marbles
            == ledger.input_marbles + const_marbles)


@dataclass(frozen=True)
class GateReport:
    """Everything verified about one library gate."""

    name: str
    tables: tuple[TruthTable, ...]
    table_ok: tuple[bool, ...]
    modes_agree: bool
    reversible: bool
    conservative: bool
    reversible_claim: bool
    conservative_claim: bool
    physical: tuple[bool, ...]

    @property
    def claims_ok(self) -> bool:
        return (self.reversible == self.reversible_claim
                and self.conservative == self.conservative_claim)

    @property
    def ok(self) -> bool:
        return all(self.table_ok) and self.modes_agree and self.claims_ok


def verify_gate(name: str) -> GateReport:
    """Check one library gate in both collision modes."""
    macro = get_macro(name)
    circuit = elaborate(macro.expansion)
    tables = []
    table_ok = []
    physical = []
    for mode in _MODES:
        runs = list(_runs(circuit, mode))
        table = TruthTable(circuit.name, mode, circuit.inputs,
                           circuit.outputs, tuple(run[:2] for run in runs))
        tables.append(table)
        table_ok.append(all(boolean_spec(name, bits) == outputs
                            for bits, outputs in table.rows))
        physical.append(all(physically_conservative(ledger)
                            for _, _, ledger in runs))
    modes_agree = tables[0].rows == tables[1].rows
    return GateReport(
        name=name,
        tables=tuple(tables),
        table_ok=tuple(table_ok),
        modes_agree=modes_agree,
        reversible=check_reversible(tables[0]),
        conservative=check_conservative(tables[0]),
        reversible_claim=macro.reversible_claim,
        conservative_claim=macro.conservative_claim,
        physical=tuple(physical),
    )


def timing_lint(circuit: Circuit) -> tuple[Diagnostic, ...]:
    """Flag junction inputs whose marbles arrive before the firing phase.

    The reported hold length is exactly what balanced elaboration would
    insert on that channel.
    """
    diagnostics = []
    into_junctions = sorted(
        (ch for ch in circuit.channels
         if circuit.nodes[ch.dst].kind is NodeKind.JUNCTION),
        key=lambda ch: (ch.dst, ch.dst_port))
    for channel in into_junctions:
        fire = circuit.phases[channel.dst]
        arrival = circuit.phases[channel.src] + 1
        if arrival != fire:
            diagnostics.append(Diagnostic(
                "error",
                f"junction {channel.dst} fires at phase {fire} but input "
                f"{channel.dst_port} arrives at phase {arrival}; "
                f"insert hold({fire - arrival}) on "
                f"{channel.src}.{channel.src_port} -> "
                f"{channel.dst}.{channel.dst_port}",
                channel.line or None))
    return tuple(diagnostics)


def format_table(table: TruthTable) -> str:
    header = (f"{table.name} mode={table.mode.value}\n"
              f"{' '.join(table.inputs)} | {' '.join(table.outputs)}")
    lines = [header]
    for bits, outputs in table.rows:
        lines.append(f"{' '.join(map(str, bits))} | "
                     f"{' '.join(map(str, outputs))}")
    return "\n".join(lines)


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
