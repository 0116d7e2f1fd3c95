"""Exhaustive circuit analysis: truth tables, gate verification, lint.

A truth table is evaluated bit-parallel: each channel carries presence
masks over every input vector at once (bit v is set when a marble is there
under vector v, and a second mask says two or more), and the nodes fire in
phase order by the per-kind rule ``_presence_route``.  That is
parallel-pattern logic simulation (Waicukauski et al., "Fault Simulation
for Structured VLSI", 1985).  The simulator stays the oracle.  It
tabulates, a vector at a time, exactly the circuits ``_compile`` refuses;
where two marbles can reach a single-occupancy port it runs the lowest
such vector, whose error is raised, and a clean run there is an error
too: the pass and the simulator disagree.  The input count is capped at
16, so this is meant for gate-sized circuits.

The pass is compiled once per circuit and evaluated on every table:
``_compile`` gives channel i slot i and lists the nodes in phase order
with the slots each reads and fills, or None when the simulator must
tabulate, and ``Circuit._mask_order`` keeps that from the first table
on.  That is compiled-code simulation (Barzilai et al., "HSS -- A
High-Speed Simulator", 1987).  Input vectors depend on the input count
alone and are kept per width, not per circuit (``_input_vectors``): each
table pairs them with its outputs.  Where a circuit has no more outputs
than inputs, those are the vector of their code at the output width, as
reversible gates map vectors to vectors (Fredkin & Toffoli, "Conservative
Logic", 1982); with more, each row is read from the output columns.
Tables are never cached.

Verification compares a macro's tables in both collision modes against its
reference Boolean function and checks the reversibility and
conservativeness claims, plus physical conservativity: a run is physically
conservative when no syringe or tap added a marble, nothing landed in
waste, and exactly as many marbles left as entered (const sources count as
entering).  That is the marble-by-marble form of conservative logic
(Fredkin & Toffoli, "Conservative Logic", 1982).  It is read per vector
from the masks the table pass leaves, by counting scalpel cuts against
merges (``_spoiled``), which ``truth_table`` never does.  A library gate
the pass cannot take is an error: no simulated fallback judges it.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import product, zip_longest
from operator import itemgetter
from typing import NamedTuple

from .errors import MarblesimError
from .gates import boolean_spec, get_macro
from .netlist import (Circuit, Diagnostic, _off_schedule, _skewed_junctions,
                      elaborate)
from .physics import CollisionMode
from .primitives import (_CONST, _INPUT, _JOIN, _JUNCTION, _OUTPUT, _SCALPEL,
                         _SYRINGE, _TAP, _WASTE, NodeKind)
from .sim import Ledger, SimConfig, simulate

__all__ = [
    "GateReport",
    "TruthTable",
    "check_conservative",
    "check_reversible",
    "physically_conservative",
    "timing_lint",
    "truth_table",
    "verify_gate",
]

_BOUNCE = CollisionMode.BOUNCE
_MODES = (_BOUNCE, CollisionMode.MERGE)

# The most inputs a table enumerates: 2**16 rows.
_MAX_INPUTS = 16


class TruthTable(NamedTuple):
    """Simulated input/output map of one circuit under one mode.

    ``rows`` pairs each input vector with its outputs.  Their tuples may
    be shared: the mask pass takes input tuples from the vectors kept per
    width, shared by tables of one width, and, unless there are more
    outputs than inputs, output tuples too, so equal ones are one.
    """

    name: str
    mode: CollisionMode
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


# Byte values of the digits "0" and "1" mapped to 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=2)
def _input_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """Every vector of ``n`` bits, vector v at index v, first bit most
    significant: 2**n tuples, about 0.6 MB at 12 bits and 11.5 MB at 16.
    A table reads two widths at most, its inputs' and, unless it has more
    outputs than inputs, its outputs'."""
    return tuple(product((0, 1), repeat=n))


# What a channel holds over many input vectors at once: bit v of ``one``
# is set when at least one marble is on it under vector v, bit v of
# ``two`` when at least two are.
_Presence = tuple[int, int]


def _compile(circuit: Circuit) -> tuple | None:
    """The circuit as the mask pass reads it, kept by the circuit as
    ``Circuit._mask_order``, in numbered slots that each hold one
    presence pair: channel i of ``channels`` fills slot i.  A plain tuple,
    since a NamedTuple class would add import time to every command, of

    - the nodes with out ports in phase order, circuit inputs left out:
      each one's kind, the slots it reads (``kind.ins`` order, a join's
      channels in channel order) and the slots it fills;
    - the slot each circuit input fills;
    - the slot each circuit output reads;
    - the slots of the channels into waste nodes.

    Nothing in it grows with 2**n: input vectors are kept per width.

    None unless, as in any elaborated circuit on schedule, the pass can
    read every marble at its node's phase: the circuit's inputs are
    distinct input nodes and its outputs output nodes; each in port a node
    reads has exactly one channel (a waste node's any number); each out
    port of a node that fires has exactly one; no channel enters a port
    its kind never reads; and ``_off_schedule`` finds no channel.  The
    simulator tabulates anything else.
    """
    kinds, channels, phases = circuit._kinds, circuit.channels, circuit.phases
    inputs, outputs = circuit.inputs, circuit.outputs
    if (len(set(inputs)) < len(inputs)
            or any(kinds.get(name) is not _INPUT for name in inputs)
            or any(kinds.get(name) is not _OUTPUT for name in outputs)):
        return None
    into: dict[tuple[str, str], int] = {}
    leaving: dict[tuple[str, str], int] = {}
    joins: dict[str, list[int]] = {}
    wastes = []
    for slot, (src, src_port, dst, port, _) in enumerate(channels):
        kind = kinds[dst]
        if ((src, src_port) in leaving
                or port not in kind.ins and kind is not _JOIN):
            return None
        leaving[src, src_port] = slot
        if kind is _WASTE:
            wastes.append(slot)
            continue
        if (dst, port) in into:
            return None
        into[dst, port] = slot
        if kind is _JOIN:
            joins.setdefault(dst, []).append(slot)
    if next(_off_schedule(circuit.nodes, channels, phases), None) is not None:
        return None
    firing = [name for name, kind in kinds.items()
              if kind.outs and kind is not _INPUT]
    steps = []
    try:
        for name in sorted(firing, key=phases.__getitem__):
            kind = kinds[name]
            ins = (joins.get(name, ()) if kind is _JOIN else
                   [into[name, port] for port in kind.ins])
            steps.append((kind, tuple(ins),
                          tuple([leaving[name, port] for port in kind.outs])))
        return (tuple(steps), tuple([leaving[name, "out"] for name in inputs]),
                tuple([into[name, "in"] for name in outputs]), tuple(wastes))
    except KeyError:  # a port that a node reads or fills has no channel
        return None


def _presence_route(kind: NodeKind, ins: list[_Presence],
                    mode: CollisionMode, full: int) -> tuple[_Presence, ...]:
    """Route one firing of ``kind`` over presence masks: one pair per port
    of ``kind.outs``, from one pair per in port (``kind.ins`` order; a
    join's in ports in any order).  ``full`` has every vector's bit set.

    This is the simulator's node behaviour for a circuit whose marbles
    all arrive on schedule.  A junction crosses lone marbles and sends a
    collision to O2 and O4 (bounce) or O3 (merge); a syringe injects where
    nothing arrived; a const always injects; scalpel, tap and hold copy
    their input to every out port; a join funnels its inputs, so it is the
    one kind that can put two marbles on a channel.  Inputs and sinks
    never fire here: the pass sets inputs from the vectors and reads what
    reaches a sink from its channel.  Two marbles on a single-occupancy
    port are contention, which the caller checks.
    """
    if kind is _JUNCTION:
        (a, _), (b, _) = ins
        both = a & b
        bounce = both if mode is _BOUNCE else 0
        return ((b & ~a, 0), (bounce, 0), (both ^ bounce, 0), (bounce, 0),
                (a & ~b, 0))
    if kind is _SYRINGE:
        return ((full ^ ins[0][0], 0),)
    if kind is _CONST:
        return ((full, 0),)
    if kind is _JOIN:
        one = two = 0
        for in_one, in_two in ins:
            two |= in_two | (one & in_one)
            one |= in_one
        return ((one, two),)
    # Scalpel, tap and hold.
    return (ins[0],) * len(kind.outs)


def _count(planes: list[int], mask: int) -> None:
    """Add one, in every vector of ``mask``, to the bit-sliced counter
    ``planes``: plane i holds binary digit i of every vector's count."""
    for i, plane in enumerate(planes):
        if not mask:
            return
        planes[i] = plane ^ mask
        mask &= plane
    if mask:
        planes.append(mask)


def _route(steps: tuple, slots: list, mode: CollisionMode, full):
    """Fire ``steps`` over ``slots`` in place and return the contention
    value: the vectors with two marbles on a single-occupancy port.  Any
    type with ``& | ^ ~``, ``0`` and ``full`` can stand in for int masks."""
    flagged = 0
    for kind, ins, outs in steps:
        got = [slots[slot] for slot in ins]
        if kind.single:
            for _, two in got:
                flagged |= two
        for slot, mask in zip(outs, _presence_route(kind, got, mode, full)):
            slots[slot] = mask
    return flagged


def _tabulate(circuit: Circuit, mode: CollisionMode
              ) -> tuple[TruthTable, list[_Presence] | None]:
    """The circuit's table under ``mode``, with the slots its mask pass
    left, or None for the slots when ``_compile`` refuses the circuit and
    the simulator tabulates it vector by vector.

    Bit v of a mask stands for input vector v.  If a vector puts two
    marbles on a single-occupancy port, the lowest such vector is
    simulated: its error is raised, and a clean run is an error too.
    """
    n = len(circuit.inputs)
    if n > _MAX_INPUTS:
        raise ValueError(f"circuit {circuit.name!r} has {n} inputs; "
                         f"refusing to enumerate more than {_MAX_INPUTS}")
    config = SimConfig(mode=mode, trace_enabled=False)
    vectors = _input_vectors(n)
    order = circuit._mask_order
    if order is None:
        return TruthTable(circuit.name, mode, circuit.inputs, circuit.outputs,
                          tuple([(bits, simulate(circuit, bits, config)[0])
                                 for bits in vectors])), None
    steps, inputs, outputs, _ = order
    count = 1 << n
    full = (1 << count) - 1
    slots = [(0, 0)] * len(circuit.channels)
    for k, slot in enumerate(inputs):
        # Runs of ``span`` vectors without the input, then ``span`` with,
        # doubled until they cover every vector.
        span = 1 << (n - 1 - k)
        mask = ((1 << span) - 1) << span
        while (span := 2 * span) < count:
            mask |= mask << span
        slots[slot] = (mask, 0)
    flagged = _route(steps, slots, mode, full)
    if flagged:
        bits = vectors[(flagged & -flagged).bit_length() - 1]
        simulate(circuit, bits, config)
        raise MarblesimError(f"circuit {circuit.name!r}, mode {mode.value}, "
                             f"inputs {''.join(map(str, bits))}: the mask "
                             f"pass and the simulator disagree")
    # Each output's column holds one digit byte per vector, vector v at
    # byte count - 1 - v, so read as a big-endian int byte v is vector v's.
    columns = [format(slots[slot][0], f"0{count}b").encode()
               .translate(_DIGITS) for slot in outputs]
    if len(outputs) > n:
        # More outputs than inputs: each row's outputs straight from the
        # columns.
        rows = list(zip(*columns))[::-1]
    else:
        # Row v's outputs are the vector of their code, first output most
        # significant.  The columns, as ints, add byte by byte to each
        # code's low byte (the last eight outputs) or high byte (the
        # others); interleaved, the two read as little-endian shorts.
        high = low = 0
        for column in columns[:-8]:
            high = high << 1 | int.from_bytes(column, "big")
        for column in columns[-8:]:
            low = low << 1 | int.from_bytes(column, "big")
        codes = bytearray(2 * count)
        codes[::2] = low.to_bytes(count, "little")
        codes[1::2] = high.to_bytes(count, "little")
        images = _input_vectors(len(outputs))
        shorts = struct.unpack(f"<{count}H", codes)
        # The getter returns a tuple for two codes or more, so for n >= 1.
        rows = itemgetter(*shorts)(images) if n else (images[shorts[0]],)
    # Built as a list: a tuple grown from an iterator is re-tracked per resize.
    return TruthTable(circuit.name, mode, circuit.inputs, circuit.outputs,
                      tuple(list(zip(vectors, rows)))), slots


def _spoiled(circuit: Circuit, slots: list[_Presence]) -> int:
    """The mask of vectors whose run is not physically conservative, read
    from the slots a mask pass over ``circuit`` left without contention.
    That is exact: each slot is written once, before any node reads it.

    On schedule and without contention every marble ends at an output or
    a waste node, and a scalpel turns one marble into two while a merge
    turns two into one.  So a run that no syringe, firing tap or waste
    node touches is conservative exactly when it cut as many marbles as
    it merged; both are counted per vector.  A syringe spoils every run:
    it either injects or swallows into its pocket.
    """
    steps, _, _, wastes = circuit._mask_order
    spoiled = 0
    cuts: list[int] = []
    merges: list[int] = []
    for kind, ins, outs in steps:
        if kind is _JUNCTION:
            _count(merges, slots[outs[2]][0])
        elif kind is _SCALPEL:
            _count(cuts, slots[ins[0]][0])
        elif kind is _TAP:
            spoiled |= slots[ins[0]][0]
        elif kind is _SYRINGE:
            return (1 << (1 << len(circuit.inputs))) - 1
    for slot in wastes:
        spoiled |= slots[slot][0]
    for cut, merge in zip_longest(cuts, merges, fillvalue=0):
        spoiled |= cut ^ merge
    return spoiled


def truth_table(circuit: Circuit, mode: CollisionMode) -> TruthTable:
    """Tabulate every input vector, counting up with the first input as
    the most significant bit.

    One bit-parallel pass over presence masks gives every row, unless
    ``_compile`` refuses the circuit (off schedule, as ``insert_holds=False``
    can leave it, or wired as ``validate`` refuses): then every vector is
    simulated.  Where two marbles can reach a single-occupancy port, the
    lowest such vector is simulated and raises the simulator's
    ``SimulationError``, or, if it runs clean, a ``MarblesimError``: the
    pass and the simulator disagree.
    """
    if not isinstance(mode, CollisionMode):
        raise ValueError(f"mode must be a CollisionMode, got {mode!r}")
    return _tabulate(circuit, mode)[0]


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
              if rec.kind is not _CONST]
    const_marbles = len(ledger.injections) - len(active)
    return (not active and ledger.waste_marbles == 0
            and ledger.output_marbles
            == ledger.input_marbles + const_marbles)


class GateReport(NamedTuple):
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
    """Check one library gate in both collision modes.  Each table and
    its physical verdict come from one mask pass; a gate the pass cannot
    take is an error."""
    macro = get_macro(name)
    circuit = elaborate(macro.expansion)
    if circuit._mask_order is None:
        raise MarblesimError(f"gate {name!r}: the mask pass cannot "
                             f"tabulate its circuit")
    tables, physical = [], []
    for mode in _MODES:
        table, slots = _tabulate(circuit, mode)
        tables.append(table)
        physical.append(not _spoiled(circuit, slots))
    # Both modes tabulate the same input vectors in the same order.
    expected = [boolean_spec(name, bits) for bits, _ in tables[0].rows]
    return GateReport(
        name=name,
        tables=tuple(tables),
        table_ok=tuple([outputs for _, outputs in table.rows] == expected
                       for table in tables),
        modes_agree=tables[0].rows == tables[1].rows,
        reversible=check_reversible(tables[0]),
        conservative=check_conservative(tables[0]),
        reversible_claim=macro.reversible_claim,
        conservative_claim=macro.conservative_claim,
        physical=tuple(physical),
    )


def timing_lint(circuit: Circuit) -> tuple[Diagnostic, ...]:
    """Flag junction inputs whose marbles miss the junction's firing phase.

    The channels flagged and their hold lengths are the ones hold repair
    takes (``netlist._skewed_junctions``, from the schedule rule the
    truth-table fallback reads too), so on a circuit elaborated with
    ``insert_holds=False`` each hint is exactly the hold balanced
    elaboration inserts on that channel.  A channel that inlining made
    inside a gate instance cannot take a hold in the netlist, so its
    message says to leave hold repair on.  Inlining names both its ends
    ``instance.node`` and gives them and the channel the ``gate``
    statement's line, where a netlist's own dotted nodes have lines of
    their own.
    """
    nodes, phases = circuit.nodes, circuit.phases
    diagnostics = []
    for channel, early in _skewed_junctions(nodes, circuit.channels, phases):
        fire = phases[channel.dst]
        message = (f"junction {channel.dst} fires at phase {fire} but "
                   f"input {channel.dst_port} arrives at phase "
                   f"{fire - early}; insert hold({early}) on "
                   f"{channel.src}.{channel.src_port} -> "
                   f"{channel.dst}.{channel.dst_port}")
        instance = channel.src.split(".", 1)[0]
        if (channel.line and channel.dst.startswith(instance + ".")
                and "." in channel.src
                and nodes[channel.src].line == channel.line
                == nodes[channel.dst].line):
            message += (f"; that channel is inside gate instance "
                        f"{instance}, so leave hold repair on")
        diagnostics.append(Diagnostic("error", message,
                                      channel.line or None))
    return tuple(diagnostics)
