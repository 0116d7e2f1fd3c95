"""Deterministic phase-synchronous simulation of elaborated circuits.

Marbles advance one channel per phase.  Every non-sink node fires at its
levelized phase; electromagnet capture parks early arrivals at holds, joins,
scalpels and taps until their scheduled release, which is how paths of
different depth re-synchronize.  Junctions are the exception: a marble that
reaches a junction at any phase other than the junction's firing phase rolls
straight through and is routed on its own (the lone-marble crossing), which
is exactly the misinterpretation an unbalanced circuit risks.  Such an
arrival records a hazard diagnostic, or raises under ``strict_timing``.
Sensor+syringe nodes watch their input during their firing phase only:
whatever arrives is diverted to an internal waste pocket, and a fresh unit
marble is injected exactly when nothing arrived on time.

Traces list every marble placement as ``(phase, node, port, marble)``
events: a creation event at the out port of the node that produced the
marble, then one arrival event per hop.  A marble therefore never appears at
two places in the same phase.  The ledger is derived from the trace and
balances exactly: input mass plus injected mass equals output mass plus
waste mass, in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MarblesimError
from .netlist import Circuit
from .physics import CollisionMode
from .primitives import (Marble, MarbleFactory, NodeKind, junction_route,
                         scalpel_split, sensor_syringe_fire, tap_copy)

__all__ = [
    "Event",
    "Hazard",
    "InjectionRecord",
    "Ledger",
    "SimConfig",
    "SimulationError",
    "TimingViolationError",
    "Trace",
    "format_trace",
    "run_ledger",
    "simulate",
]

_SINKS = (NodeKind.OUTPUT, NodeKind.WASTE)
_INJECTOR_KINDS = (NodeKind.CONST, NodeKind.SYRINGE, NodeKind.TAP)


class SimulationError(MarblesimError):
    """The circuit drove the simulator into an unsupported state."""


class TimingViolationError(MarblesimError):
    """A marble reached a junction or syringe off-schedule (strict mode)."""


@dataclass(frozen=True)
class Event:
    """One marble placement: where a marble is during one phase."""

    phase: int
    node: str
    port: str
    marble_id: int
    mass: Fraction

    def sort_key(self) -> tuple[int, str, str, int]:
        return (self.phase, self.node, self.port, self.marble_id)


@dataclass(frozen=True)
class Hazard:
    phase: int
    node: str
    port: str
    marble_id: int
    expected_phase: int

    def __str__(self) -> str:
        return (f"marble {self.marble_id} reached {self.node}.{self.port} "
                f"at phase {self.phase}; scheduled firing is phase "
                f"{self.expected_phase}")


@dataclass(frozen=True)
class Trace:
    """Ordered event list plus where every marble ended up."""

    events: tuple[Event, ...]
    final_locations: dict[int, tuple[str, str]]
    hazards: tuple[Hazard, ...]
    node_kinds: dict[str, NodeKind]

    def collisions(self) -> tuple[tuple[int, str], ...]:
        """(phase, junction) pairs where two marbles actually met."""
        seen: dict[tuple[int, str], set[str]] = {}
        for ev in self.events:
            if (self.node_kinds.get(ev.node) is NodeKind.JUNCTION
                    and ev.port in ("A", "B")):
                seen.setdefault((ev.phase, ev.node), set()).add(ev.port)
        return tuple(sorted(key for key, ports in seen.items()
                            if ports == {"A", "B"}))


@dataclass(frozen=True)
class SimConfig:
    mode: CollisionMode
    strict_timing: bool = False
    trace_enabled: bool = True


@dataclass(frozen=True)
class InjectionRecord:
    marble_id: int
    node: str
    kind: NodeKind
    phase: int
    mass: Fraction


@dataclass(frozen=True)
class Ledger:
    """Exact marble and mass accounting for one run."""

    input_marbles: int
    injected: int
    output_marbles: int
    waste_marbles: int
    input_mass: Fraction
    injected_mass: Fraction
    output_mass: Fraction
    waste_mass: Fraction
    injections: tuple[InjectionRecord, ...]

    @property
    def balanced(self) -> bool:
        return (self.input_mass + self.injected_mass
                == self.output_mass + self.waste_mass)


def format_trace(trace: Trace) -> str:
    """Stable line-delimited form: phase, node, port, id, mass (p/q)."""
    return "\n".join(
        f"{ev.phase}\t{ev.node}\t{ev.port}\t{ev.marble_id}\t{ev.mass}"
        for ev in trace.events)


def run_ledger(trace: Trace) -> Ledger:
    """Derive the conservation ledger from a completed run's trace."""
    if not trace.events and trace.final_locations:
        raise ValueError("ledger needs a trace recorded with events")
    first_seen: dict[int, Event] = {}
    for ev in trace.events:
        if ev.marble_id not in first_seen:
            first_seen[ev.marble_id] = ev

    input_marbles = injected = output_marbles = waste_marbles = 0
    input_mass = injected_mass = output_mass = waste_mass = Fraction(0)
    injections: list[InjectionRecord] = []

    for marble_id in sorted(first_seen):
        ev = first_seen[marble_id]
        kind = trace.node_kinds[ev.node]
        if kind is NodeKind.INPUT:
            input_marbles += 1
            input_mass += ev.mass
        elif kind in _INJECTOR_KINDS and ev.port in ("out", "copy"):
            injected += 1
            injected_mass += ev.mass
            injections.append(InjectionRecord(marble_id, ev.node, kind,
                                              ev.phase, ev.mass))

    for marble_id in sorted(trace.final_locations):
        node, port = trace.final_locations[marble_id]
        kind = trace.node_kinds[node]
        mass = first_seen[marble_id].mass
        if kind is NodeKind.OUTPUT:
            output_marbles += 1
            output_mass += mass
        elif kind is NodeKind.WASTE or (kind is NodeKind.SYRINGE
                                        and port == "waste"):
            waste_marbles += 1
            waste_mass += mass

    return Ledger(input_marbles, injected, output_marbles, waste_marbles,
                  input_mass, injected_mass, output_mass, waste_mass,
                  tuple(injections))


# Ports where two marbles in the same phase cannot coexist.
_SINGLE_OCCUPANCY = (NodeKind.JUNCTION, NodeKind.SCALPEL, NodeKind.SYRINGE,
                     NodeKind.TAP, NodeKind.HOLD)


class _Run:
    def __init__(self, circuit: Circuit, bits: tuple[int, ...],
                 config: SimConfig):
        self.circuit = circuit
        self.bits = bits
        self.config = config
        self.factory = MarbleFactory()
        self.events: list[Event] = []
        self.hazards: list[Hazard] = []
        self.final: dict[int, tuple[str, str]] = {}
        self.held: dict[tuple[str, str], list[tuple[int, Marble]]] = {}
        self.arrivals: dict[int, list[tuple[str, str, Marble]]] = {}
        self.syringe_sensed: set[str] = set()
        self.extra_fire: dict[int, set[str]] = {}
        self.output_hits: dict[str, int] = {name: 0 for name in
                                            circuit.outputs}

    def record(self, phase: int, node: str, port: str,
               marble: Marble) -> None:
        self.events.append(Event(phase, node, port, marble.ident,
                                 marble.mass))
        self.final[marble.ident] = (node, port)

    def emit(self, node: str, port: str, marble: Marble, phase: int) -> None:
        channel = self.circuit.out_channel(node, port)
        if channel is None:
            raise SimulationError(f"no channel leaves {node}.{port}")
        self.arrivals.setdefault(phase + 1, []).append(
            (channel.dst, channel.dst_port, marble))

    def create(self, node: str, port: str, mass: Fraction,
               phase: int) -> Marble:
        marble = self.factory.fresh(mass, node)
        self.record(phase, node, port, marble)
        return marble

    def place_arrivals(self, phase: int) -> None:
        batch = self.arrivals.pop(phase, ())
        placed: set[tuple[str, str]] = set()
        for node, port, marble in sorted(
                batch, key=lambda item: (item[0], item[1], item[2].ident)):
            kind = self.circuit.nodes[node].kind
            if kind in _SINGLE_OCCUPANCY and (node, port) in placed:
                raise SimulationError(
                    f"two marbles reached {node}.{port} in phase {phase}")
            placed.add((node, port))
            self.record(phase, node, port, marble)
            if kind in (NodeKind.JUNCTION, NodeKind.SYRINGE):
                expected = self.circuit.phases[node]
                if phase != expected:
                    if self.config.strict_timing:
                        raise TimingViolationError(
                            f"marble {marble.ident} reached {node}.{port} "
                            f"at phase {phase}; scheduled firing is phase "
                            f"{expected}")
                    self.hazards.append(Hazard(phase, node, port,
                                               marble.ident, expected))
            if kind is NodeKind.SYRINGE:
                # Diverted into the syringe's internal waste pocket one
                # phase later; sensed only when it arrived on schedule.
                if phase == self.circuit.phases[node]:
                    self.syringe_sensed.add(node)
                self.events.append(Event(phase + 1, node, "waste",
                                         marble.ident, marble.mass))
                self.final[marble.ident] = (node, "waste")
            elif kind is NodeKind.OUTPUT:
                self.output_hits[node] += 1
            elif kind is NodeKind.WASTE:
                pass
            else:
                self.held.setdefault((node, port), []).append((phase, marble))
                if (kind is NodeKind.JUNCTION
                        and phase != self.circuit.phases[node]):
                    self.extra_fire.setdefault(phase, set()).add(node)

    def take_held(self, node: str, port: str,
                  arrived: int | None = None) -> list[Marble]:
        entries = self.held.get((node, port), [])
        if arrived is None:
            taken = [marble for _, marble in entries]
            kept: list[tuple[int, Marble]] = []
        else:
            taken = [marble for when, marble in entries if when == arrived]
            kept = [(when, marble) for when, marble in entries
                    if when != arrived]
        if kept:
            self.held[(node, port)] = kept
        else:
            self.held.pop((node, port), None)
        return taken

    def fire(self, node: str, phase: int) -> None:
        kind = self.circuit.nodes[node].kind
        if kind is NodeKind.INPUT:
            index = self.circuit.inputs.index(node)
            if self.bits[index]:
                marble = self.create(node, "out", Fraction(1), phase)
                self.emit(node, "out", marble, phase)
        elif kind is NodeKind.CONST:
            marble = self.create(node, "out", Fraction(1), phase)
            self.emit(node, "out", marble, phase)
        elif kind is NodeKind.JUNCTION:
            self.fire_junction(node, phase)
        elif kind is NodeKind.SCALPEL:
            for marble in self.take_held(node, "in"):
                half1, half2 = scalpel_split(marble, self.factory, node)
                self.record(phase, node, "out1", half1)
                self.record(phase, node, "out2", half2)
                self.emit(node, "out1", half1, phase)
                self.emit(node, "out2", half2, phase)
        elif kind is NodeKind.SYRINGE:
            if sensor_syringe_fire(node in self.syringe_sensed):
                marble = self.create(node, "out", Fraction(1), phase)
                self.emit(node, "out", marble, phase)
        elif kind is NodeKind.TAP:
            for marble in self.take_held(node, "in"):
                forward, inject = tap_copy(True)
                if forward:
                    self.emit(node, "out", marble, phase)
                if inject:
                    copy = self.create(node, "copy", Fraction(1), phase)
                    self.emit(node, "copy", copy, phase)
        elif kind is NodeKind.HOLD:
            for marble in self.take_held(node, "in"):
                self.emit(node, "out", marble, phase)
        elif kind is NodeKind.JOIN:
            ports = sorted(
                (port for (n, port) in self.held if n == node),
                key=lambda p: int(p[2:]))
            for port in ports:
                for marble in self.take_held(node, port):
                    self.emit(node, "out", marble, phase)

    def fire_junction(self, node: str, phase: int) -> None:
        a_list = self.take_held(node, "A", arrived=phase)
        b_list = self.take_held(node, "B", arrived=phase)
        a = a_list[0] if a_list else None
        b = b_list[0] if b_list else None
        if a is None and b is None:
            return
        occupancy = junction_route(
            a is not None, b is not None, self.config.mode,
            a.mass if a is not None else Fraction(1),
            b.mass if b is not None else Fraction(1))
        for port, mass in occupancy.occupied():
            if port == "O3":
                marble = self.create(node, "O3", mass, phase)
            elif port in ("O2", "O5"):
                marble = a
            else:  # O1, O4 carry the right-hand marble
                marble = b
            assert marble is not None and marble.mass == mass
            self.emit(node, port, marble, phase)

    def run(self) -> tuple[tuple[int, ...], Trace]:
        static_fire: dict[int, list[str]] = {}
        for name, node in self.circuit.nodes.items():
            if node.kind not in _SINKS:
                static_fire.setdefault(self.circuit.phases[name],
                                       []).append(name)
        last_phase = self.circuit.max_phase + 2
        for phase in range(last_phase + 1):
            self.place_arrivals(phase)
            to_fire = set(static_fire.get(phase, ()))
            to_fire.update(self.extra_fire.pop(phase, ()))
            for node in sorted(to_fire):
                self.fire(node, phase)
        if self.arrivals:
            raise SimulationError("marbles still in flight after the final "
                                  "phase")
        if self.held:
            parked = ", ".join(f"{node}.{port}"
                               for node, port in sorted(self.held))
            raise SimulationError("marbles still parked after the final "
                                  f"phase at {parked}")
        outputs = tuple(1 if self.output_hits[name] else 0
                        for name in self.circuit.outputs)
        kinds = {name: node.kind
                 for name, node in self.circuit.nodes.items()}
        trace = Trace(tuple(sorted(self.events, key=Event.sort_key)),
                      dict(sorted(self.final.items())),
                      tuple(self.hazards), kinds)
        return outputs, trace


def simulate(circuit: Circuit, bits: tuple[int, ...],
             config: SimConfig) -> tuple[tuple[int, ...], Trace, Ledger]:
    """Run one input vector through an elaborated circuit.

    ``bits`` follows the circuit's input declaration order (first declared
    input first).  Returns the output bit vector in output declaration
    order, the trace, and the conservation ledger.
    """
    if len(bits) != len(circuit.inputs):
        raise ValueError(f"circuit {circuit.name!r} takes "
                         f"{len(circuit.inputs)} input bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"inputs must be bits, got {bits!r}")
    outputs, trace = _Run(circuit, tuple(bits), config).run()
    ledger = run_ledger(trace)
    if not config.trace_enabled:
        trace = Trace((), trace.final_locations, trace.hazards,
                      trace.node_kinds)
    return outputs, trace, ledger
