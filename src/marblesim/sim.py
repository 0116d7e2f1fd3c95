"""Deterministic phase-synchronous simulation of elaborated circuits.

Marbles advance one channel per phase, and a node fires only when it has
work.  Inputs carrying a 1, consts and sensor+syringes fire at their
levelized phase; a node a marble reaches fires at its levelized phase if
that phase has not yet passed.  A run keeps one schedule, from each phase
to the nodes that fire then and the marbles parked for each firing.  A
marble is placed as it is emitted, straight into the slot of the phase its
node fires in, which is how electromagnet capture at holds, joins,
scalpels and taps re-synchronizes paths of different depth.  Junctions are
the exception: a junction fires in the phase a marble reaches it, so a
marble that arrives off the junction's phase rolls straight through on its
own (the lone-marble crossing), the misinterpretation an unbalanced
circuit risks; it records a hazard, or is an error under
``strict_timing``.  Sensor+syringe nodes watch their input during their
firing phase only: whatever arrives is diverted to an internal waste
pocket, one that arrives on time also fills the syringe's ``in`` slot, and
the firing injects a fresh unit marble exactly when that slot is empty.
The nodes due in one phase fire in name order, which fixes the marble ids
and the (phase, junction) order of the collisions; hazards come in (phase,
node, port, marble) order.  Of the errors found placing one phase's marbles,
the run raises, once the phase before has fired, the one at the least
(node, port), where a strict timing error, naming the lowest marble id,
comes before contention.  ``_Run.fire`` is the one place that says what
each kind does to marbles; for the junction that is the table in
:mod:`marblesim.primitives`: a lone A leaves on O5, a lone B on O1, and
two marbles that meet bounce to O2 (A) and O4 (B) or merge into one new
marble on O3 that carries both masses.

Traces list every marble placement as a plain tuple of ``Event``'s fields,
``(phase, node, port, marble_id, mass)``: a creation event at the out port
of the node that produced the marble, then one arrival event per hop.  A
marble never appears at two places in one phase, so the first four fields
tell events apart; a traced run sorts them once, at its end, and keeps
them as its trace.  A marble's creation is written once, by
``_Run.emit_new``, which also enters it in the final locations, so they
come in marble-id order.  The ledger is kept either way, from where each
marble was created and where it ended, and balances exactly: input mass
plus injected mass equals output mass plus waste mass, in exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import lcm
from typing import NamedTuple

from .errors import MarblesimError
from .netlist import Circuit
from .physics import CollisionMode
from .primitives import (_CONST, _HOLD, _INPUT, _JOIN, _JUNCTION, _SCALPEL,
                         _SYRINGE, _TAP, NodeKind)

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

_UNIT = Fraction(1)


class SimulationError(MarblesimError):
    """The circuit drove the simulator into an unsupported state."""


class TimingViolationError(MarblesimError):
    """A marble reached a junction or syringe off-schedule (strict mode)."""


class Event(NamedTuple):
    """One marble placement: where a marble is during one phase.  No two
    events of a run share their first four fields.  A trace keeps its
    events as plain tuples of these fields; ``Event._make(event)`` names
    them, and an ``Event`` equals the plain tuple of its fields."""

    phase: int
    node: str
    port: str
    marble_id: int
    mass: Fraction


class Hazard(NamedTuple):
    phase: int
    node: str
    port: str
    marble_id: int
    expected_phase: int

    def __str__(self) -> str:
        return (f"marble {self.marble_id} reached {self.node}.{self.port} "
                f"at phase {self.phase}; scheduled firing is phase "
                f"{self.expected_phase}")


class Trace(NamedTuple):
    """Ordered event list plus where every marble ended up.

    Each event is a plain tuple of ``Event``'s fields.  The event list is
    empty when the run was not traced; the rest is kept either way.
    ``circuit`` is the circuit that ran, and ``collisions`` the (phase,
    junction) pairs where two marbles collided, in that order.
    """

    events: tuple[tuple[int, str, str, int, Fraction], ...]
    final_locations: dict[int, tuple[str, str]]
    hazards: tuple[Hazard, ...]
    circuit: Circuit
    collisions: tuple[tuple[int, str], ...]


class SimConfig(NamedTuple):
    mode: CollisionMode
    strict_timing: bool = False
    trace_enabled: bool = True


class InjectionRecord(NamedTuple):
    marble_id: int
    node: str
    kind: NodeKind
    phase: int
    mass: Fraction


class Ledger(NamedTuple):
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
    return "\n".join(f"{phase}\t{node}\t{port}\t{marble}\t{mass}"
                     for phase, node, port, marble, mass in trace.events)


# Where each marble came into being, by marble id: node, phase and mass.
_Origins = dict[int, tuple[str, int, Fraction]]


def _total(masses: list[Fraction]) -> Fraction:
    """Sum exact masses.  Those that are ``_UNIT`` itself, almost all, are
    counted; the rest are added as integers over their common denominator,
    since a ``Fraction`` addition costs microseconds."""
    others = [mass for mass in masses if mass is not _UNIT]
    common = lcm(*[mass.denominator for mass in others])
    return Fraction((len(masses) - len(others)) * common
                    + sum([mass.numerator * (common // mass.denominator)
                           for mass in others]), common)


def _ledger(created: _Origins, final: dict[int, tuple[str, str]],
            kinds: dict[str, NodeKind]) -> Ledger:
    """Account for every marble by the role of the node that created it
    and of the place where it ended.  A syringe's internal waste pocket is
    the port ``"waste"``, which no kind has as a real port."""
    # The masses of the marbles each role counts.
    inputs, injected, outputs, waste = [], [], [], []
    injections: list[InjectionRecord] = []

    for marble_id, (node, phase, mass) in created.items():  # ids ascend
        kind = kinds[node]
        if kind.role == "input":
            inputs.append(mass)
        elif kind.role == "injected":
            injected.append(mass)
            injections.append(InjectionRecord(marble_id, node, kind, phase,
                                              mass))
        end, port = final[marble_id]
        role = kinds[end].role
        if role == "output":
            outputs.append(mass)
        elif role == "waste" or port == "waste":
            waste.append(mass)

    return Ledger(len(inputs), len(injected), len(outputs), len(waste),
                  _total(inputs), _total(injected), _total(outputs),
                  _total(waste), tuple(injections))


def run_ledger(trace: Trace) -> Ledger:
    """Derive the conservation ledger from a completed run's trace."""
    if not trace.events and trace.final_locations:
        raise ValueError("ledger needs a trace recorded with events")
    created: _Origins = {}
    # A marble's first event is its creation.
    for phase, node, _, marble, mass in trace.events:
        created.setdefault(marble, (node, phase, mass))
    return _ledger(created, trace.final_locations, trace.circuit._kinds)


def _as_events(placements: list[tuple[int, str, str, int, Fraction]]
               ) -> tuple[tuple[int, str, str, int, Fraction], ...]:
    """Sort a traced run's placements; they are its events as they are."""
    placements.sort()
    return tuple(placements)


class _Run:
    def __init__(self, circuit: Circuit, bits: tuple[int, ...],
                 config: SimConfig):
        self.circuit = circuit
        self.config = config
        self.kinds = circuit._kinds
        self.out = circuit._out
        self.phases = circuit.phases
        # A traced run's placements, sorted into its events at its end.
        self.events: list[tuple[int, str, str, int, Fraction]] | None = (
            [] if config.trace_enabled else None)
        # A marble is its id, numbered from 1 in creation order; its mass
        # is kept here only.
        self.created: _Origins = {}
        # Where each marble is, in id order: entered where it was made.
        self.final: dict[int, tuple[str, str]] = {}
        self.hazards: list[Hazard] = []
        self.collisions: list[tuple[int, str]] = []
        # A marble emitted in the last phase is in flight when the run ends.
        self.last_phase = circuit.max_phase + 2
        self.in_flight = False
        # Single-occupancy ports reached next phase, and errors found there.
        self.placed: set[tuple[str, str]] = set()
        self.faults: list[tuple[str, str, bool, int, str]] = []
        # phase -> node that fires then -> port -> marbles parked for that
        # firing, in arrival order
        self.due: dict[int, dict[str, dict[str, list[int]]]] = {}
        # The ports where a marble stays parked for good: it came after its
        # node fired, or its node's kind never reads that port.
        self.stuck: set[tuple[str, str]] = set()
        for name in chain(circuit._starts, compress(circuit.inputs, bits)):
            self.due.setdefault(self.phases[name], {})[name] = {}

    def emit(self, node: str, port: str, marble: int, phase: int) -> None:
        """Send ``marble`` from ``node.port`` and place it a phase later."""
        channel = self.out.get((node, port))
        if channel is None:
            raise SimulationError(f"no channel leaves {node}.{port}")
        phase += 1
        if phase > self.last_phase:
            self.in_flight = True
            return
        node = channel.dst
        port = channel.dst_port
        key = node, port
        kind = self.kinds[node]
        if kind.single:
            if key in self.placed:
                self.faults.append((node, port, True, 0,
                                    f"two marbles reached {node}.{port} in "
                                    f"phase {phase}"))
            self.placed.add(key)
        events = self.events
        if events is not None:
            events.append((phase, node, port, marble,
                           self.created[marble][2]))
        self.final[marble] = key
        if kind is _JUNCTION or kind is _SYRINGE:
            expected = self.phases[node]
            if phase != expected:
                hazard = Hazard(phase, node, port, marble, expected)
                if self.config.strict_timing:
                    self.faults.append((node, port, False, marble,
                                        str(hazard)))
                self.hazards.append(hazard)
        if kind is _SYRINGE:
            # Diverted into the syringe's internal waste pocket one phase
            # later; sensed, in the ``in`` slot whatever port it came on,
            # only when it arrived on schedule.
            if phase == expected:
                self.due[phase][node]["in"] = [marble]
            if events is not None:
                events.append((phase + 1, node, "waste", marble,
                               self.created[marble][2]))
            self.final[marble] = (node, "waste")
        elif kind.outs:
            # A sink keeps what reaches it; any other node parks the
            # marble for the phase it fires in, a junction's being now,
            # unless that phase has passed.
            at = phase if kind is _JUNCTION else self.phases[node]
            if phase > at:
                self.stuck.add(key)
            else:
                self.due.setdefault(at, {}).setdefault(node, {}).setdefault(
                    port, []).append(marble)

    def emit_new(self, node: str, port: str, mass: Fraction,
                 phase: int) -> None:
        """Emit a new marble of ``mass``, made at ``node.port``."""
        marble = len(self.created) + 1
        self.created[marble] = (node, phase, mass)
        self.final[marble] = (node, port)
        if self.events is not None:
            self.events.append((phase, node, port, marble, mass))
        self.emit(node, port, marble, phase)

    def fire(self, node: str, phase: int,
             ports: dict[str, list[int]]) -> None:
        """Fire ``node`` on the marbles parked at its ``ports``.  A marble
        on a port its kind never reads (possible only in a hand-built
        ``Circuit``) stays parked, so the run fails at its end."""
        kind = self.kinds[node]
        if kind is _JOIN:
            # Marbles leave in arrival order, which does not show: all reach
            # one port in one phase, contending there, or a join or a sink,
            # which keep no order that reaches ids, events or outputs.
            for marbles in ports.values():
                for marble in marbles:
                    self.emit(node, "out", marble, phase)
            return
        if kind is _JUNCTION:
            # A junction fires in the phase its marbles arrive, so what is
            # parked there arrived now, at most one marble per port.
            a = ports.pop("A", None)
            b = ports.pop("B", None)
            if a and b:
                self.collisions.append((phase, node))
                if self.config.mode is CollisionMode.BOUNCE:
                    self.emit(node, "O2", a[0], phase)
                    self.emit(node, "O4", b[0], phase)
                else:
                    self.emit_new(node, "O3", self.created[a[0]][2]
                                  + self.created[b[0]][2], phase)
            elif a:
                self.emit(node, "O5", a[0], phase)
            elif b:
                self.emit(node, "O1", b[0], phase)
        elif kind is _SCALPEL:
            for marble in ports.pop("in", ()):
                half = self.created[marble][2] / 2
                self.emit_new(node, "out1", half, phase)
                self.emit_new(node, "out2", half, phase)
        elif kind is _HOLD:
            for marble in ports.pop("in", ()):
                self.emit(node, "out", marble, phase)
        elif kind is _INPUT or kind is _CONST:
            self.emit_new(node, "out", _UNIT, phase)
        elif kind is _SYRINGE:
            if ports.pop("in", None) is None:
                self.emit_new(node, "out", _UNIT, phase)
        elif kind is _TAP:
            for marble in ports.pop("in", ()):
                self.emit(node, "out", marble, phase)
                self.emit_new(node, "copy", _UNIT, phase)
        if ports:
            self.stuck.update([(node, port) for port in ports])

    def run(self) -> tuple[tuple[int, ...], Trace, Ledger]:
        due, placed, faults = self.due, self.placed, self.faults
        fire = self.fire
        # Most phases have nothing to fire.
        for phase in range(self.last_phase + 1):
            nodes = due.pop(phase, None)
            if nodes:
                placed.clear()
                for node in sorted(nodes) if len(nodes) > 1 else nodes:
                    fire(node, phase, nodes[node])
                if faults:
                    *_, contended, _, text = min(faults)
                    raise (SimulationError if contended
                           else TimingViolationError)(text)
        if self.in_flight:
            raise SimulationError("marbles still in flight after the final "
                                  "phase")
        if self.stuck:
            parked = ", ".join(f"{node}.{port}"
                               for node, port in sorted(self.stuck))
            raise SimulationError("marbles still parked after the final "
                                  f"phase at {parked}")
        reached = {node for node, _ in self.final.values()}
        outputs = tuple(1 if name in reached else 0
                        for name in self.circuit.outputs)
        events = () if self.events is None else _as_events(self.events)
        trace = Trace(events, self.final, tuple(sorted(self.hazards)),
                      self.circuit, tuple(self.collisions))
        return outputs, trace, _ledger(self.created, self.final, self.kinds)


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
    if not isinstance(config.mode, CollisionMode):
        raise ValueError(f"mode must be a CollisionMode, got {config.mode!r}")
    return _Run(circuit, tuple(bits), config).run()
