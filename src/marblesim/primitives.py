"""The primitive trackside devices: their records and their presence rule.

A bit is the presence or absence of a marble on a channel at a given phase.
Masses are exact rationals in units of one reference marble; merging adds
masses and the scalpel halves them, so every mass is p/q with q a power of
two.

The junction is the one interacting device.  Its two inputs A (left) and B
(right) cross, and its five output channels O1..O5 are numbered left to
right:

    (absent, absent)          nothing
    (absent, present)         B's marble leaves on O1
    (present, absent)         A's marble leaves on O5
    (present, present) bounce A's marble on O2, B's marble on O4
    (present, present) merge  one combined marble on O3

All other devices are passive or single-input: the scalpel halves a marble
onto two channels, the sensor+syringe emits a fresh marble exactly when its
input stays empty, the tap forwards its input and injects a copy, joins
funnel several channels into one, and holds park a marble for a set number
of phases.

Each evaluator states the devices' behaviour once, in its own terms:
``marblesim.sim`` moves marbles with their masses, one input vector at a
time, and ``_presence_route`` here says what every kind does to presence
masks, bit v of which stands for input vector v, so that truth tables can
evaluate all vectors at once.  Gate verification's physical check reads
the masks that pass leaves: per vector, it counts the scalpels a marble
reached and the junctions whose O3 mask says two marbles merged, so a
change to this rule changes both the tables and that count.  The kinds
are bound to module names here once, and the evaluators import them.
"""

from __future__ import annotations

import enum

from .physics import CollisionMode

__all__ = [
    "JOIN_PORT_PATTERN",
    "NodeKind",
]


class NodeKind(enum.Enum):
    """A primitive kind; its value is the netlist keyword.

    Each member carries its record: ``ins`` and ``outs``, its fixed ports
    (join inputs are in1..inN, N >= 2, matched by JOIN_PORT_PATTERN, and
    waste takes any number of channels on its one ``in``); ``single``, at
    most one marble per in port per phase; ``starts``, fires at its phase
    with no marble; ``role``, how the ledger counts it: the marbles it
    creates are ``"input"`` or ``"injected"``, those that end there
    ``"output"`` or ``"waste"``, and ``""`` is neither.
    """

    ins: tuple[str, ...]
    outs: tuple[str, ...]
    single: bool
    starts: bool
    role: str

    def __new__(cls, keyword: str, ins: tuple[str, ...],
                outs: tuple[str, ...], single: bool, starts: bool,
                role: str) -> NodeKind:
        member = object.__new__(cls)
        member._value_ = keyword
        member.ins, member.outs, member.single = ins, outs, single
        member.starts, member.role = starts, role
        return member

    INPUT = "input", (), ("out",), False, False, "input"
    CONST = "const1", (), ("out",), False, True, "injected"
    HOLD = "hold", ("in",), ("out",), True, False, ""
    JUNCTION = ("junction", ("A", "B"), ("O1", "O2", "O3", "O4", "O5"),
                True, False, "")
    SCALPEL = "scalpel", ("in",), ("out1", "out2"), True, False, ""
    SYRINGE = "sensor_syringe", ("in",), ("out",), True, True, "injected"
    TAP = "tap", ("in",), ("out", "copy"), True, False, "injected"
    JOIN = "join", (), ("out",), False, False, ""
    OUTPUT = "output", ("in",), (), False, False, "output"
    WASTE = "waste", ("in",), (), False, False, "waste"


JOIN_PORT_PATTERN = r"in[1-9][0-9]*"

# The kinds, bound once here for every module that compares them, and
# the mode the presence rule compares: a ``NodeKind.X`` lookup costs about
# ten times a module-level name.
(_INPUT, _CONST, _HOLD, _JUNCTION, _SCALPEL, _SYRINGE, _TAP, _JOIN, _OUTPUT,
 _WASTE) = (NodeKind.INPUT, NodeKind.CONST, NodeKind.HOLD, NodeKind.JUNCTION,
            NodeKind.SCALPEL, NodeKind.SYRINGE, NodeKind.TAP, NodeKind.JOIN,
            NodeKind.OUTPUT, NodeKind.WASTE)
_BOUNCE = CollisionMode.BOUNCE


# What a channel holds over many input vectors at once: bit v of ``one``
# is set when at least one marble is on it under vector v, bit v of
# ``two`` when at least two are.
_Presence = tuple[int, int]


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

