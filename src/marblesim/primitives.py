"""The primitive trackside devices: one record per kind.

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

Each member of ``NodeKind`` records what its kind is: its ports, its
occupancy, whether it fires with no marble and how the ledger counts it.
What a kind does is stated once per evaluator, in its own terms:
``marblesim.sim`` moves marbles with their masses, one input vector at a
time, and ``marblesim.analysis`` routes presence masks over every input
vector at once for truth tables.  The kinds are bound to module names
here once, and the evaluators import them.
"""

from __future__ import annotations

import enum

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

# The kinds, bound once here for every module that compares them: a
# ``NodeKind.X`` lookup costs about ten times a module-level name.
(_INPUT, _CONST, _HOLD, _JUNCTION, _SCALPEL, _SYRINGE, _TAP, _JOIN, _OUTPUT,
 _WASTE) = (NodeKind.INPUT, NodeKind.CONST, NodeKind.HOLD, NodeKind.JUNCTION,
            NodeKind.SCALPEL, NodeKind.SYRINGE, NodeKind.TAP, NodeKind.JOIN,
            NodeKind.OUTPUT, NodeKind.WASTE)
