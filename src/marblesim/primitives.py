"""The primitive trackside devices and the junction rule.

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
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .physics import CollisionMode

__all__ = [
    "JOIN_PORT_PATTERN",
    "NodeKind",
    "junction_route",
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


def junction_route(a_present: bool, b_present: bool, mode: CollisionMode,
                   a_mass: Fraction = Fraction(1),
                   b_mass: Fraction = Fraction(1)
                   ) -> tuple[tuple[str, Fraction], ...]:
    """Route one junction firing to its occupied ``(port, mass)`` pairs,
    ports in O1..O5 order.

    Lone marbles cross (A alone exits rightmost on O5, B alone leftmost on
    O1).  A collision either bounces (left marble to O2, right to O4, masses
    kept) or merges into a single marble on O3 with the summed mass.  Total
    mass out always equals total mass in.
    """
    if a_present and a_mass <= 0:
        raise ValueError(f"present A marble needs positive mass, got {a_mass}")
    if b_present and b_mass <= 0:
        raise ValueError(f"present B marble needs positive mass, got {b_mass}")
    if not a_present and not b_present:
        return ()
    if a_present and not b_present:
        return (("O5", Fraction(a_mass)),)
    if b_present and not a_present:
        return (("O1", Fraction(b_mass)),)
    if mode is CollisionMode.BOUNCE:
        return (("O2", Fraction(a_mass)), ("O4", Fraction(b_mass)))
    return (("O3", Fraction(a_mass) + Fraction(b_mass)),)

