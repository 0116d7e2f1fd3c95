"""The built-in gate macro library.

Every macro is written in the netlist language itself and inlined by the
elaborator; the reference Boolean functions used for verification are plain
Python and share nothing with the netlists.  Routing summary (junction
outputs numbered O1..O5 left to right):

    AND              collision products kept (O4, or the first half of the
                     split merged marble); lone marbles wasted
    OR               everything except O2 and the second half kept
    XOR              lone-marble exits O1/O5 kept; collision products wasted
    NOT_SYRINGE      sensor plus syringe: emits exactly on absence
    NOT_INTERACTION  const marble crosses to O1 unless the input deflects it
    NAND             AND chained into NOT_INTERACTION
    NOR_CHAINED      OR chained into NOT_INTERACTION
    NOR_ALT          one const marble threaded through two junctions; any
                     input collides it away
    TOFFOLI          taps copy the controls; AND then XOR compute the target
    FREDKIN_CHAINED  multiplexer identity over AND/OR/NOT with tap fanout
    FREDKIN_DIRECT   two junctions and two scalpels, no taps or syringes;
                     fully routed, nothing wasted
    HALF_ADDER       sum from the crossing exits, carry from the collision
    FULL_ADDER       two half adders plus an OR of the carries

Macro names are reserved words: a netlist cannot declare a node or gate with
one of these names.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Callable, NamedTuple

from .errors import MarblesimError
from .netlist import CircuitAst, parse

__all__ = [
    "GateMacro",
    "UnknownGateError",
    "boolean_spec",
    "library",
    "library_map",
]


class UnknownGateError(MarblesimError):
    """Requested macro is not in the library."""


class GateMacro(NamedTuple):
    """One library gate: its expansion plus verification metadata.  Its
    ports are its expansion's circuit inputs and outputs."""

    name: str
    expansion: CircuitAst
    spec_fn: Callable[[tuple[int, ...]], tuple[int, ...]]
    reversible_claim: bool
    conservative_claim: bool

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.expansion.inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.expansion.outputs


_AND = """
circuit and_gate
input a, b
output y
node J : junction
node S : scalpel
node M : join
node W : waste
connect a -> J.A
connect b -> J.B
connect J.O3 -> S.in
connect S.out1 -> M.in1
connect J.O4 -> M.in2
connect M.out -> y
connect J.O1 -> W.in
connect J.O2 -> W.in
connect J.O5 -> W.in
connect S.out2 -> W.in
"""

_XOR = """
circuit xor_gate
input a, b
output y
node J : junction
node M : join
node W : waste
connect a -> J.A
connect b -> J.B
connect J.O1 -> M.in1
connect J.O5 -> M.in2
connect M.out -> y
connect J.O2 -> W.in
connect J.O3 -> W.in
connect J.O4 -> W.in
"""

_OR = """
circuit or_gate
input a, b
output y
node J : junction
node S : scalpel
node M : join
node W : waste
connect a -> J.A
connect b -> J.B
connect J.O3 -> S.in
connect J.O1 -> M.in1
connect J.O4 -> M.in2
connect J.O5 -> M.in3
connect S.out1 -> M.in4
connect M.out -> y
connect J.O2 -> W.in
connect S.out2 -> W.in
"""

_NOT_SYRINGE = """
circuit not_syringe
input a
output y
node N : sensor_syringe
connect a -> N.in
connect N.out -> y
"""

# O5 is unreachable (the const marble always occupies B) but every declared
# port must be wired, so it drains to waste like the collision products.
_NOT_INTERACTION = """
circuit not_interaction
input a
output y
node C : const1
node J : junction
node W : waste
connect a -> J.A
connect C.out -> J.B
connect J.O1 -> y
connect J.O2 -> W.in
connect J.O3 -> W.in
connect J.O4 -> W.in
connect J.O5 -> W.in
"""

_NAND = """
circuit nand_gate
input a, b
output y
gate G1 : AND
gate G2 : NOT_INTERACTION
connect a -> G1.a
connect b -> G1.b
connect G1.y -> G2.a
connect G2.y -> y
"""

_NOR_CHAINED = """
circuit nor_chained
input a, b
output y
gate G1 : OR
gate G2 : NOT_INTERACTION
connect a -> G1.a
connect b -> G1.b
connect G1.y -> G2.a
connect G2.y -> y
"""

# The const marble survives K1 only when a is absent, then survives K2 only
# when b is absent; its O1 exit is the output.  Lone data marbles cross to
# the far side of their junction and drain to waste.
_NOR_ALT = """
circuit nor_alt
input a, b
output y
node C : const1
node K1 : junction
node K2 : junction
node W : waste
connect a -> K1.A
connect C.out -> K1.B
connect K1.O1 -> K2.B
connect b -> K2.A
connect K2.O1 -> y
connect K1.O2 -> W.in
connect K1.O3 -> W.in
connect K1.O4 -> W.in
connect K1.O5 -> W.in
connect K2.O2 -> W.in
connect K2.O3 -> W.in
connect K2.O4 -> W.in
connect K2.O5 -> W.in
"""

_TOFFOLI = """
circuit toffoli_gate
input c, x1, x2
output y, g1, g2
node T1 : tap
node T2 : tap
gate A : AND
gate X : XOR
connect c -> T1.in
connect x1 -> T2.in
connect T1.out -> A.a
connect T2.out -> A.b
connect T1.copy -> y
connect T2.copy -> g1
connect A.y -> X.a
connect x2 -> X.b
connect X.y -> g2
"""

_FREDKIN_CHAINED = """
circuit fredkin_chained
input u, x1, x2
output v, y1, y2
node T1 : tap
node T2 : tap
node T3 : tap
node TN : tap
node TX1 : tap
node TX2 : tap
gate N : NOT_INTERACTION
gate A1 : AND
gate A2 : AND
gate A3 : AND
gate A4 : AND
gate R1 : OR
gate R2 : OR
connect u -> T1.in
connect T1.out -> T2.in
connect T2.out -> T3.in
connect T3.out -> N.a
connect T1.copy -> A1.a
connect T2.copy -> A3.a
connect T3.copy -> v
connect N.y -> TN.in
connect TN.out -> A2.a
connect TN.copy -> A4.a
connect x1 -> TX1.in
connect TX1.out -> A1.b
connect TX1.copy -> A4.b
connect x2 -> TX2.in
connect TX2.out -> A2.b
connect TX2.copy -> A3.b
connect A1.y -> R1.a
connect A2.y -> R1.b
connect R1.y -> y1
connect A3.y -> R2.a
connect A4.y -> R2.b
connect R2.y -> y2
"""

# Fully routed: every junction exit reaches an output or the next junction,
# both scalpel halves are used, and the circuit holds no waste sinks, taps,
# syringes or const sources.  The control marble u crosses J1 to O5 when
# alone; x1 alone crosses to O1 and diverts straight to y2.
_FREDKIN_DIRECT = """
circuit fredkin_direct
input u, x1, x2
output v, y1, y2
node J1 : junction
node S1 : scalpel
node J2 : junction
node S2 : scalpel
node M : join
node MV : join
node MY1 : join
node MY2 : join
connect u -> J1.A
connect x1 -> J1.B
connect J1.O1 -> MY2.in1
connect J1.O2 -> MY1.in1
connect J1.O3 -> S1.in
connect S1.out1 -> MY1.in2
connect S1.out2 -> M.in1
connect J1.O4 -> M.in2
connect J1.O5 -> M.in3
connect M.out -> J2.A
connect x2 -> J2.B
connect J2.O1 -> MY1.in3
connect J2.O2 -> MV.in1
connect J2.O3 -> S2.in
connect S2.out1 -> MV.in2
connect S2.out2 -> MY2.in2
connect J2.O4 -> MY2.in3
connect J2.O5 -> MV.in3
connect MV.out -> v
connect MY1.out -> y1
connect MY2.out -> y2
"""

_HALF_ADDER = """
circuit half_adder
input a, b
output sum, carry
node J : junction
node S : scalpel
node MS : join
node MC : join
node W : waste
connect a -> J.A
connect b -> J.B
connect J.O1 -> MS.in1
connect J.O5 -> MS.in2
connect MS.out -> sum
connect J.O3 -> S.in
connect S.out1 -> MC.in1
connect J.O4 -> MC.in2
connect MC.out -> carry
connect J.O2 -> W.in
connect S.out2 -> W.in
"""

_FULL_ADDER = """
circuit full_adder
input a, b, cin
output sum, cout
gate H1 : HALF_ADDER
gate H2 : HALF_ADDER
gate R : OR
connect a -> H1.a
connect b -> H1.b
connect H1.sum -> H2.a
connect cin -> H2.b
connect H2.sum -> sum
connect H1.carry -> R.a
connect H2.carry -> R.b
connect R.y -> cout
"""


def _spec_and(bits):
    a, b = bits
    return (a & b,)


def _spec_or(bits):
    a, b = bits
    return (a | b,)


def _spec_xor(bits):
    a, b = bits
    return (a ^ b,)


def _spec_not(bits):
    (a,) = bits
    return (1 - a,)


def _spec_nand(bits):
    a, b = bits
    return (1 - (a & b),)


def _spec_nor(bits):
    a, b = bits
    return (1 - (a | b),)


def _spec_toffoli(bits):
    c, x1, x2 = bits
    return (c, x1, (c & x1) ^ x2)


def _spec_fredkin(bits):
    u, x1, x2 = bits
    return (u, x1 if u else x2, x2 if u else x1)


def _spec_half_adder(bits):
    a, b = bits
    return (a ^ b, a & b)


def _spec_full_adder(bits):
    total = sum(bits)
    return (total & 1, total >> 1)


# name -> (source, spec_fn, reversible_claim, conservative_claim)
_DEFS: dict[str, tuple[str, Callable, bool, bool]] = {
    "AND": (_AND, _spec_and, False, False),
    "XOR": (_XOR, _spec_xor, False, False),
    "OR": (_OR, _spec_or, False, False),
    "NOT_SYRINGE": (_NOT_SYRINGE, _spec_not, True, False),
    "NOT_INTERACTION": (_NOT_INTERACTION, _spec_not, True, False),
    "NAND": (_NAND, _spec_nand, False, False),
    "NOR_CHAINED": (_NOR_CHAINED, _spec_nor, False, False),
    "NOR_ALT": (_NOR_ALT, _spec_nor, False, False),
    "TOFFOLI": (_TOFFOLI, _spec_toffoli, True, False),
    "FREDKIN_CHAINED": (_FREDKIN_CHAINED, _spec_fredkin, True, True),
    "FREDKIN_DIRECT": (_FREDKIN_DIRECT, _spec_fredkin, True, True),
    "HALF_ADDER": (_HALF_ADDER, _spec_half_adder, False, False),
    "FULL_ADDER": (_FULL_ADDER, _spec_full_adder, False, False),
}

@cache
def library_map() -> MappingProxyType[str, GateMacro]:
    """The built-in macros keyed by name, built once and read only."""
    return MappingProxyType({name: GateMacro(name, parse(source), *rest)
                             for name, (source, *rest) in _DEFS.items()})


def library() -> tuple[GateMacro, ...]:
    """All built-in macros in a stable order."""
    return tuple(library_map()[name] for name in sorted(_DEFS))


def get_macro(name: str) -> GateMacro:
    macro = library_map().get(name)
    if macro is None:
        raise UnknownGateError(f"unknown gate macro {name!r}")
    return macro


def boolean_spec(name: str, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Reference Boolean function of a library gate.

    Independent of the netlists: used as the oracle the simulated tables are
    checked against.  Raises :class:`UnknownGateError` for unknown names and
    ValueError on arity mismatch or non-bit values.
    """
    macro = get_macro(name)
    if len(bits) != len(macro.inputs):
        raise ValueError(f"{name} takes {len(macro.inputs)} inputs, "
                         f"got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"inputs must be bits, got {bits!r}")
    return tuple(macro.spec_fn(tuple(bits)))
