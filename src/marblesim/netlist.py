"""The marble netlist language: parsing, validation, macro elaboration.

A netlist is line oriented; '#' starts a comment and blank lines are
ignored.  Statements:

    circuit <ident>
    input <ident> [, <ident>...]
    output <ident> [, <ident>...]
    node <ident>[.<ident>...] : junction | scalpel | hold(<k>) | const1
                              | sensor_syringe | tap | join | waste
    gate <ident> : <macro-name>
    connect <endpoint> -> <endpoint>

An endpoint is a circuit input/output name written bare, or
``<name>.<port>`` for a node or gate instance, split at its last dot.
Dotted node names are what elaboration writes, so an elaborated circuit
prints and parses back.  Junction ports are A, B and
O1..O5 (left to right); scalpels expose in/out1/out2; taps in/out/copy;
sensor_syringes and holds in/out; joins in1..inN/out; waste a single n-ary
in.  Every declared port must be wired: non-sink output ports carry exactly
one channel, input ports receive exactly one (waste accepts any number).

Elaboration validates and flattens each macro body into a stamping
template (its nodes, the channels wholly inside it and those at its ports)
once per call, or once per process for the read-only built-in library.
Every instance stamps the template under its ``instance.`` prefix straight
into final records, and only the channels through its ports are spliced to
the channels around it.  One topological sort (``_toposort``) orders the
flat circuit, and one forward pass over that order gives each node its
firing phase, the longest path from the inputs.  A junction whose two
feed paths differ in depth gets a hold on the shallower side, so both
marbles reach it on the same phase.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import MarblesimError
from .primitives import (_HOLD, _INPUT, _JOIN, _JUNCTION, _OUTPUT, _SYRINGE,
                         _WASTE, JOIN_PORT_PATTERN, NodeKind)

__all__ = [
    "Channel",
    "Circuit",
    "CircuitAst",
    "Diagnostic",
    "ElaborationError",
    "GateDecl",
    "NodeDecl",
    "ParseError",
    "circuit_to_ast",
    "elaborate",
    "parse",
    "print_canonical",
    "validate",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# Node names may be dotted (elaboration writes ``instance.node`` and
# ``junction.port.sync``); ports never are, so an endpoint splits at its
# last dot.
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*\Z")
_KEYWORD = re.compile(r"\s*[^\s#]+")
_HOLD_ARG = re.compile(r"hold\s*\(\s*([0-9]+)\s*\)\Z")
_JOIN_IN = re.compile(JOIN_PORT_PATTERN + r"\Z")

# Kinds a node statement names by keyword alone: inputs and outputs are
# declared by their own statements, and a hold needs its phase count.
_KIND_KEYWORDS = {kind.value: kind for kind in NodeKind
                  if kind not in (_INPUT, _OUTPUT, _HOLD)}
# What validate records for a circuit input and a circuit output.
_INPUT_DECL = (_INPUT, None, _INPUT.ins, _INPUT.outs)
_OUTPUT_DECL = (_OUTPUT, None, _OUTPUT.ins, _OUTPUT.outs)


class ParseError(MarblesimError):
    """Netlist text that does not parse; carries the source position."""

    def __init__(self, message: str, line: int, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")


class ElaborationError(MarblesimError):
    """Elaboration failed; carries the validator diagnostics if any."""

    def __init__(self, message: str, diagnostics: tuple = ()):  # type: ignore[type-arg]
        self.diagnostics = tuple(diagnostics)
        if self.diagnostics:
            detail = "; ".join(d.message for d in self.diagnostics)
            message = f"{message}: {detail}"
        super().__init__(message)


# Plain value records are NamedTuples, which define several times faster
# than dataclasses and so cut every command's import; those that derive
# state or compare whatever their order stay dataclasses.

class Diagnostic(NamedTuple):
    severity: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        prefix = f"line {self.line}: " if self.line else ""
        return f"{self.severity}: {prefix}{self.message}"


# A declaration's source line says where it came from, not what it is, so
# it is the last field and takes no part in equality or hashing: a record
# equals only a record of its own class that matches it in every other
# field, never a plain tuple, which hashes its last item too.  Tuple's own
# ``__ne__`` would compare the line, so it is replaced too.  Elaboration
# builds these records by the thousand with ``tuple.__new__``, which skips
# the named tuple's Python-level ``__new__``.

def _same(self, other: object) -> bool:
    return type(other) is type(self) and self[:-1] == other[:-1]


def _differ(self, other: object) -> bool:
    return not _same(self, other)


def _hash(self) -> int:
    return hash(self[:-1])


class NodeDecl(NamedTuple):
    name: str
    kind: NodeKind
    hold_phases: int = 0
    line: int = 0

    __eq__, __ne__, __hash__ = _same, _differ, _hash


class GateDecl(NamedTuple):
    name: str
    macro: str
    line: int = 0

    __eq__, __ne__, __hash__ = _same, _differ, _hash


class Channel(NamedTuple):
    """One directed channel between two ports."""

    src: str
    src_port: str
    dst: str
    dst_port: str
    line: int = 0

    __eq__, __ne__, __hash__ = _same, _differ, _hash


_new = tuple.__new__
# Sort keys, cheaper than reading a named tuple's field by name.
_SOURCE, _SOURCE_PORT = itemgetter(0), itemgetter(1)


# Equal whatever its node and channel order, unlike a tuple.
@dataclass(eq=False, frozen=True)
class CircuitAst:
    """Parsed netlist.  Node and channel order is not semantic; input and
    output declaration order is (it fixes the bit-vector layout)."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    nodes: tuple[NodeDecl, ...] = ()
    gates: tuple[GateDecl, ...] = ()
    channels: tuple[Channel, ...] = ()

    def canonical_key(self):
        return (
            self.name, self.inputs, self.outputs,
            frozenset(self.nodes), frozenset(self.gates),
            frozenset(self.channels),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircuitAst):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())


# Derives tables from its fields on first use, which a tuple cannot hold.
@dataclass(eq=True, frozen=True)
class Circuit:
    """Elaborated, primitive-only circuit with a firing phase per node.

    ``nodes`` holds every node by name, circuit inputs and outputs included
    as nodes of kind INPUT and OUTPUT.  Nodes and channels keep the source
    line of the statement they came from (0 for none).

    Every table derived from the fields is built on first use and kept
    outside equality: those a run reads (``max_phase``, the channel leaving
    each out port, each node's kind and the nodes that start on their own)
    and ``_mask_order``, what :mod:`marblesim.analysis` compiles for the
    truth table's mask pass.  Its fields cannot be rebound, but an edit of
    ``nodes`` or ``phases`` in place can leave those tables stale, so
    mutate no ``Circuit``.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    nodes: dict[str, NodeDecl]
    channels: tuple[Channel, ...]
    phases: dict[str, int]

    @cached_property
    def max_phase(self) -> int:
        return max(self.phases.values(), default=0)

    @cached_property
    def _out(self) -> dict[tuple[str, str], Channel]:
        return {ch[:2]: ch for ch in self.channels}

    @cached_property
    def _kinds(self) -> dict[str, NodeKind]:
        return {name: node.kind for name, node in self.nodes.items()}

    @cached_property
    def _starts(self) -> tuple[str, ...]:
        return tuple(name for name, kind in self._kinds.items() if kind.starts)

    @cached_property
    def _mask_order(self) -> tuple | None:
        """The truth table's mask pass order, ``analysis._compile``'s."""
        from .analysis import _compile
        return _compile(self)


def _split_statement(raw: str) -> str:
    return raw.split("#", 1)[0].rstrip()


def _col_of(raw: str, token: str, *marks: str) -> int | None:
    """``token``'s column, found after the statement's keyword and then
    after each of ``marks`` (``:``, ``->`` or a list's earlier commas)."""
    start = _KEYWORD.match(raw).end()
    for mark in marks:
        start = raw.index(mark, start) + len(mark)
    pos = raw.find(token, start)
    return pos + 1 if pos >= 0 else None


def _parse_node_kind(spec: str, lineno: int, raw: str) -> tuple[NodeKind, int]:
    spec = spec.strip()
    m = _HOLD_ARG.fullmatch(spec)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ParseError("hold phase count must be at least 1", lineno,
                             _col_of(raw, m.group(1), ":"))
        return _HOLD, k
    if spec == "hold":
        raise ParseError("hold requires a phase count, e.g. hold(2)", lineno,
                         _col_of(raw, "hold", ":"))
    if spec in _KIND_KEYWORDS:
        return _KIND_KEYWORDS[spec], 0
    raise ParseError(f"unknown node kind {spec!r}", lineno,
                     _col_of(raw, spec.split("(")[0], ":"))


def parse(text: str) -> CircuitAst:
    """Parse netlist text into an AST.

    Connect statements may appear anywhere relative to the declarations they
    reference.  Raises :class:`ParseError` with line (and column where
    determinable) on the first problem found.
    """
    lines = text.splitlines()
    circuit_name: str | None = None
    inputs: list[str] = []
    outputs: list[str] = []
    nodes: list[NodeDecl] = []
    gates: list[GateDecl] = []
    declared: dict[str, tuple[str, int]] = {}  # name -> (category, line)

    def declare(name: str, category: str, lineno: int, raw: str,
                commas: int = 0) -> None:
        pattern = _DOTTED if category == "node" else _IDENT
        if not pattern.fullmatch(name):
            message = f"invalid identifier {name!r}"
        elif name in declared:
            message = ("duplicate name {!r} (already declared as {} on "
                       "line {})".format(name, *declared[name]))
        else:
            declared[name] = (category, lineno)
            return
        raise ParseError(message, lineno, _col_of(raw, name, *[","] * commas))

    connect_stmts: list[tuple[int, str, str]] = []  # (line, raw, rest)

    for lineno, raw in enumerate(lines, start=1):
        stmt = _split_statement(raw)
        if not stmt.strip():
            continue
        keyword, *tail = stmt.split(None, 1)
        rest = tail[0].strip() if tail else ""
        if circuit_name is None and keyword != "circuit":
            raise ParseError("netlist must start with a circuit declaration",
                             lineno)
        if keyword == "circuit":
            if circuit_name is not None:
                raise ParseError("duplicate circuit declaration", lineno)
            if not _IDENT.fullmatch(rest):
                raise ParseError(f"invalid circuit name {rest!r}", lineno,
                                 _col_of(raw, rest) if rest else None)
            circuit_name = rest
        elif keyword in ("input", "output"):
            if not rest:
                raise ParseError(f"{keyword} needs at least one name", lineno)
            for commas, name in enumerate(map(str.strip, rest.split(","))):
                declare(name, keyword, lineno, raw, commas)
                (inputs if keyword == "input" else outputs).append(name)
        elif keyword == "node":
            name, colon, spec = rest.partition(":")
            name = name.strip()
            if not colon:
                raise ParseError("expected ':' after node name", lineno)
            declare(name, "node", lineno, raw)
            kind, hold_phases = _parse_node_kind(spec, lineno, raw)
            nodes.append(_new(NodeDecl, (name, kind, hold_phases, lineno)))
        elif keyword == "gate":
            name, colon, macro = rest.partition(":")
            name = name.strip()
            macro = macro.strip()
            if not colon:
                raise ParseError("expected ':' after gate name", lineno)
            declare(name, "gate", lineno, raw)
            if not _IDENT.fullmatch(macro):
                raise ParseError(f"invalid macro name {macro!r}", lineno,
                                 _col_of(raw, macro, ":") if macro else None)
            gates.append(_new(GateDecl, (name, macro, lineno)))
        elif keyword == "connect":
            connect_stmts.append((lineno, raw, rest))
        else:
            raise ParseError(f"unknown statement {keyword!r}", lineno,
                             len(raw) - len(raw.lstrip()) + 1)

    if circuit_name is None:
        raise ParseError("missing circuit declaration", len(lines) or 1)

    def endpoint(text_ep: str, lineno: int, raw: str, side: str,
                 *marks: str) -> tuple[str, str]:
        if not _DOTTED.fullmatch(text_ep):
            raise ParseError(f"malformed endpoint {text_ep!r}", lineno,
                             _col_of(raw, text_ep, *marks))
        name, dot, port = text_ep.rpartition(".")
        if not dot:
            name, port = port, None
        if name not in declared:
            raise ParseError(f"unknown name {name!r}", lineno,
                             _col_of(raw, name, *marks))
        category = declared[name][0]
        if category in ("input", "output"):
            if port is not None:
                raise ParseError(
                    f"{category} {name!r} is referenced bare, without a port",
                    lineno, _col_of(raw, text_ep, *marks))
            return name, "out" if category == "input" else "in"
        if port is None:
            raise ParseError(f"{category} {name!r} needs a port on the "
                             f"{side} side", lineno,
                             _col_of(raw, text_ep, *marks))
        return name, port

    channels: list[Channel] = []
    for lineno, raw, rest in connect_stmts:
        left, arrow, right = rest.partition("->")
        if not arrow:
            raise ParseError("expected '->' between endpoints", lineno,
                             _col_of(raw, rest) if rest else None)
        left = left.strip()
        right = right.strip()
        if not left:
            raise ParseError("expected endpoint before '->'", lineno,
                             _col_of(raw, "->"))
        if not right:
            col = _col_of(raw, "->")
            raise ParseError("expected endpoint after '->'", lineno,
                             (col + 2) if col else None)
        src, src_port = endpoint(left, lineno, raw, "source")
        dst, dst_port = endpoint(right, lineno, raw, "destination", "->")
        channels.append(_new(Channel, (src, src_port, dst, dst_port, lineno)))

    return CircuitAst(circuit_name, tuple(inputs), tuple(outputs),
                      tuple(nodes), tuple(gates), tuple(channels))


def print_canonical(ast: CircuitAst) -> str:
    """Render an AST in canonical form.

    Comments and layout are dropped, node and gate declarations are sorted
    by name, connect lines lexicographically; parsing the result yields a
    structurally identical AST.
    """
    out: list[str] = [f"circuit {ast.name}"]
    if ast.inputs:
        out.append("input " + ", ".join(ast.inputs))
    if ast.outputs:
        out.append("output " + ", ".join(ast.outputs))
    for nd in sorted(ast.nodes, key=lambda n: n.name):
        kind = (f"hold({nd.hold_phases})" if nd.kind is _HOLD
                else nd.kind.value)
        out.append(f"node {nd.name} : {kind}")
    for gd in sorted(ast.gates, key=lambda g: g.name):
        out.append(f"gate {gd.name} : {gd.macro}")
    bare = {*ast.inputs, *ast.outputs}

    def endpoint(name: str, port: str) -> str:
        return name if name in bare else f"{name}.{port}"

    connect_lines = sorted(
        f"connect {endpoint(ch.src, ch.src_port)} -> "
        f"{endpoint(ch.dst, ch.dst_port)}"
        for ch in ast.channels)
    out.extend(connect_lines)
    return "\n".join(out) + "\n"


def _default_library() -> Mapping:
    from .gates import library_map
    return library_map()


def validate(ast: CircuitAst, library: Mapping | None = None
             ) -> list[Diagnostic]:
    """Structural checks: unique names, port names, arity, connectivity,
    acyclicity.

    Returns an empty list exactly when the netlist is well formed, and
    reports each wiring mistake once.  Gate instance ports are checked
    against ``library`` (the built-in macro library by default).
    """
    lib = _default_library() if library is None else library
    diags: list[Diagnostic] = []

    def err(message: str, line: int | None = None) -> None:
        # A code-built declaration's line 0, like a missing one, is None.
        diags.append(Diagnostic("error", message, line or None))

    def named(pattern: re.Pattern, name: str, line: int | None = None) -> None:
        # The name rule parse applies, so what validates prints back.
        if not pattern.fullmatch(name):
            err(f"invalid identifier {name!r}", line)

    # Each name's kind (None for a gate instance), line, in ports and out
    # ports (None for an unknown macro's instance).  Circuit inputs and
    # outputs are INPUT and OUTPUT nodes without a line, as in a Circuit.
    # The first declaration of a name counts; later ones are reported.
    decls: dict[str, tuple[NodeKind | None, int | None,
                           tuple[str, ...] | None,
                           tuple[str, ...] | None]] = {}

    def duplicate(name: str, line: int | None) -> None:
        prev, on = decls[name][:2]
        what = ("gate" if prev is None else
                prev.value if prev in (_INPUT, _OUTPUT) else "node")
        err(f"duplicate name {name!r} (already declared as {what}"
            f"{f' on line {on}' if on else ''})", line)

    if not _IDENT.fullmatch(ast.name):
        err(f"invalid circuit name {ast.name!r}")
    for names, decl in ((ast.inputs, _INPUT_DECL),
                        (ast.outputs, _OUTPUT_DECL)):
        for name in names:
            named(_IDENT, name)
            if name in decls:
                duplicate(name, None)
            else:
                decls[name] = decl
    for name, kind, hold_phases, line in ast.nodes:
        named(_DOTTED, name, line)
        if kind is _HOLD:
            if hold_phases < 1:
                err(f"node {name!r}: hold phase count must be at least 1",
                    line)
        else:
            if kind is _INPUT or kind is _OUTPUT:
                # Only an AST built in code holds one: such a node never
                # emits, and its printed form does not parse.
                err(f"node {name!r} cannot be of kind {kind.value}; "
                    f"declare it on the {kind.value} line", line)
            if hold_phases:
                # print_canonical writes a phase count for a hold only.
                err(f"node {name!r}: only a hold takes a phase count", line)
        if name in decls:
            duplicate(name, line)
        else:
            decls[name] = (kind, line, kind.ins, kind.outs)
    gates = []
    for gd in ast.gates:
        named(_IDENT, gd.name, gd.line)
        if gd.name in decls:
            duplicate(gd.name, gd.line)
            continue
        macro = lib.get(gd.macro)
        decls[gd.name] = ((None, gd.line, macro.inputs, macro.outputs)
                          if macro else (None, gd.line, None, None))
        gates.append(gd)

    if not lib.keys().isdisjoint(decls):
        for name in decls:
            if name in lib:
                err(f"name {name!r} is reserved (gate macro)")
    for gd in gates:
        if not _IDENT.fullmatch(gd.macro):
            err(f"invalid macro name {gd.macro!r}", gd.line)
        elif gd.macro not in lib:
            err(f"unknown gate macro {gd.macro!r}", gd.line)

    def unknown_port(name: str, port: str, kind: NodeKind | None,
                     side: str, ports: tuple[str, ...], line: int) -> None:
        err(f"unknown port {name}.{port} "
            f"({'macro' if kind is None else kind.value} {side}: "
            f"{', '.join(ports) or 'none'})", line)

    # Channels into and out of each port, by name, then port, for the names
    # that have any.
    fed: dict[str, dict[str, int]] = {}
    left: dict[str, dict[str, int]] = {}
    # The first channel of each (src, src_port, dst, dst_port).
    seen: dict[tuple[str, str, str, str], Channel] = {}
    for ch in ast.channels:
        src, src_port, dst, dst_port = key = ch[:4]
        src_decl, dst_decl = decls.get(src), decls.get(dst)
        if src_decl is None or dst_decl is None:
            err(f"unknown name {src if src_decl is None else dst!r}",
                ch.line)
            continue
        if key in seen:
            first = seen[key].line
            err(f"duplicate channel {src}.{src_port} -> {dst}.{dst_port}"
                f"{f' (first on line {first})' if first else ''}", ch.line)
            continue
        seen[key] = ch
        # A bare circuit input or output stands for its one port.
        kind, _, _, outs = src_decl
        if kind is _OUTPUT:
            err(f"cannot connect from circuit output {src!r}", ch.line)
        elif (kind is not _INPUT and outs is not None
              and src_port not in outs):
            unknown_port(src, src_port, kind, "outputs", outs, ch.line)
        uses = left.get(src)
        if uses is None:
            left[src] = {src_port: 1}
        else:
            uses[src_port] = uses.get(src_port, 0) + 1
        kind, _, ins, _ = dst_decl
        if kind is _INPUT:
            err(f"cannot connect into circuit input {dst!r}", ch.line)
        elif kind is _JOIN:
            if not _JOIN_IN.fullmatch(dst_port):
                err(f"unknown port {dst}.{dst_port} "
                    f"(join inputs are in1..inN)", ch.line)
        elif (kind is not _OUTPUT and ins is not None
              and dst_port not in ins):
            unknown_port(dst, dst_port, kind, "inputs", ins, ch.line)
        uses = fed.get(dst)
        if uses is None:
            fed[dst] = {dst_port: 1}
        else:
            uses[dst_port] = uses.get(dst_port, 0) + 1

    def need_one(name: str, kind: NodeKind | None, line: int | None,
                 ports: Iterable[str], uses: dict[str, int],
                 verb: str) -> None:
        """Exactly one channel must ``verb`` each of ``ports``."""
        for port in ports:
            n = uses.get(port, 0)
            if n == 1:
                continue
            bare = kind in (_INPUT, _OUTPUT)
            what = (f"circuit {kind.value} {name!r}" if bare
                    else f"{name}.{port}")
            err(f"multiple channels {verb} {what}" if n else
                f"unconnected {'' if bare else 'port '}{what}", line)

    no_uses: dict[str, int] = {}
    for name, (kind, line, ins, outs) in decls.items():
        into, out_of = fed.get(name, no_uses), left.get(name, no_uses)
        if kind is None:  # a gate instance reports its inputs first
            need_one(name, kind, line, ins or (), into, "into")
        # Most ports have one channel each: check them here and leave
        # need_one the reports.
        for port in outs or ():
            if out_of.get(port) != 1:
                need_one(name, kind, line, outs, out_of, "leave")
                break
        if kind is _WASTE:
            if "in" not in into:
                err(f"unconnected port {name}.in", line)
        elif kind is _JOIN:
            # Each fed port counts as an input; one that is not inN was
            # reported above and takes no part in the contiguity check.
            need_one(name, kind, line, into, into, "into")
            numbered = sorted(int(port[2:]) for port in into
                              if _JOIN_IN.fullmatch(port))
            if len(into) < 2:
                err(f"join {name} needs at least two inputs", line)
            elif len(numbered) > 1 and numbered[-1] != len(numbered):
                missing = set(range(1, len(numbered) + 1)).difference(numbered)
                err(f"join {name} input ports must be contiguous "
                    f"in1..in{len(numbered)} (missing "
                    f"{', '.join('in%d' % i for i in sorted(missing))})", line)
        elif kind is not None:
            for port in ins:
                if into.get(port) != 1:
                    need_one(name, kind, line, ins, into, "into")
                    break

    # Acyclicity over the name-level graph (gate instances are opaque).
    order, _ = _toposort(decls, seen.values())
    if len(order) != len(decls):
        err("cycle detected involving: " + ", ".join(
            _cycle(set(decls).difference(order), seen.values())))

    return diags


class _Template(NamedTuple):
    """A flattened macro body, ready to stamp and kept as ``elaborate`` says.

    Its nodes are numbered in the order the body declares them, nested
    bodies in place, so the first name an instance finds taken is the
    clash it reports.  ``inner`` holds each channel between two of them as
    ``(src, src_port, dst, dst_port)`` with node numbers for names.
    ``enter`` maps each in port to the node and port its channel feeds, or
    to ``None`` and the out port it passes straight to; ``leave`` maps each
    out port to the node and port that feed it.
    """

    names: tuple[str, ...]
    kinds: tuple[NodeKind, ...]
    holds: tuple[int, ...]
    inner: tuple[tuple[int, str, int, str], ...]
    enter: dict[str, tuple[int | None, str]]
    leave: dict[str, tuple[int, str]]


# Kept per process: the built-in library's templates and validated bodies.
_BUILTIN_BODIES: dict[str, _Template] = {}
_VALIDATED: dict[int, CircuitAst] = {}  # by id, which the AST keeps unused


def _check(ast: CircuitAst, lib: Mapping, bodies: dict, what: str) -> None:
    """Raise unless ``ast`` validates against ``lib``.  With the built-in
    library's ``bodies``, a built-in body is validated once per process."""
    shared = bodies is _BUILTIN_BODIES
    if shared and _VALIDATED.get(id(ast)) is ast:
        return
    diags = validate(ast, lib)
    if diags:
        raise ElaborationError(what, tuple(diags))
    if shared and any(ast is macro.expansion for macro in lib.values()):
        _VALIDATED[id(ast)] = ast


def _template(macro: str, lib: Mapping, bodies: dict[str, _Template],
              active: list[str]) -> _Template:
    """Validate and flatten the expansion of ``macro`` into its template,
    kept in ``bodies``.  ``active`` is the chain of macros being flattened,
    so a macro that reaches itself is reported by its chain."""
    if macro in active:
        chain = active[active.index(macro):] + [macro]
        raise ElaborationError("recursive macro expansion: "
                               + " -> ".join(chain))
    expansion = lib[macro].expansion
    _check(expansion, lib, bodies, f"invalid macro {macro}")
    active.append(macro)
    nodes, channels = _flatten(expansion, lib, bodies, active)
    active.pop()
    names = [nd.name for nd in expansion.nodes]
    for gd in expansion.gates:
        names += [f"{gd.name}.{name}" for name in bodies[gd.macro].names]
    number = {name: at for at, name in enumerate(names)}
    inner: list[tuple[int, str, int, str]] = []
    enter: dict[str, tuple[int | None, str]] = {}
    leave: dict[str, tuple[int, str]] = {}
    for src_name, src_port, dst_name, dst_port, _ in channels:
        src, dst = number.get(src_name), number.get(dst_name)
        if src is None:
            enter[src_name] = (dst, dst_name if dst is None else dst_port)
        elif dst is None:
            leave[dst_name] = (src, src_port)
        else:
            inner.append((src, src_port, dst, dst_port))
    template = bodies[macro] = _Template(
        tuple(names), tuple(nodes[name].kind for name in names),
        tuple(nodes[name].hold_phases for name in names), tuple(inner),
        enter, leave)
    return template


def _flatten(ast: CircuitAst, lib: Mapping, bodies: dict[str, _Template],
             active: list[str]) -> tuple[dict[str, NodeDecl], list[Channel]]:
    """Inline every gate instance of a validated ``ast``.

    Returns its nodes by name, circuit inputs and outputs included as
    INPUT and OUTPUT nodes, and its channels.  Each macro's template is
    made on first use; every instance stamps its nodes and inner channels
    under its ``instance.`` prefix straight into records, and only the
    channels through its ports are spliced.  Instances are stamped in name
    order, so the records come out nearly sorted.
    """
    nodes = {name: NodeDecl(name, _INPUT) for name in ast.inputs}
    nodes.update((name, NodeDecl(name, _OUTPUT)) for name in ast.outputs)
    nodes.update((nd.name, nd) for nd in ast.nodes)
    if not ast.gates:
        return nodes, list(ast.channels)
    # Inlined names are ``instance.name``; a netlist may declare dotted
    # nodes too, so every inlined name is checked against all names.
    taken = {*nodes, *(gd.name for gd in ast.gates)}
    stamps: dict[str, tuple[GateDecl, _Template, list[str]]] = {}
    for gd in ast.gates:
        template = (bodies.get(gd.macro)
                    or _template(gd.macro, lib, bodies, active))
        prefix = gd.name + "."
        full = [prefix + name for name in template.names]
        if not taken.isdisjoint(full):
            clash = next(name for name in full if name in taken)
            where = f"invalid macro {active[-1]}: " if active else ""
            raise ElaborationError(
                f"{where}inlining gate {gd.name} ({gd.macro}) declares "
                f"{clash!r} twice")
        taken.update(full)
        stamps[gd.name] = (gd, template, full)

    channels: list[Channel] = []
    onward: dict[tuple[str, str], Channel] = {}  # leaves an instance port
    into: list[Channel] = []  # enters an instance from outside any
    for ch in ast.channels:
        src, src_port, dst, _, _ = ch
        if src in stamps:
            onward[src, src_port] = ch
        elif dst in stamps:
            into.append(ch)
        else:
            channels.append(ch)

    def splice(src: str, src_port: str, dst: str, dst_port: str,
               line: int) -> Channel:
        # Validation wired every port of an instance and of its body
        # exactly once, so a channel into one continues along the single
        # channel on its other side.
        while dst in stamps:
            _, template, full = stamps[dst]
            at, port = template.enter[dst_port]
            if at is not None:
                return _new(Channel, (src, src_port, full[at], port, line))
            _, _, dst, dst_port, _ = onward[dst, port]
        return _new(Channel, (src, src_port, dst, dst_port, line))

    for name in sorted(stamps):
        gd, template, full = stamps[name]
        _, kinds, holds, inner, _, leave = template
        line = gd.line
        nodes.update(zip(full, map(_new, repeat(NodeDecl), zip(
            full, kinds, holds, repeat(line)))))
        channels += [_new(Channel, (full[src], src_port, full[dst], dst_port,
                                    line))
                     for src, src_port, dst, dst_port in inner]
        for port, (src, src_port) in leave.items():
            _, _, dst, dst_port, _ = onward[name, port]
            channels.append(splice(full[src], src_port, dst, dst_port, line))
    channels += [splice(*ch) for ch in into]
    return nodes, channels


def _toposort(names: Iterable[str], channels: Iterable[Channel]
              ) -> tuple[list[str], dict[str, list[str]]]:
    """Kahn's algorithm over the channel graph.

    Returns the names in a topological order and each name's successors,
    one per channel.  When the graph has a cycle the order is short: the
    names left out are those on a cycle or downstream of one.  The visit
    order is not otherwise defined; callers derive nothing from it but
    precedence.
    """
    successors: dict[str, list[str]] = {name: [] for name in names}
    indegree = dict.fromkeys(successors, 0)
    for ch in channels:
        successors[ch.src].append(ch.dst)
        indegree[ch.dst] += 1
    # The order is also the queue: a name joins it when its last
    # predecessor has been visited.
    order = [name for name, deg in indegree.items() if not deg]
    for name in order:
        for succ in successors[name]:
            deg = indegree[succ] = indegree[succ] - 1
            if not deg:
                order.append(succ)
    return order, successors


def _cycle(stuck: set[str], channels: Iterable[Channel]) -> list[str]:
    """One cycle among the names ``_toposort`` left out, sorted: each has
    a left-out predecessor, so walking back from the smallest through the
    smallest such predecessors repeats a name, which closes the cycle."""
    back: dict[str, str] = {}
    for ch in channels:
        if ch.src in stuck and ch.dst in stuck:
            back[ch.dst] = min(back.get(ch.dst, ch.src), ch.src)
    visited: dict[str, int] = {}  # name -> step of its first visit
    name = min(stuck)
    while name not in visited:
        visited[name] = len(visited)
        name = back[name]
    return sorted(n for n, step in visited.items() if step >= visited[name])


def _off_schedule(nodes: dict[str, NodeDecl], channels: Iterable[Channel],
                  phases: dict[str, int]) -> Iterator[tuple[Channel, int]]:
    """The one schedule rule, which hold repair, ``timing_lint`` and the
    truth-table fallback read: each channel whose marbles, arriving one
    phase after its source fires, miss the firing phase of its
    destination, with how many phases early they arrive (negative when
    late).  A junction or syringe reads its input only in its own phase,
    so any skew counts; any other node with out ports parks early
    marbles, so only a late arrival counts; a sink takes any."""
    for ch in channels:
        early = phases[ch.dst] - phases[ch.src] - 1
        if early:
            kind = nodes[ch.dst].kind
            if (kind is _JUNCTION or kind is _SYRINGE
                    or (early < 0 and kind.outs)):
                yield ch, early


def _skewed_junctions(nodes: dict[str, NodeDecl], channels: Iterable[Channel],
                      phases: dict[str, int]) -> list[tuple[Channel, int]]:
    """The off-schedule channels into junctions, by junction and port:
    each one that hold repair inserts a hold on and ``timing_lint``
    reports."""
    return sorted((item for item in _off_schedule(nodes, channels, phases)
                   if nodes[item[0].dst].kind is _JUNCTION),
                  key=lambda item: (item[0].dst, item[0].dst_port))


def _levelize(ast: CircuitAst, nodes: dict[str, NodeDecl],
              channels: list[Channel], insert_holds: bool) -> Circuit:
    """Phase every node of a flat circuit, repair junction skew and sort
    the records into a :class:`Circuit`."""
    order, successors = _toposort(nodes, channels)
    if len(order) != len(nodes):
        raise ElaborationError("cycle detected during levelization")
    # One forward pass: until the pass reaches a node its entry holds the
    # latest phase of its producers (-1 for none), then its own phase.
    phases = dict.fromkeys(nodes, -1)
    for name in order:
        phase = phases[name]
        if phase < 0:
            phase = 0
        else:
            node = nodes[name]
            phase += node.hold_phases if node.kind is _HOLD else 1
        phases[name] = phase
        for succ in successors[name]:
            if phases[succ] < phase:
                phases[succ] = phase

    if insert_holds:
        # Each hold takes the place of the channel it repairs, found by
        # identity, which is cheaper than hashing every channel.
        replaced: dict[int, Channel] = {}
        for shallow, early in _skewed_junctions(nodes, channels, phases):
            src, src_port, jname, port, line = shallow
            hold_name = f"{jname}.{port}.sync"
            while hold_name in nodes:
                hold_name += "_"
            nodes[hold_name] = _new(NodeDecl, (hold_name, _HOLD, early, line))
            phases[hold_name] = phases[jname] - 1
            replaced[id(shallow)] = _new(Channel, (src, src_port, hold_name,
                                                   "in", line))
            channels.append(_new(Channel, (hold_name, "out", jname, port,
                                           line)))
        if replaced:
            channels = list(map(replaced.get, map(id, channels), channels))

    # Each out port carries one channel, so sorting by source port and
    # then, stably, by source orders channels by key without building a
    # key tuple for each.
    channels.sort(key=_SOURCE_PORT)
    channels.sort(key=_SOURCE)
    names = sorted(nodes)
    return Circuit(ast.name, ast.inputs, ast.outputs,
                   {name: nodes[name] for name in names}, tuple(channels),
                   {name: phases[name] for name in names})


def elaborate(ast: CircuitAst, library: Mapping | None = None, *,
              insert_holds: bool = True) -> Circuit:
    """Expand macros, levelize, and repair junction synchronization.

    ``insert_holds=False`` keeps a junction phase imbalance in the result
    (useful for exercising the timing lint and runtime hazard paths).  A
    hold inserted to repair one, and its two channels, carry the line of
    the channel they replace.  Elaboration is idempotent on primitive
    circuits: re-elaborating an already balanced circuit changes nothing.
    Built-in bodies are validated and flattened once per process.
    """
    builtin = _default_library()
    lib = builtin if library is None else library
    bodies = _BUILTIN_BODIES if lib is builtin else {}
    _check(ast, lib, bodies, "invalid netlist")
    nodes, channels = _flatten(ast, lib, bodies, [])
    return _levelize(ast, nodes, channels, insert_holds)


def circuit_to_ast(circuit: Circuit) -> CircuitAst:
    """Lower an elaborated circuit back to an AST (no gate instances)."""
    decls = tuple(nd for nd in circuit.nodes.values()
                  if nd.kind not in (_INPUT, _OUTPUT))
    return CircuitAst(circuit.name, circuit.inputs, circuit.outputs,
                      decls, (), circuit.channels)
