"""Deterministic random netlists for equivalence and conservation checks:
compositions of library gates, netlists of primitive nodes, and netlists
that mix the two.  Every wire is used exactly once: an output port either
feeds a later gate or node or becomes a circuit output (primitive and mixed
netlists may also send it to a waste node), so the generated netlists are
always well-formed.  Each generator draws from the ``random.Random`` it is
given, so hypothesis can hand it one whose draws it shrinks; the seed forms
pass ``random.Random(seed)``."""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import combinations, permutations

from marblesim import Circuit, NodeKind, elaborate, get_macro, library, parse

MACRO_NAMES = tuple(macro.name for macro in library())
MAX_DEPTH = 4


def compose_source(seed: int) -> str:
    return compose_from(random.Random(seed), f"rnd_{seed}")


def compose_from(rng: random.Random, circuit_name: str) -> str:
    """A random composition of library gates named ``circuit_name``, drawn
    from ``rng``."""
    n_inputs = rng.randint(2, 4)
    inputs = [f"i{k}" for k in range(n_inputs)]
    available = list(inputs)
    decls = []
    connects = []
    for gate_no in range(1, rng.randint(1, MAX_DEPTH) + 1):
        fitting = [name for name in MACRO_NAMES
                   if len(get_macro(name).inputs) <= len(available)]
        if not fitting:
            break
        macro = get_macro(rng.choice(fitting))
        picked = rng.sample(available, len(macro.inputs))
        for signal in picked:
            available.remove(signal)
        gate = f"g{gate_no}"
        decls.append(f"gate {gate} : {macro.name}")
        connects.extend(f"connect {signal} -> {gate}.{port}"
                        for port, signal in zip(macro.inputs, picked))
        available.extend(f"{gate}.{port}" for port in macro.outputs)
    outputs = [f"o{k}" for k in range(len(available))]
    connects.extend(f"connect {signal} -> {sink}"
                    for signal, sink in zip(available, outputs))
    lines = [f"circuit {circuit_name}",
             f"input {', '.join(inputs)}",
             f"output {', '.join(outputs)}"]
    return "\n".join(lines + decls + connects) + "\n"


def ripple_adder_source(n: int) -> str:
    """An n-bit ripple-carry adder of FULL_ADDER gates, bit 0 least
    significant: inputs a0.., b0.., cin; outputs s0.., cout."""
    lines = [f"circuit adder{n}",
             "input " + ", ".join([f"a{k}" for k in range(n)]
                                  + [f"b{k}" for k in range(n)] + ["cin"]),
             "output " + ", ".join([f"s{k}" for k in range(n)] + ["cout"])]
    for k in range(n):
        carry = "cin" if k == 0 else f"F{k - 1}.cout"
        lines += [f"gate F{k} : FULL_ADDER", f"connect a{k} -> F{k}.a",
                  f"connect b{k} -> F{k}.b", f"connect {carry} -> F{k}.cin",
                  f"connect F{k}.sum -> s{k}"]
    lines.append(f"connect F{n - 1}.cout -> cout")
    return "\n".join(lines) + "\n"


# The kinds a primitive netlist draws from; their order fixes what each
# seed generates.
PRIMITIVE_KINDS = (NodeKind.JUNCTION, NodeKind.JOIN, NodeKind.TAP,
                   NodeKind.SYRINGE, NodeKind.SCALPEL, NodeKind.HOLD,
                   NodeKind.CONST)
MAX_PRIMITIVES = 10
MAX_OUTPUTS = 4


def primitive_source(seed: int) -> str:
    return primitives_from(random.Random(seed), f"prim_{seed}")


def primitives_from(rng: random.Random, circuit_name: str) -> str:
    """A random well-formed netlist of primitive nodes named
    ``circuit_name``, drawn from ``rng``: 1-8 inputs and up to
    MAX_PRIMITIVES junctions, joins, taps, syringes, scalpels, holds and
    consts.  Joins can bring two marbles onto one channel in one phase, and
    junction feeds can differ in depth, so runs may fail with contention or
    show timing hazards unless elaboration inserts holds."""
    return _parts_from(rng, circuit_name, PRIMITIVE_KINDS)


def mixed_from(rng: random.Random, circuit_name: str) -> str:
    """A random well-formed netlist like ``primitives_from``'s whose parts,
    primitive nodes and library gates, are drawn from one pool, so
    primitives sit between gate instances, where inlining, splicing and
    hold repair meet."""
    return _parts_from(rng, circuit_name, PRIMITIVE_KINDS + MACRO_NAMES)


def _parts_from(rng: random.Random, circuit_name: str,
                pool: tuple[NodeKind | str, ...]) -> str:
    """A netlist of up to MAX_PRIMITIVES parts drawn from ``pool``: node
    kinds, or the names of library gates."""
    inputs = [f"i{k}" for k in range(rng.randint(1, 8))]
    signals = list(inputs)  # out endpoints not yet wired
    decls: list[str] = []
    connects: list[str] = []

    def offer(endpoint: str) -> None:
        if rng.random() < 0.75:
            signals.append(endpoint)
        else:
            connects.append(f"connect {endpoint} -> W.in")

    def in_ports(part: NodeKind | str) -> tuple[str, ...]:
        if isinstance(part, str):
            return get_macro(part).inputs
        # A join takes two inputs, or sometimes a third.
        return ("in1", "in2") if part is NodeKind.JOIN else part.ins

    for number in range(rng.randint(1, MAX_PRIMITIVES)):
        part = rng.choice([part for part in pool
                           if len(in_ports(part)) <= len(signals)])
        ports = in_ports(part)
        if part is NodeKind.JOIN and len(signals) > 2 and rng.random() < 0.5:
            ports += ("in3",)
        name = f"N{number}"
        if isinstance(part, str):
            decls.append(f"gate {name} : {part}")
            outs = get_macro(part).outputs
        else:
            spec = (f"hold({rng.randint(1, 3)})" if part is NodeKind.HOLD
                    else part.value)
            decls.append(f"node {name} : {spec}")
            outs = part.outs
        for port in ports:
            signal = signals.pop(rng.randrange(len(signals)))
            connects.append(f"connect {signal} -> {name}.{port}")
        for port in outs:
            offer(f"{name}.{port}")

    if not signals:
        decls.append("node K : const1")
        signals.append("K.out")
    rng.shuffle(signals)
    outputs = [f"o{k}" for k in range(min(len(signals), MAX_OUTPUTS))]
    connects.extend(f"connect {signal} -> {sink}"
                    for signal, sink in zip(signals, outputs))
    connects.extend(f"connect {signal} -> W.in"
                    for signal in signals[len(outputs):])
    if any(line.endswith(" -> W.in") for line in connects):
        decls.append("node W : waste")
    lines = [f"circuit {circuit_name}",
             f"input {', '.join(inputs)}",
             f"output {', '.join(outputs)}"]
    return "\n".join(lines + decls + connects) + "\n"


# The kinds a small-scope netlist draws from, with the in ports each reads
# (a join two); their order fixes the order of the netlists.
SMALL_KINDS = ((NodeKind.JUNCTION, ("A", "B")),
               (NodeKind.JOIN, ("in1", "in2")), (NodeKind.TAP, ("in",)),
               (NodeKind.SYRINGE, ("in",)), (NodeKind.SCALPEL, ("in",)),
               (NodeKind.CONST, ()))
MAX_SMALL_OUTPUTS = 3


def small_netlists(n: int, k: int) -> Iterator[str]:
    """Every well-formed primitive netlist with at most ``n`` inputs and
    ``k`` nodes (junctions, two-input joins, taps, syringes, scalpels and
    consts), as source text, in a fixed order.  Each out endpoint is used
    once: by a later node, by an output (at most MAX_SMALL_OUTPUTS, named
    in the order the endpoints were made) or by the waste node ``W``.  Of
    the netlists that differ only in the names of their inputs, nodes and
    outputs, or in which of a join's two ports a marble enters, only the
    first is yielded."""
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for inputs in range(n + 1):
        names = [f"i{j}" for j in range(inputs)]
        for nodes, signals in _small_parts([], names, k):
            views = [_small_view(nodes, signals, dict(zip(names, renamed)),
                                 order)
                     for renamed in permutations(names)
                     for order in permutations(range(len(nodes)))]
            for count in range(min(len(signals), MAX_SMALL_OUTPUTS) + 1):
                for outputs in combinations(range(len(signals)), count):
                    key = min((decls, tuple(sorted(channels + [
                        f"{end} -> {'o' if j in outputs else 'W.in'}"
                        for j, end in enumerate(ends)])))
                        for decls, channels, ends in views)
                    if key not in seen:
                        seen.add(key)
                        yield _small_source(f"small{len(seen)}", names,
                                            nodes, signals, outputs)


# A node of a small netlist: its kind and the endpoint each in port reads.
_SmallNode = tuple[NodeKind, tuple[tuple[str, str], ...]]


def _small_parts(nodes: list[_SmallNode], signals: list[str], left: int
                 ) -> Iterator[tuple[list[_SmallNode], list[str]]]:
    """``nodes`` with up to ``left`` more, each reading out endpoints not
    yet used, and the endpoints left unused in the order they were made."""
    yield nodes, signals
    if not left:
        return
    name = f"N{len(nodes)}"
    for kind, ports in SMALL_KINDS:
        picks = (combinations if kind is NodeKind.JOIN else permutations)(
            range(len(signals)), len(ports))
        for pick in picks:
            rest = [signal for j, signal in enumerate(signals)
                    if j not in pick]
            node = kind, tuple((port, signals[j])
                               for port, j in zip(ports, pick))
            yield from _small_parts(nodes + [node], rest + [
                f"{name}.{port}" for port in kind.outs], left - 1)


def _small_view(nodes: list[_SmallNode], signals: list[str],
                inputs: dict[str, str], order: tuple[int, ...]
                ) -> tuple[tuple[str, ...], list[str], list[str]]:
    """A netlist's declarations, sorted, its channels into nodes and its
    unused endpoints, with its inputs renamed by ``inputs`` and node
    ``N{j}`` renamed ``N{order[j]}``; a join's in ports are not told
    apart."""
    def rename(endpoint: str) -> str:
        node, dot, port = endpoint.partition(".")
        return f"N{order[int(node[1:])]}.{port}" if dot else inputs[node]

    decls = tuple(sorted(f"N{order[number]} : {kind.value}"
                         for number, (kind, _) in enumerate(nodes)))
    channels = [f"{rename(src)} -> N{order[number]}."
                f"{'in' if kind is NodeKind.JOIN else port}"
                for number, (kind, ins) in enumerate(nodes)
                for port, src in ins]
    return decls, channels, [rename(signal) for signal in signals]


def _small_source(name: str, inputs: list[str], nodes: list[_SmallNode],
                  signals: list[str], outputs: tuple[int, ...]) -> str:
    """The text of a small netlist whose unused endpoints at ``outputs``
    go to outputs ``o0``, ``o1``, ... and the rest to waste."""
    sinks = ["W.in"] * len(signals)
    for number, j in enumerate(outputs):
        sinks[j] = f"o{number}"
    lines = [f"circuit {name}"]
    if inputs:
        lines.append(f"input {', '.join(inputs)}")
    if outputs:
        lines.append("output " + ", ".join(f"o{number}" for number
                                           in range(len(outputs))))
    lines += [f"node N{number} : {kind.value}"
              for number, (kind, _) in enumerate(nodes)]
    if "W.in" in sinks:
        lines.append("node W : waste")
    lines += [f"connect {src} -> N{number}.{port}"
              for number, (_, ins) in enumerate(nodes) for port, src in ins]
    lines += [f"connect {src} -> {sink}"
              for src, sink in zip(signals, sinks)]
    return "\n".join(lines) + "\n"


def compose_circuit(seed: int) -> Circuit:
    return elaborate(parse(compose_source(seed)))


def input_vectors(circuit: Circuit, limit: int | None = None,
                  seed: int = 0) -> list[tuple[int, ...]]:
    """Every input vector, first input most significant; with ``limit``, a
    seeded sample of that many distinct vectors when there are more."""
    n = len(circuit.inputs)
    values: range | list[int] = range(2 ** n)
    if limit is not None and 2 ** n > limit:
        rng = random.Random(seed)
        if n <= 62:  # sample() needs len(), which 2 ** 63 values overflow
            values = sorted(rng.sample(values, limit))
        else:
            drawn: set[int] = set()
            while len(drawn) < limit:
                drawn.add(rng.getrandbits(n))
            values = sorted(drawn)
    return [tuple((value >> (n - 1 - k)) & 1 for k in range(n))
            for value in values]
