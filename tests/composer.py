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
