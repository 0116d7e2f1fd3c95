"""Deterministic random compositions of library gates for equivalence and
conservation checks.  Every wire is used exactly once: gate outputs either
feed a later gate or become circuit outputs, so the composed netlists are
always well-formed."""

from __future__ import annotations

import random

from marblesim import Circuit, elaborate, get_macro, library, parse

MACRO_NAMES = tuple(macro.name for macro in library())
MAX_DEPTH = 4


def compose_source(seed: int) -> str:
    rng = random.Random(seed)
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
    lines = [f"circuit rnd_{seed}",
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


def compose_circuit(seed: int) -> Circuit:
    return elaborate(parse(compose_source(seed)))


def input_vectors(circuit: Circuit) -> list[tuple[int, ...]]:
    n = len(circuit.inputs)
    return [tuple((value >> (n - 1 - k)) & 1 for k in range(n))
            for value in range(2 ** n)]
