"""A golden digest of what elaboration and simulation produce.

Each group below elaborates a fixed set of circuits and runs a fixed set of
vectors through each in both collision modes, traced with strict timing off
and untraced with it on.  Every elaborated circuit (its nodes, channels
and phases) and every run (outputs, events, final locations, hazards,
collisions and ledger, or else the error) is written out as plain text
built from explicit fields, never from ``repr``, and hashed per group.  A
refactor that must not change behaviour keeps every hash.

To print the digest file for the current code::

    PYTHONPATH=src python tests/test_digest.py
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from pathlib import Path

import composer
from marblesim import (Circuit, CollisionMode, MarblesimError, SimConfig,
                       elaborate, library, parse, simulate)

DIGEST = Path(__file__).parent / "golden" / "digest.txt"

# Tracing only adds the event list, and strict timing only turns a hazard
# into an error, so each vector runs twice per mode: traced with strict
# timing off, and untraced with it on.
CONFIGS = tuple(SimConfig(mode, strict, not strict)
                for mode in (CollisionMode.BOUNCE, CollisionMode.MERGE)
                for strict in (False, True))


def circuit_lines(circuit: Circuit) -> Iterator[str]:
    yield (f"circuit {circuit.name} in {' '.join(circuit.inputs)} "
           f"out {' '.join(circuit.outputs)}")
    for name, node in circuit.nodes.items():
        yield f"node {name} {node.kind.value} {node.hold_phases}"
    for ch in circuit.channels:
        yield "channel " + " ".join(ch[:4])
    for name, phase in circuit.phases.items():
        yield f"phase {name} {phase}"


def run_lines(circuit: Circuit, bits: tuple[int, ...],
              config: SimConfig) -> Iterator[str]:
    yield (f"run {''.join(map(str, bits))} {config.mode.value} "
           f"strict={config.strict_timing} traced={config.trace_enabled}")
    try:
        outputs, trace, ledger = simulate(circuit, bits, config)
    except MarblesimError as exc:
        yield f"error {type(exc).__name__}: {exc}"
        return
    yield "outputs " + "".join(map(str, outputs))
    for phase, node, port, marble_id, mass in trace.events:
        yield f"event {phase} {node} {port} {marble_id} {mass}"
    for marble_id, (node, port) in sorted(trace.final_locations.items()):
        yield f"final {marble_id} {node} {port}"
    for hz in trace.hazards:
        yield (f"hazard {hz.phase} {hz.node} {hz.port} {hz.marble_id} "
               f"{hz.expected_phase}")
    for phase, junction in trace.collisions:
        yield f"met {phase} {junction}"
    yield (f"ledger {ledger.input_marbles} {ledger.injected} "
           f"{ledger.output_marbles} {ledger.waste_marbles} "
           f"{ledger.input_mass} {ledger.injected_mass} "
           f"{ledger.output_mass} {ledger.waste_mass}")
    for inj in ledger.injections:
        yield (f"injection {inj.marble_id} {inj.node} {inj.kind.value} "
               f"{inj.phase} {inj.mass}")


def group_lines(circuits: Iterator[tuple[Circuit, list[tuple[int, ...]]]]
                ) -> Iterator[str]:
    seen: set[tuple[str, ...]] = set()
    for circuit, vectors in circuits:
        lines = tuple(circuit_lines(circuit))
        yield from lines
        # Where hold repair changed nothing the runs would repeat.
        if lines in seen:
            continue
        seen.add(lines)
        for bits in vectors:
            for config in CONFIGS:
                yield from run_lines(circuit, bits, config)


def library_circuits():
    for macro in library():
        for insert_holds in (True, False):
            circuit = elaborate(macro.expansion, insert_holds=insert_holds)
            yield circuit, composer.input_vectors(circuit)


def adder_circuits(bits: int, limit: int | None):
    circuit = elaborate(parse(composer.ripple_adder_source(bits)))
    yield circuit, composer.input_vectors(circuit, limit, seed=bits)


def compose_circuits():
    for seed in range(30):
        circuit = composer.compose_circuit(seed)
        yield circuit, composer.input_vectors(circuit)


def primitive_circuits():
    for seed in range(100):
        ast = parse(composer.primitive_source(seed))
        for insert_holds in (True, False):
            circuit = elaborate(ast, insert_holds=insert_holds)
            yield circuit, composer.input_vectors(circuit, 16, seed)


GROUPS = {
    "library": library_circuits,
    "adder4": lambda: adder_circuits(4, None),
    "adder64": lambda: adder_circuits(64, 16),
    "compose": compose_circuits,
    "primitive": primitive_circuits,
}


def digest(name: str) -> str:
    sha = hashlib.sha256()
    for line in group_lines(GROUPS[name]()):
        sha.update(f"{line}\n".encode())
    return sha.hexdigest()


def golden() -> dict[str, str]:
    pairs = (line.split() for line in DIGEST.read_text().splitlines())
    return {name: value for name, value in pairs}


def test_digest_groups_match_golden():
    assert sorted(golden()) == sorted(GROUPS)


def test_digest_matches_golden():
    expected = golden()
    changed = [name for name in GROUPS if digest(name) != expected[name]]
    assert changed == [], f"digest changed for groups: {', '.join(changed)}"


if __name__ == "__main__":
    for group in GROUPS:
        print(group, digest(group))
