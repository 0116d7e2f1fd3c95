"""The benchmark's workloads, their seeded inputs and their checks.

Each workload is a closed loop: one caller, each operation starting after
the previous one ends.  Constructing a workload is its set-up (input
generation and any compile it does before the first operation).
``round()`` draws the inputs of the next operations before they are timed,
``run()`` is the timed operation, ``check()`` verifies its outputs with
``checks`` and ``extras()`` makes the additional layer calls of a traced
run.  Every call into the program goes through ``tr.call`` with the name of
the layer function, so a traced run has one span per call.
"""

from __future__ import annotations

import contextlib
import io
import random

from checks import (GATE_FUNCTIONS, check_ledger, check_modes_agree,
                    check_sum, check_table_rows, check_verify, expect,
                    fredkin, gate_arity, is_reversible, parse_table_records,
                    parse_verify_records, toffoli)


def adder_source(n: int) -> str:
    """An n-bit ripple-carry adder of FULL_ADDER gates: inputs a0..a(n-1),
    b0..b(n-1), cin; outputs s0..s(n-1), cout; bit 0 least significant."""
    inputs = ([f"a{k}" for k in range(n)] + [f"b{k}" for k in range(n)]
              + ["cin"])
    lines = [f"circuit adder{n}",
             "input " + ", ".join(inputs),
             "output " + ", ".join([f"s{k}" for k in range(n)] + ["cout"])]
    lines += [f"gate F{k} : FULL_ADDER" for k in range(n)]
    for k in range(n):
        carry = "cin" if k == 0 else f"F{k - 1}.cout"
        lines += [f"connect a{k} -> F{k}.a", f"connect b{k} -> F{k}.b",
                  f"connect {carry} -> F{k}.cin", f"connect F{k}.sum -> s{k}"]
    lines.append(f"connect F{n - 1}.cout -> cout")
    return "\n".join(lines) + "\n"


def random_bits(rng, width: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(1) for _ in range(width))


def hold_count(P, circuit) -> int:
    """Hold nodes in a circuit.  No library gate and no netlist of this
    benchmark declares one, so every hold was inserted by repair."""
    return sum(1 for node in circuit.nodes.values() if node.kind is P.HOLD)


def count_circuit(P, tr, circuit, size: int) -> None:
    """Attach an elaborated circuit's size to the span that built it."""
    if tr.on:
        tr.count(size=size, channels=len(circuit.channels),
                 nodes=len(circuit.nodes), holds=hold_count(P, circuit))


# Library gate -> (input ports, output ports, the benchmark's own function)
_GATE_PORTS = {
    "FREDKIN_DIRECT": (("u", "x1", "x2"), ("v", "y1", "y2"), fredkin),
    "TOFFOLI": (("c", "x1", "x2"), ("y", "g1", "g2"), toffoli),
}


class Network:
    """A seeded 12-input network of reversible gates.

    Layer 1 puts two FREDKIN_DIRECT and two TOFFOLI gates on a random
    partition of the 12 wires; layer 2 puts one of each on 6 random wires,
    the other 6 pass through; the outputs are the wires in random order.
    Every draw keeps the same gate mix, so every network costs about the
    same to tabulate.
    """

    WIRES = 12

    def __init__(self, rng, index: int):
        self.stages: list[tuple[str, tuple[int, int, int]]] = []
        for kinds, count in ((["FREDKIN_DIRECT"] * 2 + ["TOFFOLI"] * 2, 12),
                             (["FREDKIN_DIRECT", "TOFFOLI"], 6)):
            rng.shuffle(kinds)
            wires = rng.sample(range(self.WIRES), count)
            for g, kind in enumerate(kinds):
                self.stages.append((kind, tuple(wires[3 * g:3 * g + 3])))
        self.order = rng.sample(range(self.WIRES), self.WIRES)
        self.source = self._source(index)

    def _source(self, index: int) -> str:
        signal = [f"x{k}" for k in range(self.WIRES)]
        lines = [f"circuit net{index}",
                 "input " + ", ".join(signal),
                 "output " + ", ".join(f"y{k}" for k in range(self.WIRES))]
        for g, (kind, wires) in enumerate(self.stages):
            ins, outs, _ = _GATE_PORTS[kind]
            lines.append(f"gate G{g} : {kind}")
            for port, wire in zip(ins, wires):
                lines.append(f"connect {signal[wire]} -> G{g}.{port}")
            for port, wire in zip(outs, wires):
                signal[wire] = f"G{g}.{port}"
        for k, wire in enumerate(self.order):
            lines.append(f"connect {signal[wire]} -> y{k}")
        return "\n".join(lines) + "\n"

    def __call__(self, *bits: int) -> tuple[int, ...]:
        """The network's function, from the benchmark's own gate functions."""
        values = list(bits)
        for kind, wires in self.stages:
            fn = _GATE_PORTS[kind][2]
            for wire, value in zip(wires, fn(*(values[w] for w in wires))):
                values[wire] = value
        return tuple(values[w] for w in self.order)


def _run_cli(P, tr, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = tr.call("cli.main", P.main, argv)
    return code, buffer.getvalue()


class AdderCompile:
    """Parse, elaborate and simulate ripple-carry adders on a size ladder."""

    LADDER = (4, 16, 64, 128, 256)

    def __init__(self, P, rng, tr):
        self.P, self.rng = P, rng
        self.sources = {n: adder_source(n) for n in self.LADDER}
        # Reference for the hold-repair check: the same adders elaborated
        # without repair, and the junction inputs timing_lint flags there.
        self.unrepaired: dict[int, tuple[int, int]] = {}
        for n in self.LADDER:
            ast = tr.call("netlist.parse", P.parse, self.sources[n])
            circuit = tr.call("netlist.elaborate_unrepaired", P.elaborate,
                              ast, insert_holds=False)
            lint = tr.call("analysis.timing_lint", P.timing_lint, circuit)
            expect(hold_count(P, circuit) == 0,
                   f"{n}-bit adder has holds before repair")
            self.unrepaired[n] = (len(circuit.nodes), len(lint))

    def round(self):
        return [{n: (random_bits(self.rng, 2 * n + 1),
                     random_bits(self.rng, 2 * n + 1)) for n in self.LADDER}]

    def vectors(self, spec) -> int:
        return 2 * len(spec)

    def run(self, spec, tr):
        P = self.P
        results = []
        for n, (bits_b, bits_m) in spec.items():
            ast = tr.call("netlist.parse", P.parse, self.sources[n])
            circuit = tr.call("netlist.elaborate", P.elaborate, ast)
            count_circuit(P, tr, circuit, n)
            runs = []
            for mode, bits in ((P.BOUNCE, bits_b), (P.MERGE, bits_m)):
                runs.append(tr.call("sim.simulate", P.simulate, circuit,
                                    bits, P.SimConfig(mode=mode)))
                if tr.on:
                    tr.count(events=len(runs[-1][1].events))
            results.append((n, ast, circuit, runs))
        return results

    def check(self, spec, results, tr) -> None:
        P = self.P
        for n, _, circuit, runs in results:
            for bits, (outputs, trace, ledger) in zip(spec[n], runs):
                check_sum(n, bits, outputs)
                check_ledger(ledger, bits)
            lint = tr.call("analysis.timing_lint", P.timing_lint, circuit)
            expect(lint == (), f"{n}-bit adder: lint after repair: {lint}")
            nodes, flagged = self.unrepaired[n]
            expect(hold_count(P, circuit) == flagged
                   and len(circuit.nodes) - nodes == flagged,
                   f"{n}-bit adder: {hold_count(P, circuit)} holds for "
                   f"{flagged} flagged junction inputs")

    def extras(self, spec, results, tr) -> None:
        P = self.P
        for n, ast, circuit, runs in results:
            diags = tr.call("netlist.validate", P.validate, ast)
            flat = tr.call("netlist.circuit_to_ast", P.circuit_to_ast,
                           circuit)
            diags += tr.call("netlist.flat_validate", P.validate, flat, {})
            expect(not diags, f"{n}-bit adder: {diags}")
            for mode, bits, (_, trace, ledger) in zip(
                    (P.BOUNCE, P.MERGE), spec[n], runs):
                tr.call("sim.run_ledger", P.run_ledger, trace)
                outputs, _, _ = tr.call(
                    "sim.simulate_untraced", P.simulate, circuit, bits,
                    P.SimConfig(mode=mode, trace_enabled=False))
                check_sum(n, bits, outputs)


class VectorRuns:
    """Simulate one random vector with the trace on through a 64-bit adder
    compiled during set-up; collision modes alternate."""

    BITS = 64

    def __init__(self, P, rng, tr):
        self.P, self.rng = P, rng
        ast = tr.call("netlist.parse", P.parse, adder_source(self.BITS))
        self.circuit = tr.call("netlist.elaborate", P.elaborate, ast)
        count_circuit(P, tr, self.circuit, self.BITS)
        self.configs = (P.SimConfig(mode=P.BOUNCE), P.SimConfig(mode=P.MERGE))

    def round(self):
        width = 2 * self.BITS + 1
        return [(config, random_bits(self.rng, width))
                for config in self.configs]

    def vectors(self, spec) -> int:
        return 1

    def run(self, spec, tr):
        config, bits = spec
        result = tr.call("sim.simulate", self.P.simulate, self.circuit, bits,
                         config)
        if tr.on:
            tr.count(events=len(result[1].events))
        return result

    def check(self, spec, result, tr) -> None:
        _, bits = spec
        outputs, trace, ledger = result
        check_sum(self.BITS, bits, outputs)
        check_ledger(ledger, bits)
        expect(len(trace.events) > 0, "trace-on run recorded no events")

    def extras(self, spec, result, tr) -> None:
        config, bits = spec
        P = self.P
        tr.call("sim.run_ledger", P.run_ledger, result[1])
        outputs, _, _ = tr.call(
            "sim.simulate_untraced", P.simulate, self.circuit, bits,
            P.SimConfig(mode=config.mode, trace_enabled=False))
        check_sum(self.BITS, bits, outputs)


class ExhaustiveTables:
    """Tabulate a 12-input reversible network under both modes."""

    POOL = 3

    def __init__(self, P, rng, tr):
        self.P = P
        self.networks = [Network(rng, k) for k in range(self.POOL)]
        self.circuits = []
        for net in self.networks:
            ast = tr.call("netlist.parse", P.parse, net.source)
            self.circuits.append(tr.call("netlist.elaborate", P.elaborate,
                                         ast))
            count_circuit(P, tr, self.circuits[-1], Network.WIRES)
        self.next = 0

    def round(self):
        index = self.next
        self.next = (self.next + 1) % self.POOL
        return [index]

    def vectors(self, spec) -> int:
        return 2 * 2 ** Network.WIRES

    def run(self, index, tr):
        P = self.P
        tables = []
        for mode in (P.BOUNCE, P.MERGE):
            tables.append(tr.call("analysis.truth_table", P.truth_table,
                                  self.circuits[index], mode))
            if tr.on:
                tr.count(rows=len(tables[-1].rows))
        return tables

    def check(self, index, tables, tr) -> None:
        net = self.networks[index]
        for table in tables:
            check_table_rows(table.rows, Network.WIRES, net)
        check_modes_agree(tables[0].rows, tables[1].rows, f"net{index}")
        expect(is_reversible(tables[0].rows, len(tables[0].inputs),
                             len(tables[0].outputs)),
               f"net{index}: table of reversible gates is not a bijection")

    def extras(self, index, tables, tr) -> None:
        pass


class LibraryVerify:
    """``marblesim verify`` and ``marblesim table`` for every library gate
    and both modes, in process through the command line entry point."""

    def __init__(self, P, rng, tr):
        self.P = P
        self.gates = sorted(GATE_FUNCTIONS)
        rng.shuffle(self.gates)
        self.modes = ["bounce", "merge"]
        rng.shuffle(self.modes)

    def round(self):
        return [None]

    def vectors(self, spec) -> int:
        # Rows tabulated: both modes by verify, both modes by table.
        return 4 * sum(2 ** gate_arity(g) for g in self.gates)

    def run(self, spec, tr):
        outputs = [("verify", _run_cli(self.P, tr,
                                       ["verify", "--format", "records"]))]
        for gate in self.gates:
            for mode in self.modes:
                outputs.append(((gate, mode), _run_cli(
                    self.P, tr, ["table", gate, "--mode", mode,
                                 "--format", "records"])))
        return outputs

    def check(self, spec, outputs, tr) -> None:
        rows = {}
        for what, (code, text) in outputs:
            expect(code == 0, f"{what}: exit code {code}")
            if what == "verify":
                check_verify(parse_verify_records(text))
            else:
                gate, mode = what
                rows[what] = parse_table_records(text)
                check_table_rows(rows[what], gate_arity(gate),
                                 GATE_FUNCTIONS[gate])
        for gate in self.gates:
            check_modes_agree(rows[gate, "bounce"], rows[gate, "merge"], gate)

    def extras(self, spec, outputs, tr) -> None:
        for gate in self.gates:
            tr.call("analysis.verify_gate", self.P.verify_gate, gate)


WORKLOADS = {
    "adder_compile": AdderCompile,
    "vector_runs": VectorRuns,
    "exhaustive_tables": ExhaustiveTables,
    "library_verify": LibraryVerify,
}


def probe(P, tr) -> None:
    """One call of every layer function on fixed inputs.  A traced run
    takes a per-layer metric from here only when its workload never calls
    that function itself."""
    rng = random.Random("probe")
    for n in (4, 32):
        ast = tr.call("netlist.parse", P.parse, adder_source(n))
        tr.call("netlist.validate", P.validate, ast)
        circuit = tr.call("netlist.elaborate", P.elaborate, ast)
        count_circuit(P, tr, circuit, n)
        flat = tr.call("netlist.circuit_to_ast", P.circuit_to_ast, circuit)
        tr.call("netlist.flat_validate", P.validate, flat, {})
        expect(tr.call("analysis.timing_lint", P.timing_lint, circuit) == (),
               f"{n}-bit adder: lint after repair")
    for mode in (P.BOUNCE, P.MERGE):  # through the 32-bit adder
        for _ in range(2):
            bits = random_bits(rng, 2 * n + 1)
            outputs, trace, ledger = tr.call(
                "sim.simulate", P.simulate, circuit, bits,
                P.SimConfig(mode=mode))
            tr.count(events=len(trace.events))
            check_sum(n, bits, outputs)
            check_ledger(tr.call("sim.run_ledger", P.run_ledger, trace), bits)
            outputs, _, _ = tr.call(
                "sim.simulate_untraced", P.simulate, circuit, bits,
                P.SimConfig(mode=mode, trace_enabled=False))
            check_sum(n, bits, outputs)
    small = tr.call("netlist.elaborate", P.elaborate,
                    tr.call("netlist.parse", P.parse, adder_source(3)))
    count_circuit(P, tr, small, 3)
    for mode in (P.BOUNCE, P.MERGE):
        table = tr.call("analysis.truth_table", P.truth_table, small, mode)
        tr.count(rows=len(table.rows))
        for bits, outputs in table.rows:
            check_sum(3, bits, outputs)
    for gate in sorted(GATE_FUNCTIONS):
        tr.call("analysis.verify_gate", P.verify_gate, gate)
    for argv in (["verify", "FREDKIN_DIRECT", "--format", "records"],
                 ["table", "TOFFOLI", "--mode", "merge", "--format",
                  "records"]):
        code, _ = _run_cli(P, tr, argv)
        expect(code == 0, f"{argv}: exit code {code}")
