import dataclasses
import pickle
import random
import re
from functools import partial
from itertools import product

import pytest

import composer
from marblesim import (Channel, Circuit, CollisionMode, MarblesimError,
                       NodeDecl, NodeKind, SimConfig, TruthTable,
                       boolean_spec, check_conservative, check_reversible,
                       circuit_to_ast, elaborate, get_macro, library, parse,
                       physically_conservative, print_canonical, simulate,
                       timing_lint, truth_table, validate, verify_gate)
from marblesim import analysis, netlist
from marblesim.cli import format_report, format_table


def circuit_for(name):
    return elaborate(get_macro(name).expansion)


class TestTruthTable:
    def test_rows_count_up_with_first_input_most_significant(self):
        table = truth_table(circuit_for("FULL_ADDER"), CollisionMode.BOUNCE)
        assert [bits for bits, _ in table.rows] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]
        assert table.inputs == ("a", "b", "cin")
        assert table.outputs == ("sum", "cout")

    def test_input_count_is_capped(self):
        names = ", ".join(f"i{k}" for k in range(17))
        lines = ["circuit wide", f"input {names}", "output y",
                 "node M : join"]
        lines += [f"connect i{k} -> M.in{k + 1}" for k in range(17)]
        lines += ["connect M.out -> y"]
        circuit = elaborate(parse("\n".join(lines) + "\n"))
        with pytest.raises(ValueError, match=(
                "^circuit 'wide' has 17 inputs; refusing to enumerate more "
                "than 16$")):
            truth_table(circuit, CollisionMode.BOUNCE)

    def test_mode_must_be_a_collision_mode(self):
        with pytest.raises(ValueError, match=(
                "^mode must be a CollisionMode, got 'bounce'$")):
            truth_table(circuit_for("AND"), "bounce")

    def test_skips_the_physical_count(self, monkeypatch):
        # FREDKIN_DIRECT cuts and merges marbles; only verify_gate reads
        # the count of both.
        def refuse(*args):
            raise AssertionError("truth_table counted cuts or merges")
        monkeypatch.setattr(analysis, "_count", refuse)
        circuit = circuit_for("FREDKIN_DIRECT")
        table = truth_table(circuit, CollisionMode.MERGE)
        assert all(boolean_spec("FREDKIN_DIRECT", bits) == outputs
                   for bits, outputs in table.rows)
        with pytest.raises(AssertionError, match="counted"):
            verify_gate("FREDKIN_DIRECT")


def simulated_table(circuit, mode):
    """The oracle: one untraced simulation per input vector."""
    config = SimConfig(mode=mode, trace_enabled=False)
    rows = tuple((bits, simulate(circuit, bits, config)[0])
                 for bits in composer.input_vectors(circuit))
    return TruthTable(circuit.name, mode, circuit.inputs, circuit.outputs,
                      rows)


def outcome(tabulate, circuit, mode):
    """The table, or the class and message of the error raised instead."""
    try:
        return tabulate(circuit, mode)
    except MarblesimError as err:
        return type(err), str(err)


def differential_circuits():
    for macro in library():
        for holds in (True, False):
            yield elaborate(macro.expansion, insert_holds=holds)
    for seed in range(60):
        yield elaborate(parse(composer.compose_source(seed)))
    for seed in range(60):
        for holds in (True, False):
            yield elaborate(parse(composer.primitive_source(seed)),
                            insert_holds=holds)


class TestBitParallelTable:
    """``truth_table`` evaluates all vectors at once over presence masks;
    the simulator, one vector at a time, is what it must agree with."""

    def test_agrees_with_simulation_vector_by_vector(self):
        skewed = contended = 0
        for circuit in differential_circuits():
            skewed += bool(timing_lint(circuit))
            for mode in CollisionMode:
                expected = outcome(simulated_table, circuit, mode)
                assert outcome(truth_table, circuit, mode) == expected, (
                    circuit.name, mode)
                contended += (not isinstance(expected, TruthTable)
                              and "two marbles reached" in expected[1])
        assert skewed and contended

    def test_agrees_with_simulation_over_every_small_netlist(self):
        # The small-scope corpus: every well-formed primitive netlist with
        # at most two inputs and two nodes, with and without hold repair.
        # An unrepaired circuit that repair left unchanged is not run twice.
        netlists = repaired = contended = 0
        for source in composer.small_netlists(2, 2):
            netlists += 1
            ast = parse(source)
            circuits = [elaborate(ast)]
            unrepaired = elaborate(ast, insert_holds=False)
            if unrepaired != circuits[0]:
                circuits.append(unrepaired)
                repaired += 1
            for circuit in circuits:
                for mode in CollisionMode:
                    expected = outcome(simulated_table, circuit, mode)
                    assert outcome(truth_table, circuit, mode) == expected, (
                        source, mode)
                    contended += not isinstance(expected, TruthTable)
        assert (netlists, repaired, contended) == (3971, 388, 20)

    @pytest.fixture
    def simulations(self, monkeypatch):
        """The vectors ``truth_table`` hands to the simulator."""
        calls = []

        def counted(circuit, bits, config):
            calls.append(bits)
            return simulate(circuit, bits, config)
        monkeypatch.setattr(analysis, "simulate", counted)
        return calls

    def test_balanced_circuits_are_not_simulated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("truth_table ran the simulator")
        monkeypatch.setattr(analysis, "simulate", refuse)
        for macro in library():
            circuit = elaborate(macro.expansion)
            for mode in CollisionMode:
                assert all(boolean_spec(macro.name, bits) == outputs
                           for bits, outputs
                           in truth_table(circuit, mode).rows)
        adder = elaborate(parse(composer.ripple_adder_source(6)))
        assert len(adder.inputs) == 13
        for mode in CollisionMode:
            table = truth_table(adder, mode)
            assert len(table.rows) == 2 ** 13
            for bits, outputs in table.rows:
                a = sum(bit << k for k, bit in enumerate(bits[:6]))
                b = sum(bit << k for k, bit in enumerate(bits[6:12]))
                total = sum(bit << k for k, bit in enumerate(outputs))
                assert total == a + b + bits[12]

    def test_skewed_circuit_is_simulated_vector_by_vector(
            self, fixtures, simulations):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        for mode in CollisionMode:
            assert truth_table(circuit, mode) == simulated_table(circuit,
                                                                 mode)
        assert simulations == composer.input_vectors(circuit) * 2

    def test_skewed_circuit_is_simulated_on_every_table(
            self, fixtures, simulations):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        expected = simulated_table(circuit, CollisionMode.BOUNCE)
        simulations.clear()
        for _ in range(2):
            assert truth_table(circuit, CollisionMode.BOUNCE) == expected
        assert simulations == composer.input_vectors(circuit) * 2

    def test_rewired_copy_tabulates_from_its_own_wiring(self, fixtures):
        circuit = elaborate(parse((fixtures / "junction.mnl").read_text()))
        tables = {mode: truth_table(circuit, mode) for mode in CollisionMode}
        # Swap the outputs that the lone marbles' exits O1 and O5 feed.
        swap = {"o1": "o5", "o5": "o1"}
        rewired = dataclasses.replace(circuit, channels=tuple(
            ch._replace(dst=swap.get(ch.dst, ch.dst))
            for ch in circuit.channels))
        for mode in CollisionMode:
            table = truth_table(rewired, mode)
            assert table == simulated_table(rewired, mode)
            assert table.rows != tables[mode].rows
            assert truth_table(circuit, mode) == tables[mode]

    def test_tabulated_circuit_pickles(self):
        for build in (lambda: circuit_for("FREDKIN_DIRECT"),
                      lambda: twelve_wide()[0]):
            circuit = build()
            untabulated = repr(circuit), len(pickle.dumps(circuit))
            tables = [truth_table(circuit, mode) for mode in CollisionMode]
            assert repr(circuit) == untabulated[0]
            assert circuit == build()
            # The circuit keeps its mask pass order, but no input vectors.
            assert "_mask_order" in vars(circuit)
            assert len(pickle.dumps(circuit)) < 2 * untabulated[1]
            copy = pickle.loads(pickle.dumps(circuit))
            assert copy == circuit
            assert [truth_table(copy, mode)
                    for mode in CollisionMode] == tables

    def test_contention_raises_the_simulators_error(self, simulations):
        # Several vectors contend here, and the lowest one's error differs
        # from the highest one's.
        circuit = elaborate(parse(composer.primitive_source(107)))
        for mode in CollisionMode:
            expected = outcome(simulated_table, circuit, mode)
            assert re.fullmatch(r"two marbles reached \S+\.\S+ in phase \d+",
                                expected[1])
            assert outcome(truth_table, circuit, mode) == expected
        # Only the lowest contending vector, once per mode.
        assert len(simulations) == 2

    def test_a_rule_the_simulator_refutes_is_an_error(self, monkeypatch,
                                                      simulations):
        # A join rule that reports two marbles wherever it has one flags
        # contention at junction J2, which FREDKIN_DIRECT's join M feeds;
        # the simulator runs that vector clean, so no table may come out.
        route = analysis._presence_route

        def over_flagging(kind, ins, mode, full):
            routed = route(kind, ins, mode, full)
            if kind is NodeKind.JOIN:
                ((one, _),) = routed
                return ((one, one),)
            return routed
        monkeypatch.setattr(analysis, "_presence_route", over_flagging)
        circuit = circuit_for("FREDKIN_DIRECT")
        assert ("M", "out", "J2", "A") in [channel[:4]
                                           for channel in circuit.channels]
        for mode in CollisionMode:
            with pytest.raises(MarblesimError, match=(
                    f"^circuit 'fredkin_direct', mode {mode.value}, inputs "
                    f"100: the mask pass and the simulator disagree$")):
                truth_table(circuit, mode)
        with pytest.raises(MarblesimError, match=(
                "^circuit 'fredkin_direct', mode bounce, inputs 100: the "
                "mask pass and the simulator disagree$")):
            verify_gate("FREDKIN_DIRECT")
        # Only the lowest flagged vector, once per table.
        assert simulations == [(1, 0, 0)] * 3

    @pytest.mark.parametrize("channels, phases, inputs, outputs", [
        # The hold releases at phase 0, before a's marble reaches it.
        ((("a", "out", "H", "in"), ("H", "out", "y", "in")),
         {"a": 0, "H": 0, "y": 1}, ("a",), ("y",)),
        # Two channels into one port.
        ((("a", "out", "H", "in"), ("b", "out", "H", "in"),
          ("H", "out", "y", "in")),
         {"a": 0, "b": 0, "H": 1, "y": 2}, ("a", "b"), ("y",)),
        # A tap's copy has no channel to leave on.
        ((("a", "out", "T", "in"), ("T", "out", "y", "in")),
         {"a": 0, "T": 1, "y": 2}, ("a",), ("y",)),
        # Channels into ports their kinds never read: the simulator parks
        # a's marble at H.x, a syringe injects although a marble reached
        # S.x, and an output counts a marble on y.x.
        ((("a", "out", "H", "x"), ("H", "out", "y", "in")),
         {"a": 0, "H": 1, "y": 2}, ("a",), ("y",)),
        ((("a", "out", "S", "x"), ("S", "out", "y", "in")),
         {"a": 0, "S": 1, "y": 2}, ("a",), ("y",)),
        ((("a", "out", "y", "x"),), {"a": 0, "y": 1}, ("a",), ("y",)),
        # An output that names a hold, which a's marble only passes.
        ((("a", "out", "H", "in"), ("H", "out", "y", "in")),
         {"a": 0, "H": 1, "y": 2}, ("a",), ("H",)),
        # An output that names the waste node a's marble ends in.
        ((("a", "out", "W", "in"),), {"a": 0, "W": 1}, ("a",), ("W",)),
        # An input that names a hold, which fires with nothing to release.
        ((("H", "out", "y", "in"),), {"H": 0, "y": 1}, ("H",), ("y",)),
        # A hold that is never fed.
        ((("a", "out", "W", "in"), ("H", "out", "W", "in"),
          ("b", "out", "y", "in")),
         {"a": 0, "b": 0, "H": 0, "W": 1, "y": 1}, ("a", "b"), ("y",)),
        # Two channels from one out port: the simulator takes the last.
        ((("a", "out", "y", "in"), ("a", "out", "z", "in")),
         {"a": 0, "y": 1, "z": 1}, ("a",), ("y", "z")),
        # One input named twice: its marble comes when either bit is set.
        ((("a", "out", "y", "in"),), {"a": 0, "y": 1}, ("a", "a"), ("y",)),
        # Marbles into an input node and into a const, which never read
        # them, so the simulator leaves them parked.
        ((("K", "out", "a", "in"), ("a", "out", "y", "in")),
         {"K": 0, "a": 1, "y": 2}, ("a",), ("y",)),
        ((("a", "out", "K", "in"), ("K", "out", "y", "in")),
         {"a": 0, "K": 1, "y": 2}, ("a",), ("y",)),
        # A syringe fed a phase early, which it reads only in its own
        # phase: its marble goes to the pocket, and the syringe injects.
        ((("a", "out", "S", "in"), ("S", "out", "y", "in")),
         {"a": 0, "S": 2, "y": 3}, ("a",), ("y",)),
    ])
    def test_hand_built_circuits_agree_with_simulation(self, channels,
                                                       phases, inputs,
                                                       outputs):
        # The mask pass takes none of these: each goes to the simulator.
        kinds = {"a": NodeKind.INPUT, "b": NodeKind.INPUT,
                 "H": NodeKind.HOLD, "K": NodeKind.CONST,
                 "S": NodeKind.SYRINGE, "T": NodeKind.TAP,
                 "W": NodeKind.WASTE, "y": NodeKind.OUTPUT,
                 "z": NodeKind.OUTPUT}
        circuit = Circuit(
            "hand", inputs, outputs,
            {name: NodeDecl(name, kinds[name]) for name in phases},
            tuple(Channel(*ends) for ends in channels), phases)
        assert circuit._mask_order is None
        for mode in CollisionMode:
            assert (outcome(truth_table, circuit, mode)
                    == outcome(simulated_table, circuit, mode))

    def test_only_off_schedule_circuits_are_simulated(self):
        # Every circuit the differential run elaborates is wired as
        # validate accepts it, so the pass refuses only a schedule miss.
        for circuit in differential_circuits():
            off = next(netlist._off_schedule(
                circuit.nodes, circuit.channels, circuit.phases), None)
            assert (circuit._mask_order is None) == (off is not None), (
                circuit.name)


def wire_network(width, stages, order):
    """A circuit that applies library gates to ``width`` wires in turn,
    each stage a gate name and the wires it takes, and outputs the wires
    in ``order``; with its function, composed from ``boolean_spec``."""
    signal = [f"x{k}" for k in range(width)]
    lines = [f"circuit net{width}", "input " + ", ".join(signal),
             "output " + ", ".join(f"y{k}" for k in range(width))]
    for g, (name, wires) in enumerate(stages):
        macro = get_macro(name)
        lines.append(f"gate G{g} : {name}")
        lines += [f"connect {signal[wire]} -> G{g}.{port}"
                  for port, wire in zip(macro.inputs, wires)]
        for port, wire in zip(macro.outputs, wires):
            signal[wire] = f"G{g}.{port}"
    lines += [f"connect {signal[wire]} -> y{k}"
              for k, wire in enumerate(order)]

    def function(bits):
        values = list(bits)
        for name, wires in stages:
            spec = boolean_spec(name, tuple(values[w] for w in wires))
            for wire, value in zip(wires, spec):
                values[wire] = value
        return tuple(values[w] for w in order)
    return elaborate(parse("\n".join(lines) + "\n")), function


def twelve_wide():
    """Two layers of Fredkin and Toffoli gates on 12 wires, seeded."""
    rng = random.Random(12)
    stages = []
    for names, count in ((["FREDKIN_DIRECT", "FREDKIN_DIRECT", "TOFFOLI",
                           "TOFFOLI"], 12),
                         (["FREDKIN_DIRECT", "TOFFOLI"], 6)):
        rng.shuffle(names)
        wires = rng.sample(range(12), count)
        stages += [(name, tuple(wires[3 * g:3 * g + 3]))
                   for g, name in enumerate(names)]
    return wire_network(12, stages, rng.sample(range(12), 12))


def wires(n):
    """A hand-built permutation of ``n`` wires in a seeded order, so the
    all-ones vector's output code is all ones."""
    order = random.Random(n).sample(range(n), n)
    inputs = tuple(f"x{k}" for k in range(n))
    outputs = tuple(f"y{k}" for k in range(n))
    nodes = {name: NodeDecl(name, NodeKind.INPUT) for name in inputs}
    nodes.update((name, NodeDecl(name, NodeKind.OUTPUT)) for name in outputs)
    circuit = Circuit(
        f"perm{n}", inputs, outputs, nodes,
        tuple(Channel(inputs[wire], "out", y, "in")
              for y, wire in zip(outputs, order)),
        dict.fromkeys(inputs, 0) | dict.fromkeys(outputs, 1))
    return circuit, lambda bits: tuple(bits[w] for w in order)


def ripple_adder(bits):
    """The ``bits``-bit ripple-carry adder, with its function: outputs
    least significant first, then the carry."""
    def function(vector):
        a, b = (sum(bit << k for k, bit in enumerate(vector[start:][:bits]))
                for start in (0, bits))
        total = a + b + vector[-1]
        return tuple(total >> k & 1 for k in range(bits + 1))
    return elaborate(parse(composer.ripple_adder_source(bits))), function


def fan_out(taps):
    """One input copied onto ``taps + 1`` outputs by a chain of taps."""
    lines = ["circuit fan", "input a",
             "output " + ", ".join(f"y{k}" for k in range(taps + 1)),
             "connect a -> T0.in"]
    for k in range(taps):
        lines += [f"node T{k} : tap", f"connect T{k}.copy -> y{k}",
                  f"connect T{k}.out -> "
                  + (f"T{k + 1}.in" if k + 1 < taps else f"y{taps}")]
    circuit = elaborate(parse("\n".join(lines) + "\n"))
    return circuit, lambda bits: bits * (taps + 1)


def tapped_twelve():
    """Twelve inputs, the first five also copied by taps: 17 outputs."""
    outputs = [f"y{k}" for k in range(12)] + [f"c{k}" for k in range(5)]
    lines = ["circuit tapped",
             "input " + ", ".join(f"x{k}" for k in range(12)),
             "output " + ", ".join(outputs)]
    for k in range(5):
        lines += [f"node T{k} : tap", f"connect x{k} -> T{k}.in",
                  f"connect T{k}.out -> y{k}", f"connect T{k}.copy -> c{k}"]
    lines += [f"connect x{k} -> y{k}" for k in range(5, 12)]
    circuit = elaborate(parse("\n".join(lines) + "\n"))
    return circuit, lambda bits: bits + bits[:5]


def sink():
    """Two inputs into a waste node: rows with no outputs."""
    source = ("circuit sink\ninput a, b\nnode W : waste\n"
              "connect a -> W.in\nconnect b -> W.in\n")
    return elaborate(parse(source)), lambda bits: ()


class TestEqualArityRows:
    """Each row's outputs are read from the output masks, whatever the
    circuit's arity, and none is simulated: with no more outputs than
    inputs they are the vector of their own code, and where the circuit
    has as many outputs as inputs, an input vector."""

    @pytest.mark.parametrize("build", [
        lambda: wire_network(1, [("NOT_SYRINGE", (0,))], [0]),
        lambda: wire_network(2, [("NOT_INTERACTION", (1,))], [1, 0]),
        lambda: wire_network(3, [("TOFFOLI", (0, 1, 2)),
                                 ("FREDKIN_CHAINED", (2, 0, 1)),
                                 ("FREDKIN_DIRECT", (1, 2, 0))], [2, 0, 1]),
        twelve_wide,
        partial(wires, 16),
        lambda: ripple_adder(1),
        lambda: ripple_adder(6),
        lambda: fan_out(1),
        lambda: fan_out(16),
        tapped_twelve,
        sink,
        # The pass builds each input's presence mask by doubling a run,
        # so every width takes its own number of steps.
        *(partial(wires, n) for n in range(1, 16)),
    ], ids=["1", "2", "3", "12", "16", "3-to-2", "13-to-7", "1-to-2",
            "1-to-17", "12-to-17", "2-to-0",
            *(f"perm{n}" for n in range(1, 16))])
    def test_rows_match_a_product_and_zip_oracle(self, build, monkeypatch):
        def refuse(*args):
            raise AssertionError("truth_table ran the simulator")
        monkeypatch.setattr(analysis, "simulate", refuse)
        circuit, function = build()
        n = len(circuit.inputs)
        assert circuit._mask_order is not None
        vectors = list(product((0, 1), repeat=n))
        expected = tuple(zip(vectors, map(function, vectors)))
        for mode in CollisionMode:
            table = truth_table(circuit, mode)
            assert table.rows == expected
            if n <= 3:
                assert table == simulated_table(circuit, mode)
        if n == 16:
            assert expected[-1] == ((1,) * 16, (1,) * 16)

    def test_more_outputs_than_inputs_read_only_the_input_width(
            self, monkeypatch):
        kept, widths = analysis._input_vectors, []

        def recorded(n):
            widths.append(n)
            return kept(n)
        monkeypatch.setattr(analysis, "_input_vectors", recorded)
        circuit, _ = fan_out(15)
        for mode in CollisionMode:
            assert truth_table(circuit, mode).rows == (
                ((0,), (0,) * 16), ((1,), (1,) * 16))
        assert set(widths) == {1}

    @pytest.mark.parametrize("source, rows", [
        ("circuit k\noutput y\nnode K : const1\nconnect K.out -> y\n",
         (((), (1,)),)),
        ("circuit z\nnode K : const1\nnode W : waste\n"
         "connect K.out -> W.in\n", (((), ()),)),
    ], ids=["one-output", "no-output"])
    def test_zero_inputs(self, source, rows):
        ast = parse(source)
        assert validate(ast) == []
        circuit = elaborate(ast)
        for mode in CollisionMode:
            table = truth_table(circuit, mode)
            assert table.rows == rows
            assert table == simulated_table(circuit, mode)

    def test_tables_share_the_circuits_input_vectors(self):
        # Circuits of one input width share their input tuples, and every
        # output tuple is the vector of its code at the output width.
        for circuits in (
                (circuit_for("FREDKIN_DIRECT"), circuit_for("TOFFOLI")),
                (twelve_wide()[0],
                 wire_network(12, [("FREDKIN_DIRECT", (0, 5, 11))],
                              range(11, -1, -1))[0]),
                (circuit_for("XOR"), circuit_for("AND")),
                (ripple_adder(6)[0],)):
            tables = [truth_table(circuit, mode) for circuit in circuits
                      for mode in CollisionMode]
            tables.append(truth_table(circuits[0], CollisionMode.BOUNCE))
            vectors = analysis._input_vectors(len(circuits[0].inputs))
            images = analysis._input_vectors(len(circuits[0].outputs))
            for table in tables:
                assert all(bits is vector and outputs
                           is images[int("".join(map(str, outputs)), 2)]
                           for (bits, outputs), vector
                           in zip(table.rows, vectors, strict=True))

    def test_vectors_are_kept_for_the_last_two_widths(self):
        for name in ("NOT_SYRINGE", "XOR", "FULL_ADDER"):
            truth_table(circuit_for(name), CollisionMode.BOUNCE)
        kept = analysis._input_vectors.cache_info()
        assert kept.currsize <= 2
        # FULL_ADDER's widths, 3 inputs and 2 outputs.
        analysis._input_vectors(3)
        analysis._input_vectors(2)
        assert analysis._input_vectors.cache_info().hits == kept.hits + 2


def simulated_verdicts(circuit, mode):
    """The oracle for verification: each row simulated untraced, with
    whether its ledger is physically conservative."""
    config = SimConfig(mode=mode, trace_enabled=False)
    verdicts = []
    for bits in composer.input_vectors(circuit):
        outputs, _, ledger = simulate(circuit, bits, config)
        verdicts.append((bits, outputs, physically_conservative(ledger)))
    return verdicts


def mask_verdicts(circuit, mode):
    """The same from one presence-mask pass, or None where ``_compile``
    refuses the circuit."""
    if circuit._mask_order is None:
        return None
    table, slots = analysis._tabulate(circuit, mode)
    spoiled = analysis._spoiled(circuit, slots)
    return [(bits, outputs, not (spoiled >> v) & 1)
            for v, (bits, outputs) in enumerate(table.rows)]


class TestPhysicalVerdict:
    """``verify_gate`` judges physical conservativity per vector from the
    slots the mask pass leaves; each row's simulated ledger is what it
    must agree with."""

    def test_agrees_with_simulation_row_by_row(self):
        masked = fell_back = 0
        verdicts = set()
        for circuit in differential_circuits():
            for mode in CollisionMode:
                expected = outcome(simulated_verdicts, circuit, mode)
                got = outcome(mask_verdicts, circuit, mode)
                if got is None:
                    fell_back += 1
                else:
                    assert got == expected, (circuit.name, mode)
                    masked += 1
                    if isinstance(got, list):
                        verdicts.update(ok for *_, ok in got)
        assert masked and fell_back and verdicts == {True, False}

    @pytest.mark.parametrize("inputs, outputs, kinds, channels, phases", [
        # Two channels into one waste node: a run is spoiled where either
        # brings a marble.
        (("a", "b", "c"), ("y",),
         {"a": NodeKind.INPUT, "b": NodeKind.INPUT, "c": NodeKind.INPUT,
          "W": NodeKind.WASTE, "y": NodeKind.OUTPUT},
         (("a", "out", "W", "in"), ("b", "out", "W", "in"),
          ("c", "out", "y", "in")),
         {"a": 0, "b": 0, "c": 0, "W": 1, "y": 1}),
        # A tap injects only where its input is present.
        (("a",), ("y", "z"),
         {"a": NodeKind.INPUT, "T": NodeKind.TAP, "y": NodeKind.OUTPUT,
          "z": NodeKind.OUTPUT},
         (("a", "out", "T", "in"), ("T", "out", "y", "in"),
          ("T", "copy", "z", "in")),
         {"a": 0, "T": 1, "y": 2, "z": 2}),
        # A syringe injects or swallows under every vector.
        (("a",), ("y",),
         {"a": NodeKind.INPUT, "S": NodeKind.SYRINGE, "y": NodeKind.OUTPUT},
         (("a", "out", "S", "in"), ("S", "out", "y", "in")),
         {"a": 0, "S": 1, "y": 2}),
        # A cut whose halves meet again: conservative when they merge.
        (("a",), ("o1", "o2", "o3", "o4", "o5"),
         {"a": NodeKind.INPUT, "C": NodeKind.SCALPEL,
          "J": NodeKind.JUNCTION, **{f"o{k}": NodeKind.OUTPUT
                                     for k in range(1, 6)}},
         (("a", "out", "C", "in"), ("C", "out1", "J", "A"),
          ("C", "out2", "J", "B"),
          *(("J", f"O{k}", f"o{k}", "in") for k in range(1, 6))),
         {"a": 0, "C": 1, "J": 2, **{f"o{k}": 3 for k in range(1, 6)}}),
        # Two cuts and no merge: the counts need a second binary digit.
        (("a",), ("y1", "y2", "y3"),
         {"a": NodeKind.INPUT, "C1": NodeKind.SCALPEL,
          "C2": NodeKind.SCALPEL, "y1": NodeKind.OUTPUT,
          "y2": NodeKind.OUTPUT, "y3": NodeKind.OUTPUT},
         (("a", "out", "C1", "in"), ("C1", "out1", "C2", "in"),
          ("C1", "out2", "y3", "in"), ("C2", "out1", "y1", "in"),
          ("C2", "out2", "y2", "in")),
         {"a": 0, "C1": 1, "C2": 2, "y1": 3, "y2": 3, "y3": 3}),
    ])
    def test_hand_built_circuits_agree_with_simulation(
            self, inputs, outputs, kinds, channels, phases):
        circuit = Circuit(
            "hand", inputs, outputs,
            {name: NodeDecl(name, kinds[name]) for name in phases},
            tuple(Channel(*ends) for ends in channels), phases)
        for mode in CollisionMode:
            expected = simulated_verdicts(circuit, mode)
            assert mask_verdicts(circuit, mode) == expected, mode

    def test_off_schedule_circuit_falls_back(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        for mode in CollisionMode:
            assert mask_verdicts(circuit, mode) is None
            expected = simulated_verdicts(circuit, mode)
            assert truth_table(circuit, mode).rows == tuple(
                row[:2] for row in expected)

    def test_library_reports_match_the_per_row_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_gate ran the simulator")
        monkeypatch.setattr(analysis, "simulate", refuse)
        reports = [verify_gate(macro.name) for macro in library()]
        monkeypatch.setattr(analysis, "simulate", simulate)
        for report in reports:
            circuit = circuit_for(report.name)
            for mode, table, physical in zip(
                    (CollisionMode.BOUNCE, CollisionMode.MERGE),
                    report.tables, report.physical, strict=True):
                assert table == simulated_table(circuit, mode)
                assert physical == all(
                    ok for *_, ok in simulated_verdicts(circuit, mode)), (
                    report.name, mode)


class _Vectors(frozenset):
    """Presence as the set of vector numbers it holds, out of ``count``:
    a stand-in for int masks that shares no arithmetic with them.  The
    pass also meets the ints 0, no vector, and -1, every vector."""

    count = 0

    def _set(self, other):
        if isinstance(other, frozenset):
            return other
        assert other in (0, -1)
        return frozenset(range(self.count) if other else ())

    def __and__(self, other):
        return type(self)(frozenset.__and__(self, self._set(other)))

    def __or__(self, other):
        return type(self)(frozenset.__or__(self, self._set(other)))

    def __xor__(self, other):
        return type(self)(frozenset.__xor__(self, self._set(other)))

    def __invert__(self):
        return type(self)(frozenset(range(self.count)).difference(self))

    __rand__, __ror__, __rxor__ = __and__, __or__, __xor__


def routed(circuit, mode, presence):
    """The slots and contention value of ``analysis._route`` over the
    circuit, its inputs seeded as ``_tabulate`` seeds them, in the
    value type ``presence`` makes from a set of vector numbers."""
    steps, inputs, _, _ = circuit._mask_order
    n = len(circuit.inputs)
    count = 1 << n
    none = presence(frozenset())
    slots = [(none, none)] * len(circuit.channels)
    for k, slot in enumerate(inputs):
        slots[slot] = (presence(frozenset(
            [v for v in range(count) if v >> (n - 1 - k) & 1])), none)
    flagged = analysis._route(steps, slots, mode,
                              presence(frozenset(range(count))))
    return slots, flagged


def as_mask(value, count):
    if isinstance(value, frozenset):
        return sum(1 << v for v in value)
    return (1 << count) - 1 if value == -1 else value


class TestGenericRoute:
    """The mask pass's loop takes any value type with the mask operators,
    as a symbolic pass would use it; over sets of vector numbers it must
    route exactly as over int masks."""

    def route_both(self, circuit, mode):
        count = 1 << len(circuit.inputs)
        sets = type("Vectors", (_Vectors,), {"count": count})
        slots, flagged = routed(circuit, mode, sets)
        ints = routed(circuit, mode,
                      lambda vectors: sum(1 << v for v in vectors))
        converted = [(as_mask(one, count), as_mask(two, count))
                     for one, two in slots]
        return (converted, as_mask(flagged, count)), ints

    def test_sets_route_as_int_masks(self):
        circuits = [elaborate(macro.expansion) for macro in library()]
        circuits += [twelve_wide()[0], tapped_twelve()[0]]
        for circuit in circuits:
            for mode in CollisionMode:
                (slots, flagged), ints = self.route_both(circuit, mode)
                assert (slots, flagged) == ints, (circuit.name, mode)
                assert flagged == 0
                assert slots == analysis._tabulate(circuit, mode)[1]

    def test_sets_find_the_same_contention(self):
        circuit = elaborate(parse(composer.primitive_source(107)))
        for mode in CollisionMode:
            found, ints = self.route_both(circuit, mode)
            assert found == ints
            assert found[1]


class TestTableProperties:
    def synthetic(self, n_in, n_out, mapping):
        rows = tuple((bits, mapping[bits]) for bits in sorted(mapping))
        return TruthTable("t", CollisionMode.BOUNCE,
                          tuple(f"i{k}" for k in range(n_in)),
                          tuple(f"o{k}" for k in range(n_out)), rows)

    def test_unequal_arity_is_never_reversible(self):
        table = self.synthetic(2, 1, {(0, 0): (0,), (0, 1): (1,),
                                      (1, 0): (1,), (1, 1): (0,)})
        assert not check_reversible(table)

    def test_injective_equal_arity_is_reversible(self):
        table = self.synthetic(1, 1, {(0,): (1,), (1,): (0,)})
        assert check_reversible(table)

    def test_collision_breaks_reversibility(self):
        table = self.synthetic(1, 1, {(0,): (0,), (1,): (0,)})
        assert not check_reversible(table)

    def test_conservative_counts_set_bits(self):
        swap = self.synthetic(2, 2, {(0, 0): (0, 0), (0, 1): (1, 0),
                                     (1, 0): (0, 1), (1, 1): (1, 1)})
        assert check_conservative(swap)
        drop = self.synthetic(2, 2, {(0, 0): (0, 0), (0, 1): (0, 0),
                                     (1, 0): (0, 1), (1, 1): (1, 1)})
        assert not check_conservative(drop)


class TestVerifyGate:
    def test_and_gate_report(self):
        report = verify_gate("AND")
        assert report.ok
        assert report.table_ok == (True, True)
        assert report.modes_agree
        assert not report.reversible
        assert not report.conservative
        assert report.physical == (False, False)

    def test_fredkin_direct_is_fully_conservative(self):
        report = verify_gate("FREDKIN_DIRECT")
        assert report.ok
        assert report.reversible and report.conservative
        assert report.physical == (True, True)

    def test_fredkin_chained_is_only_logically_conservative(self):
        report = verify_gate("FREDKIN_CHAINED")
        assert report.ok
        assert report.conservative
        assert report.physical == (False, False)

    def test_toffoli_is_reversible_but_not_conservative(self):
        report = verify_gate("TOFFOLI")
        assert report.ok
        assert report.reversible
        assert not report.conservative

    def test_each_mode_is_checked_against_the_spec(self, monkeypatch):
        tabulate = analysis._tabulate

        def flip_merge(circuit, mode):
            table, slots = tabulate(circuit, mode)
            if mode is CollisionMode.MERGE:
                (bits, (out,)), *rest = table.rows
                table = table._replace(rows=((bits, (1 - out,)), *rest))
            return table, slots

        monkeypatch.setattr(analysis, "_tabulate", flip_merge)
        report = verify_gate("AND")
        assert report.table_ok == (True, False)
        assert not report.modes_agree
        assert not report.ok

    def test_gate_the_mask_pass_cannot_take_is_an_error(self, monkeypatch):
        # Refused before any vector is simulated.
        monkeypatch.setattr(analysis, "_compile", lambda circuit: None)
        monkeypatch.setattr(analysis, "simulate", None)
        with pytest.raises(MarblesimError, match=(
                "^gate 'FREDKIN_DIRECT': the mask pass cannot tabulate its "
                "circuit$")):
            verify_gate("FREDKIN_DIRECT")

    def test_claims_ok_detects_library_drift(self):
        report = verify_gate("NOR_ALT")
        assert report.claims_ok
        assert not report.reversible


class TestTimingLint:
    def test_balanced_circuits_are_clean(self):
        for name in ("AND", "NAND", "TOFFOLI", "FREDKIN_DIRECT"):
            assert timing_lint(circuit_for(name)) == ()

    def test_skew_is_flagged_with_repair_hint(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        (diag,) = timing_lint(circuit)
        assert diag.severity == "error"
        assert "J2" in diag.message
        assert "hold(2)" in diag.message
        assert "J1.O2 -> J2.A" in diag.message

    def test_imbalance_inside_a_gate_is_reported_on_its_line(self):
        # NAND's own constant path reaches its second junction early.
        source = ("circuit wrap\ninput a, b\noutput y\ngate G : NAND\n"
                  "connect a -> G.a\nconnect b -> G.b\nconnect G.y -> y\n")
        circuit = elaborate(parse(source), insert_holds=False)
        (diag,) = timing_lint(circuit)
        assert "on G.G2.C.out -> G.G2.J.B" in diag.message
        assert diag.message.endswith(
            "; that channel is inside gate instance G, so leave hold repair "
            "on")
        assert str(diag).startswith("error: line 4: junction G.G2.J ")
        # Printed and parsed again, the dotted nodes are the netlist's own
        # and a hold can go on the channel.
        printed = print_canonical(circuit_to_ast(circuit))
        (diag,) = timing_lint(elaborate(parse(printed), insert_holds=False))
        assert diag.message.endswith("on G.G2.C.out -> G.G2.J.B")

    def test_repair_silences_the_linter(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()))
        assert timing_lint(circuit) == ()

    def test_hints_are_the_holds_repair_inserts(self):
        asts = [macro.expansion for macro in library()]
        asts += [parse(composer.compose_source(seed)) for seed in range(100)]
        asts += [parse(composer.primitive_source(seed))
                 for seed in range(300)]
        hint = re.compile(r".*; insert hold\((\d+)\) on \S+ -> "
                          r"(\S+)\.(\w+)(?:;.*)?")
        repaired_any = 0
        for ast in asts:
            unrepaired = elaborate(ast, insert_holds=False)
            hints = set()
            for diag in timing_lint(unrepaired):
                k, junction, port = hint.fullmatch(diag.message).groups()
                hints.add((junction, port, int(k)))
            repaired = elaborate(ast)
            holds = {(ch.dst, ch.dst_port, repaired.nodes[ch.src].hold_phases)
                     for ch in repaired.channels
                     if ch.src not in unrepaired.nodes}
            assert holds == hints, ast.name
            assert timing_lint(repaired) == (), ast.name
            repaired_any += bool(holds)
        assert repaired_any

    def test_diagnostics_follow_junction_then_port(self):
        several = 0
        for seed in range(60):
            circuit = elaborate(parse(composer.primitive_source(seed)),
                                insert_holds=False)
            where = [re.match(r"junction (\S+) .* input (\S+) ",
                              diag.message).groups()
                     for diag in timing_lint(circuit)]
            assert where == sorted(where)
            several += len(where) > 1
        assert several


class TestFormatting:
    def test_format_table(self):
        table = truth_table(circuit_for("AND"), CollisionMode.BOUNCE)
        assert format_table(table) == (
            "and_gate mode=bounce\n"
            "a b | y\n"
            "0 0 | 0\n"
            "0 1 | 0\n"
            "1 0 | 0\n"
            "1 1 | 1")

    def test_format_report(self):
        text = format_report(verify_gate("NOT_SYRINGE"))
        assert text == (
            "gate NOT_SYRINGE\n"
            "table bounce: ok\n"
            "table merge: ok\n"
            "modes agree: yes\n"
            "reversible: yes (claimed yes)\n"
            "conservative: no (claimed no)\n"
            "physically conservative: bounce no, merge no")
