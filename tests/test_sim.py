import copy
import dataclasses
import pickle
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import composer
from marblesim import (Channel, Circuit, CollisionMode, NodeDecl, NodeKind,
                       SimConfig, SimulationError, TimingViolationError,
                       elaborate, format_trace, get_macro, library, parse,
                       run_ledger, simulate, truth_table)
from marblesim import sim

BOUNCE = SimConfig(mode=CollisionMode.BOUNCE)
MERGE = SimConfig(mode=CollisionMode.MERGE)


def circuit_for(name):
    return elaborate(get_macro(name).expansion)


def all_vectors(n):
    return [tuple((value >> (n - 1 - k)) & 1 for k in range(n))
            for value in range(2 ** n)]


# Masses as a run makes them: the unit marble itself, unit masses that are
# other objects, halvings and merges of those, and a non-dyadic mass that
# no netlist makes but a sum must still get right.
MASSES = st.recursive(
    st.sampled_from([sim._UNIT, Fraction(1), Fraction(2, 2), Fraction(1, 3)]),
    lambda masses: st.one_of(
        masses.map(lambda mass: mass / 2),
        st.tuples(masses, masses).map(lambda pair: pair[0] + pair[1])))


class TestAndGate:
    def test_merge_trace_is_exact(self, fixtures):
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        outputs, trace, ledger = simulate(circuit, (1, 1), MERGE)
        assert outputs == (1,)
        one = Fraction(1)
        assert list(trace.events) == [
            (0, "a", "out", 1, one),
            (0, "b", "out", 2, one),
            (1, "J", "A", 1, one),
            (1, "J", "B", 2, one),
            (1, "J", "O3", 3, Fraction(2)),
            (2, "S", "in", 3, Fraction(2)),
            (2, "S", "out1", 4, one),
            (2, "S", "out2", 5, one),
            (3, "M", "in1", 4, one),
            (3, "W", "in", 5, one),
            (4, "y", "in", 4, one),
        ]
        assert trace.final_locations == {
            1: ("J", "A"), 2: ("J", "B"), 3: ("S", "in"),
            4: ("y", "in"), 5: ("W", "in"),
        }
        assert trace.collisions == ((1, "J"),)
        assert (ledger.input_marbles, ledger.output_marbles,
                ledger.waste_marbles) == (2, 1, 1)
        assert ledger.input_mass == 2
        assert ledger.output_mass == ledger.waste_mass == 1

    def test_bounce_keeps_output_timing(self, fixtures):
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        outputs, trace, _ = simulate(circuit, (1, 1), BOUNCE)
        assert outputs == (1,)
        assert [phase for phase, node, *_ in trace.events
                if node == "y"] == [4]

    def test_lone_marbles_are_wasted(self, fixtures):
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        for bits in ((0, 1), (1, 0)):
            outputs, trace, ledger = simulate(circuit, bits, BOUNCE)
            assert outputs == (0,)
            assert ledger.waste_marbles == 1
            assert trace.collisions == ()


class TestJunction:
    """The junction's four rows, with A's marble halved by a scalpel so
    that every marble's mass tells which input it came from."""

    HALF = Fraction(1, 2)
    # (a, b) -> (bounce, merge): output reached -> mass of the marble there
    ROWS = {
        (0, 0): ({}, {}),
        (0, 1): ({"o1": 1}, {"o1": 1}),
        (1, 0): ({"o5": HALF}, {"o5": HALF}),
        (1, 1): ({"o2": HALF, "o4": 1}, {"o3": 1 + HALF}),
    }

    @pytest.mark.parametrize("bits", sorted(ROWS))
    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_routes_every_row(self, fixtures, bits, mode):
        circuit = elaborate(parse((fixtures / "junction.mnl").read_text()))
        outputs, trace, ledger = simulate(circuit, bits, SimConfig(mode=mode))
        reached = self.ROWS[bits][mode is CollisionMode.MERGE]
        assert outputs == tuple(int(name in reached)
                                for name in circuit.outputs)
        mass = {marble: mass for _, _, _, marble, mass in trace.events}
        assert {node: mass[marble]
                for marble, (node, port) in trace.final_locations.items()
                if node in circuit.outputs and port == "in"} == reached
        # Merged marbles end on the junction's in ports, the new one on O3.
        at_junction = sorted(port for node, port
                             in trace.final_locations.values() if node == "J")
        assert at_junction == (["A", "B"] if reached.keys() == {"o3"}
                               else [])
        assert ledger.output_mass == sum(reached.values())
        assert ledger.balanced
        assert trace.collisions == (((2, "J"),) if bits == (1, 1) else ())


class TestJoinSynchronization:
    def test_or_output_phase_is_mode_and_row_independent(self):
        circuit = circuit_for("OR")
        phases = set()
        for config in (BOUNCE, MERGE):
            for bits in ((0, 1), (1, 0), (1, 1)):
                _, trace, _ = simulate(circuit, bits, config)
                (y_phase,) = [phase for phase, node, *_ in trace.events
                              if node == "y"]
                phases.add(y_phase)
        assert len(phases) == 1

    def test_hold_releases_at_its_phase(self):
        circuit = elaborate(parse(
            "circuit delayed\ninput a\noutput y\nnode H : hold(2)\n"
            "connect a -> H.in\nconnect H.out -> y\n"))
        _, trace, _ = simulate(circuit, (1,), BOUNCE)
        listed = [event[:3] for event in trace.events]
        assert listed == [(0, "a", "out"), (1, "H", "in"), (3, "y", "in")]


class TestSyringe:
    def test_absence_injects_fresh_marble(self):
        circuit = circuit_for("NOT_SYRINGE")
        outputs, trace, ledger = simulate(circuit, (0,), BOUNCE)
        assert outputs == (1,)
        assert ledger.input_marbles == 0
        assert ledger.injected == 1
        (record,) = ledger.injections
        assert record.node == "N"
        assert record.kind is NodeKind.SYRINGE
        assert record.mass == 1

    def test_presence_is_swallowed_into_waste_pocket(self):
        circuit = circuit_for("NOT_SYRINGE")
        outputs, trace, ledger = simulate(circuit, (1,), BOUNCE)
        assert outputs == (0,)
        assert ledger.injected == 0
        assert trace.final_locations[1] == ("N", "waste")
        assert ledger.waste_marbles == 1
        assert ledger.balanced

    def test_double_negation_round_trips(self):
        circuit = elaborate(parse(
            "circuit nn\ninput a\noutput y\n"
            "node N1 : sensor_syringe\nnode N2 : sensor_syringe\n"
            "connect a -> N1.in\nconnect N1.out -> N2.in\n"
            "connect N2.out -> y\n"))
        for bit in (0, 1):
            outputs, _, _ = simulate(circuit, (bit,), MERGE)
            assert outputs == (bit,)

    # a -> S -> y built by hand with S fed early, late, and on time on a
    # port other than ``in``: an early or late marble goes only to the
    # pocket, so S injects; one on time is sensed whatever port it came on.
    @pytest.mark.parametrize("port, phases, outputs, final, hazards, "
                             "injected", [
        ("in", {"a": 0, "S": 3, "y": 4}, (1,),
         {1: ("S", "waste"), 2: ("y", "in")}, ((1, "S", "in", 1, 3),),
         [(2, 3)]),
        ("in", {"a": 2, "S": 1, "y": 2}, (1,),
         {1: ("y", "in"), 2: ("S", "waste")}, ((3, "S", "in", 2, 1),),
         [(1, 1)]),
        ("x", {"a": 0, "S": 1, "y": 2}, (0,), {1: ("S", "waste")}, (), []),
    ], ids=["early", "late", "on-time-at-x"])
    def test_hand_built_arrivals(self, port, phases, outputs, final, hazards,
                                 injected):
        kinds = {"a": NodeKind.INPUT, "S": NodeKind.SYRINGE,
                 "y": NodeKind.OUTPUT}
        circuit = Circuit(
            "hand", ("a",), ("y",),
            {name: NodeDecl(name, kind) for name, kind in kinds.items()},
            (Channel("a", "out", "S", port), Channel("S", "out", "y", "in")),
            phases)
        for mode in CollisionMode:
            for traced in (True, False):
                config = SimConfig(mode, trace_enabled=traced)
                got, trace, ledger = simulate(circuit, (1,), config)
                assert got == outputs
                assert trace.final_locations == final
                assert trace.hazards == hazards
                assert [(record.marble_id, record.phase)
                        for record in ledger.injections] == injected
                assert ledger.balanced
                got, trace, ledger = simulate(circuit, (0,), config)
                assert got == (1,) and trace.hazards == ()
                assert trace.final_locations == {1: ("y", "in")}
                assert [(record.marble_id, record.phase)
                        for record in ledger.injections] == [(1, phases["S"])]
            strict = SimConfig(mode, strict_timing=True)
            if hazards:
                with pytest.raises(TimingViolationError):
                    simulate(circuit, (1,), strict)
            else:
                assert simulate(circuit, (1,), strict)[0] == outputs


class TestHazards:
    def test_skew_records_lone_marble_hazard(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        _, trace, _ = simulate(circuit, (1, 1), BOUNCE)
        (hazard,) = trace.hazards
        assert (hazard.node, hazard.port) == ("J2", "A")
        assert hazard.phase == 2
        assert hazard.expected_phase == 4

    def test_strict_timing_raises(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        strict = SimConfig(mode=CollisionMode.BOUNCE, strict_timing=True)
        with pytest.raises(TimingViolationError):
            simulate(circuit, (1, 1), strict)

    def test_strict_error_is_the_recorded_hazard(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()),
                            insert_holds=False)
        raised = 0
        for mode in CollisionMode:
            strict = SimConfig(mode=mode, strict_timing=True)
            for bits in all_vectors(2):
                _, trace, _ = simulate(circuit, bits, SimConfig(mode=mode))
                if not trace.hazards:
                    simulate(circuit, bits, strict)
                    continue
                with pytest.raises(TimingViolationError) as error:
                    simulate(circuit, bits, strict)
                assert str(error.value) == str(trace.hazards[0])
                raised += 1
        assert raised

    def test_inserted_holds_remove_hazard(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()))
        _, trace, ledger = simulate(circuit, (1, 1), BOUNCE)
        assert trace.hazards == ()
        assert ledger.balanced


class TestContention:
    SOURCE = """
circuit clash
input a, b, c
output z
node M : join
node J : junction
node W : waste
connect a -> M.in1
connect b -> M.in2
connect M.out -> J.A
connect c -> J.B
connect J.O3 -> z
connect J.O1 -> W.in
connect J.O2 -> W.in
connect J.O4 -> W.in
connect J.O5 -> W.in
"""

    def test_two_marbles_on_one_port_raise(self):
        circuit = elaborate(parse(self.SOURCE))
        with pytest.raises(SimulationError) as err:
            simulate(circuit, (1, 1, 1), BOUNCE)
        assert "J.A" in str(err.value)

    def test_single_marble_through_join_is_fine(self):
        circuit = elaborate(parse(self.SOURCE))
        outputs, _, _ = simulate(circuit, (1, 0, 1), MERGE)
        assert outputs == (1,)


class TestEndOfRun:
    def test_marble_parked_after_release_raises(self):
        # Hand-built phases: the hold releases at phase 0, before the
        # input's marble reaches it at phase 1, so the marble stays parked.
        circuit = Circuit(
            "late", ("a",), ("y",),
            {"a": NodeDecl("a", NodeKind.INPUT),
             "H": NodeDecl("H", NodeKind.HOLD, 1),
             "y": NodeDecl("y", NodeKind.OUTPUT)},
            (Channel("a", "out", "H", "in"), Channel("H", "out", "y", "in")),
            {"a": 0, "H": 0, "y": 1})
        with pytest.raises(SimulationError) as err:
            simulate(circuit, (1,), BOUNCE)
        assert "parked" in str(err.value)
        assert "H.in" in str(err.value)
        outputs, _, ledger = simulate(circuit, (0,), BOUNCE)
        assert outputs == (0,) and ledger.balanced

    def test_marble_on_a_port_its_node_never_reads_raises(self):
        # Hand-built channels into a port the kind has no use for: a
        # const1 has no in port and a hold reads only ``in``.  Each marble
        # arrives in its node's phase, before the node fires.
        const = Circuit(
            "const_fed", ("a",), ("y",),
            {"a": NodeDecl("a", NodeKind.INPUT),
             "C": NodeDecl("C", NodeKind.CONST),
             "y": NodeDecl("y", NodeKind.OUTPUT)},
            (Channel("a", "out", "C", "in"), Channel("C", "out", "y", "in")),
            {"a": 0, "C": 1, "y": 2})
        with pytest.raises(SimulationError, match=(
                "^marbles still parked after the final phase at C.in$")):
            simulate(const, (1,), BOUNCE)
        hold = Circuit(
            "bogus_port", ("a", "b"), ("y",),
            {"a": NodeDecl("a", NodeKind.INPUT),
             "b": NodeDecl("b", NodeKind.INPUT),
             "H": NodeDecl("H", NodeKind.HOLD, 1),
             "y": NodeDecl("y", NodeKind.OUTPUT)},
            (Channel("a", "out", "H", "in"), Channel("b", "out", "H", "bogus"),
             Channel("H", "out", "y", "in")),
            {"a": 0, "b": 0, "H": 1, "y": 2})
        with pytest.raises(SimulationError, match=(
                "^marbles still parked after the final phase at H.bogus$")):
            simulate(hold, (1, 1), BOUNCE)
        # A junction fires in the phase its marbles arrive and reads A and
        # B only.
        junction = Circuit(
            "bogus_junction_port", ("a", "b"), ("y",),
            {"a": NodeDecl("a", NodeKind.INPUT),
             "b": NodeDecl("b", NodeKind.INPUT),
             "J": NodeDecl("J", NodeKind.JUNCTION),
             "y": NodeDecl("y", NodeKind.OUTPUT)},
            (Channel("a", "out", "J", "A"), Channel("b", "out", "J", "bogus"),
             Channel("J", "O5", "y", "in")),
            {"a": 0, "b": 0, "J": 1, "y": 2})
        with pytest.raises(SimulationError, match=(
                "^marbles still parked after the final phase at J.bogus$")):
            simulate(junction, (1, 1), BOUNCE)
        for circuit, bits in ((const, (0,)), (hold, (1, 0)),
                              (junction, (1, 0))):
            outputs, _, ledger = simulate(circuit, bits, BOUNCE)
            assert outputs == (1,) and ledger.balanced


def hand_built(kinds, wires, phases):
    """A ``Circuit`` built by hand, never validated: ``kinds`` maps each
    node to its kind, inputs and outputs in declaration order, and each
    wire is a ``(src, src_port, dst, dst_port)`` channel."""
    return Circuit(
        "hand",
        tuple(name for name, kind in kinds.items() if kind is NodeKind.INPUT),
        tuple(name for name, kind in kinds.items()
              if kind is NodeKind.OUTPUT),
        {name: NodeDecl(name, kind) for name, kind in kinds.items()},
        tuple(Channel(*wire) for wire in wires), phases)


def every_config(strict=False):
    for mode in CollisionMode:
        for traced in (True, False):
            yield SimConfig(mode, strict, traced)


JUNCTION_OUTS = ("O1", "O2", "O3", "O4", "O5")


class TestWhichError:
    """Which error a failing run raises, and the order of its hazards, when
    several marbles go wrong in one phase.  The nodes due in one phase fire
    in name order, so each circuit emits its marbles in an order other
    than the one the error and the hazards follow: the smallest
    (node, port) first, and at one port a strict violation before
    contention, naming the lowest marble id there."""

    INPUT, HOLD, JUNCTION = NodeKind.INPUT, NodeKind.HOLD, NodeKind.JUNCTION
    OUTPUT, WASTE = NodeKind.OUTPUT, NodeKind.WASTE

    def test_two_contentions_name_the_smaller_port(self):
        # a and b fire first and reach Y.in; c and d reach X.in.
        circuit = hand_built(
            {"a": self.INPUT, "b": self.INPUT, "c": self.INPUT,
             "d": self.INPUT, "X": self.HOLD, "Y": self.HOLD,
             "y": self.OUTPUT, "W": self.WASTE},
            [("a", "out", "Y", "in"), ("b", "out", "Y", "in"),
             ("c", "out", "X", "in"), ("d", "out", "X", "in"),
             ("X", "out", "y", "in"), ("Y", "out", "W", "in")],
            {"a": 0, "b": 0, "c": 0, "d": 0, "X": 1, "Y": 1, "y": 2, "W": 2})
        for bits, port in (((1, 1, 1, 1), "X.in"), ((1, 1, 0, 1), "Y.in"),
                           ((0, 1, 1, 1), "X.in")):
            for config in chain(every_config(), every_config(strict=True)):
                with pytest.raises(SimulationError, match=(
                        f"^two marbles reached {port} in phase 1$")):
                    simulate(circuit, bits, config)

    def test_strict_error_names_the_lowest_id_at_the_port(self):
        # Marble 2 is emitted first: b's marble waits in Y, which fires
        # before Z, and both reach J.A off schedule in phase 2.
        circuit = hand_built(
            {"a": self.INPUT, "b": self.INPUT, "Y": self.HOLD,
             "Z": self.HOLD, "J": self.JUNCTION, "y": self.OUTPUT,
             "W": self.WASTE},
            [("a", "out", "Z", "in"), ("b", "out", "Y", "in"),
             ("Z", "out", "J", "A"), ("Y", "out", "J", "A"),
             ("J", "O5", "y", "in"),
             *[("J", port, "W", "in") for port in JUNCTION_OUTS[:4]]],
            {"a": 0, "b": 0, "Y": 1, "Z": 1, "J": 5, "y": 6, "W": 6})
        for config in every_config(strict=True):
            with pytest.raises(TimingViolationError, match=(
                    "^marble 1 reached J.A at phase 2; scheduled firing is "
                    "phase 5$")):
                simulate(circuit, (1, 1), config)
        for config in every_config():
            with pytest.raises(SimulationError, match=(
                    "^two marbles reached J.A in phase 2$")):
                simulate(circuit, (1, 1), config)

    @pytest.mark.parametrize("junction, strict_wins", [("G", True),
                                                       ("J", False)])
    def test_the_smaller_port_decides_between_kinds(self, junction,
                                                    strict_wins):
        # a's marble reaches the junction off schedule in phase 1, before
        # b's and c's contend at H.in.
        circuit = hand_built(
            {"a": self.INPUT, "b": self.INPUT, "c": self.INPUT,
             "H": self.HOLD, junction: self.JUNCTION, "y": self.OUTPUT,
             "W": self.WASTE},
            [("a", "out", junction, "A"), ("b", "out", "H", "in"),
             ("c", "out", "H", "in"), ("H", "out", "y", "in"),
             *[(junction, port, "W", "in") for port in JUNCTION_OUTS]],
            {"a": 0, "b": 0, "c": 0, "H": 3, junction: 5, "y": 6, "W": 6})
        expected = (TimingViolationError,
                    f"^marble 1 reached {junction}.A at phase 1; scheduled "
                    "firing is phase 5$") if strict_wins else (
                    SimulationError, "^two marbles reached H.in in phase 1$")
        for config in every_config(strict=True):
            with pytest.raises(expected[0], match=expected[1]):
                simulate(circuit, (1, 1, 1), config)

    def test_hazards_come_in_phase_node_port_marble_order(self):
        # X, Y and Z fire in phase 1 and emit marbles 3, 2 and 1, in that
        # order, onto K.A, J.B and J.A; K's marble then reaches H.A.
        circuit = hand_built(
            {"a": self.INPUT, "b": self.INPUT, "c": self.INPUT,
             "X": self.HOLD, "Y": self.HOLD, "Z": self.HOLD,
             "H": self.JUNCTION, "J": self.JUNCTION, "K": self.JUNCTION,
             "y": self.OUTPUT, "W": self.WASTE},
            [("a", "out", "Z", "in"), ("b", "out", "Y", "in"),
             ("c", "out", "X", "in"), ("X", "out", "K", "A"),
             ("Y", "out", "J", "B"), ("Z", "out", "J", "A"),
             ("K", "O5", "H", "A"), ("H", "O5", "y", "in"),
             *[(node, port, "W", "in") for node in "HJK"
               for port in JUNCTION_OUTS if (node, port) not in
               {("K", "O5"), ("H", "O5")}]],
            {"a": 0, "b": 0, "c": 0, "X": 1, "Y": 1, "Z": 1, "H": 4,
             "J": 4, "K": 4, "y": 5, "W": 5})
        expected = ((2, "J", "A", 1, 4), (2, "J", "B", 2, 4),
                    (2, "K", "A", 3, 4), (3, "H", "A", 3, 4))
        for config in every_config():
            outputs, trace, ledger = simulate(circuit, (1, 1, 1), config)
            assert outputs == (1,) and ledger.balanced
            assert trace.hazards == expected
        for config in every_config(strict=True):
            with pytest.raises(TimingViolationError, match=(
                    "^marble 1 reached J.A at phase 2; scheduled firing is "
                    "phase 4$")):
                simulate(circuit, (1, 1, 1), config)

    def test_no_channel_out_raises_at_once(self):
        # a's and b's marbles would contend at H.in in phase 1, but c,
        # which fires after them in phase 0, has nowhere to send its own.
        circuit = hand_built(
            {"a": self.INPUT, "b": self.INPUT, "c": self.INPUT,
             "H": self.HOLD, "y": self.OUTPUT},
            [("a", "out", "H", "in"), ("b", "out", "H", "in"),
             ("H", "out", "y", "in")],
            {"a": 0, "b": 0, "c": 0, "H": 1, "y": 2})
        for config in chain(every_config(), every_config(strict=True)):
            with pytest.raises(SimulationError,
                               match="^no channel leaves c.out$"):
                simulate(circuit, (1, 1, 1), config)
            outputs, _, ledger = simulate(circuit, (1, 0, 0), config)
            assert outputs == (1,) and ledger.balanced

    def test_marble_in_flight_after_the_final_phase_raises(self):
        # Every phase is 0, so the run ends after phase 2, and junctions
        # fire in the phase a marble reaches them: a's marble is at J1 in
        # phase 1, at J2 in phase 2 and on its way to J3.
        circuit = hand_built(
            {"a": self.INPUT, "J1": self.JUNCTION, "J2": self.JUNCTION,
             "J3": self.JUNCTION, "y": self.OUTPUT},
            [("a", "out", "J1", "A"), ("J1", "O5", "J2", "A"),
             ("J2", "O5", "J3", "A"), ("J3", "O5", "y", "in")],
            dict.fromkeys(("a", "J1", "J2", "J3", "y"), 0))
        for config in every_config():
            with pytest.raises(SimulationError, match=(
                    "^marbles still in flight after the final phase$")):
                simulate(circuit, (1,), config)
            assert simulate(circuit, (0,), config)[0] == (0,)
        for config in every_config(strict=True):
            with pytest.raises(TimingViolationError, match=(
                    "^marble 1 reached J1.A at phase 1; scheduled firing "
                    "is phase 0$")):
                simulate(circuit, (1,), config)

    def test_a_marble_one_junction_late_lands_in_the_final_phase(self):
        # Every phase is 0: a's marble reaches J a phase late, at phase 1,
        # and y at phase 2, the run's last, so the run ends clean.
        circuit = hand_built(
            {"a": self.INPUT, "J": self.JUNCTION, "y": self.OUTPUT},
            [("a", "out", "J", "A"), ("J", "O5", "y", "in")],
            dict.fromkeys(("a", "J", "y"), 0))
        for config in every_config():
            outputs, trace, ledger = simulate(circuit, (1,), config)
            assert outputs == (1,) and ledger.balanced
            assert trace.hazards == ((1, "J", "A", 1, 0),)
            assert trace.final_locations == {1: ("y", "in")}


class TestInputValidation:
    def test_wrong_length(self):
        circuit = circuit_for("AND")
        with pytest.raises(ValueError):
            simulate(circuit, (1,), BOUNCE)

    def test_non_bits(self):
        circuit = circuit_for("AND")
        with pytest.raises(ValueError):
            simulate(circuit, (1, 2), BOUNCE)

    def test_mode_must_be_a_collision_mode(self):
        # The mode's string value once ran merge mode without a word.
        circuit = circuit_for("AND")
        with pytest.raises(ValueError, match=(
                "^mode must be a CollisionMode, got 'bounce'$")):
            simulate(circuit, (1, 1), SimConfig(mode="bounce"))


class TestTraceContract:
    @pytest.mark.parametrize("name", sorted(m.name for m in library()))
    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_invariants_over_whole_library(self, name, mode):
        circuit = circuit_for(name)
        config = SimConfig(mode=mode)
        for bits in all_vectors(len(circuit.inputs)):
            _, trace, ledger = simulate(circuit, bits, config)
            assert list(trace.events) == sorted(trace.events)
            last: dict[int, tuple] = {}
            phases_seen: dict[int, int] = {}
            for phase, node, port, marble, _ in trace.events:
                if marble in phases_seen:
                    # A marble is never in two places in one phase.
                    assert phase > phases_seen[marble]
                phases_seen[marble] = phase
                last[marble] = (node, port)
            assert last == trace.final_locations
            assert run_ledger(trace) == ledger
            assert ledger.balanced
            for *_, mass in trace.events:
                denom = mass.denominator
                assert denom & (denom - 1) == 0

    def test_outputs_follow_declaration_order(self):
        circuit = circuit_for("FREDKIN_DIRECT")
        assert circuit.outputs == ("v", "y1", "y2")
        outputs, _, _ = simulate(circuit, (1, 1, 0), BOUNCE)
        assert outputs == (1, 1, 0)

    def test_trace_can_be_disabled(self, monkeypatch):
        runs = [(circuit_for(macro.name), bits, mode)
                for macro in library() for mode in CollisionMode
                for bits in all_vectors(len(macro.inputs))]
        traced = [simulate(circuit, bits, SimConfig(mode=mode))
                  for circuit, bits, mode in runs]

        def no_events(placements):
            raise AssertionError("an untraced run built events")

        # A run's events are made only there, in one call at its end.
        monkeypatch.setattr(sim, "_as_events", no_events)
        for (circuit, bits, mode), (outputs, trace, ledger) in zip(runs,
                                                                   traced):
            config = SimConfig(mode=mode, trace_enabled=False)
            u_outputs, u_trace, u_ledger = simulate(circuit, bits, config)
            assert u_trace.events == ()
            assert (u_outputs, u_trace.final_locations, u_trace.hazards,
                    u_trace.collisions, u_ledger) == (
                        outputs, trace.final_locations, trace.hazards,
                        trace.collisions, ledger)

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_events_are_the_plain_sorted_placements(self, mode):
        # A traced run keeps its placements as the trace, exact tuples
        # (phase, node, port, marble_id, mass) in sorted order.
        for macro in library():
            circuit = elaborate(macro.expansion)
            for bits in all_vectors(len(circuit.inputs)):
                _, trace, _ = simulate(circuit, bits, SimConfig(mode=mode))
                # Every marble made has at least its creation event.
                assert bool(trace.events) == bool(trace.final_locations)
                assert list(trace.events) == sorted(trace.events)
                for event in trace.events:
                    assert type(event) is tuple
                    phase, node, port, marble_id, mass = event
                    assert list(map(type, (phase, node, port, marble_id,
                                           mass))) == [
                        int, str, str, int, Fraction]
                    assert node in circuit.nodes
                    assert marble_id in trace.final_locations
                _, untraced, _ = simulate(
                    circuit, bits, SimConfig(mode=mode, trace_enabled=False))
                assert untraced.events == ()

    def test_trace_names_its_circuit(self):
        circuit = circuit_for("FULL_ADDER")
        _, trace, ledger = simulate(circuit, (1, 1, 1), MERGE)
        assert trace.circuit is circuit
        assert run_ledger(trace) == ledger
        assert trace._asdict() == {
            "events": trace.events, "final_locations": trace.final_locations,
            "hazards": trace.hazards, "circuit": circuit,
            "collisions": trace.collisions}
        assert sim.Trace._fields == ("events", "final_locations", "hazards",
                                     "circuit", "collisions")

    def test_ledger_needs_a_traced_run(self):
        circuit = circuit_for("AND")
        _, trace, _ = simulate(circuit, (1, 1),
                               SimConfig(mode=CollisionMode.MERGE,
                                         trace_enabled=False))
        with pytest.raises(ValueError, match=(
                "^ledger needs a trace recorded with events$")):
            run_ledger(trace)

    def test_trace_pickles_and_copies(self):
        circuit = circuit_for("AND")
        order = circuit._mask_order
        _, trace, ledger = simulate(circuit, (1, 1), MERGE)
        for twin in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace),
                     copy.copy(trace)):
            assert type(twin) is sim.Trace
            assert twin == trace
            assert twin.circuit == circuit
            # The circuit travels with its cached mask pass order.
            assert vars(twin.circuit)["_mask_order"] == order
            assert run_ledger(twin) == ledger

    def test_each_circuit_runs_from_its_own_tables(self):
        # Every table a run reads is rebuilt for a replaced circuit: the
        # channel out of H, each node's kind (H starts on its own as a
        # const) and the last phase (marbles reach y at phase 6).
        circuit = Circuit(
            "swap", ("a",), ("y", "z"),
            {"a": NodeDecl("a", NodeKind.INPUT),
             "H": NodeDecl("H", NodeKind.HOLD, 1),
             "y": NodeDecl("y", NodeKind.OUTPUT),
             "z": NodeDecl("z", NodeKind.OUTPUT)},
            (Channel("a", "out", "H", "in"), Channel("H", "out", "y", "in")),
            {"a": 0, "H": 1, "y": 2, "z": 2})
        rewired = dataclasses.replace(circuit, channels=(
            Channel("a", "out", "H", "in"), Channel("H", "out", "z", "in")))
        const = dataclasses.replace(
            circuit,
            nodes={**circuit.nodes, "H": NodeDecl("H", NodeKind.CONST)},
            channels=(Channel("H", "out", "y", "in"),),
            phases={"a": 0, "H": 5, "y": 6, "z": 2})
        for _ in range(2):
            assert simulate(circuit, (1,), BOUNCE)[0] == (1, 0)
            assert simulate(rewired, (1,), BOUNCE)[0] == (0, 1)
            outputs, trace, ledger = simulate(const, (0,), BOUNCE)
            assert outputs == (1, 0)
            assert trace.final_locations == {1: ("y", "in")}
            assert ledger.injected == 1 and ledger.balanced

    def test_circuit_fields_cannot_be_rebound(self, fixtures):
        # Rebinding a field would leave the tables built from it stale; a
        # replaced circuit builds its own, here a last phase 3 later.
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        later = {name: phase + 3 for name, phase in circuit.phases.items()}
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.phases = later
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.max_phase = 0
        moved = dataclasses.replace(circuit, phases=later)
        assert moved.phases is later and circuit.phases != later
        assert moved.max_phase == circuit.max_phase + 3
        assert moved._out == circuit._out and moved._out is not circuit._out
        for bits in all_vectors(2):
            outputs, trace, ledger = simulate(moved, bits, MERGE)
            assert outputs == simulate(circuit, bits, MERGE)[0]
            assert ledger.balanced

    def test_tables_are_built_on_first_use(self):
        # A circuit is its six fields; a table builds only what it reads,
        # a run the rest, and a replaced circuit starts with none.
        fields = [f.name for f in dataclasses.fields(Circuit)]
        assert fields == ["name", "inputs", "outputs", "nodes", "channels",
                          "phases"]
        circuit = circuit_for("FULL_ADDER")

        def tables(circuit):
            return vars(circuit).keys() - fields

        assert tables(circuit) == set()
        truth_table(circuit, CollisionMode.MERGE)
        assert tables(circuit) == {"_kinds", "_mask_order"}
        simulate(circuit, (1, 0, 1), MERGE)
        assert tables(circuit) == {"_kinds", "_mask_order", "max_phase",
                                   "_out", "_starts"}
        fresh = dataclasses.replace(circuit)
        assert fresh == circuit and tables(fresh) == set()

    def test_ledger_sums_non_unit_masses(self):
        # Merged masses 2 and 3, then a scalpel's halves of 3/2.
        circuit = elaborate(parse("""\
circuit heavy
input a, b, c
output y
node J1 : junction
node J2 : junction
node S : scalpel
node W : waste
connect a -> J1.A
connect b -> J1.B
connect J1.O3 -> J2.A
connect c -> J2.B
connect J2.O3 -> S.in
connect S.out1 -> y
connect S.out2 -> W.in
connect J1.O1 -> W.in
connect J1.O2 -> W.in
connect J1.O4 -> W.in
connect J1.O5 -> W.in
connect J2.O1 -> W.in
connect J2.O2 -> W.in
connect J2.O4 -> W.in
connect J2.O5 -> W.in
"""))
        for bits in all_vectors(3):
            _, trace, ledger = simulate(circuit, bits, MERGE)
            # A marble's first event is its creation: node and mass.
            first = {}
            for _, node, _, marble, mass in trace.events:
                first.setdefault(marble, (node, mass))
            ended = trace.final_locations
            inputs = [m for m, (node, _) in first.items()
                      if node in circuit.inputs]
            outputs = [m for m, (node, _) in ended.items() if node == "y"]
            waste = [m for m, (node, _) in ended.items() if node == "W"]

            def total(marbles):
                by_hand = Fraction(0)
                for marble in marbles:
                    by_hand += first[marble][1]
                return by_hand

            assert (ledger.input_marbles, ledger.input_mass) == (
                len(inputs), total(inputs))
            assert (ledger.output_marbles, ledger.output_mass) == (
                len(outputs), total(outputs))
            assert (ledger.waste_marbles, ledger.waste_mass) == (
                len(waste), total(waste))
            assert ledger.injected == 0 and ledger.injected_mass == 0
        assert ledger.output_mass == ledger.waste_mass == Fraction(3, 2)

    @given(st.lists(MASSES, max_size=40))
    @example([])
    def test_total_adds_exactly(self, masses):
        total = sim._total(masses)
        assert type(total) is Fraction
        assert total == sum(masses, Fraction(0))

    def test_format_trace_is_stable(self, fixtures):
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        _, trace, _ = simulate(circuit, (1, 0), BOUNCE)
        assert format_trace(trace) == (
            "0\ta\tout\t1\t1\n"
            "1\tJ\tA\t1\t1\n"
            "2\tW\tin\t1\t1")


class TestOrders:
    """Final locations come in marble-id order, and collisions in
    (phase, junction) order, as the run makes them, traced or not."""

    def runs(self):
        for macro in library():
            circuit = elaborate(macro.expansion)
            for bits in all_vectors(len(circuit.inputs)):
                yield circuit, bits
        for seed in range(40):
            circuit = composer.compose_circuit(seed)
            for bits in composer.input_vectors(circuit):
                yield circuit, bits

    def test_final_locations_and_collisions_come_in_order(self):
        shared = 0  # runs with two collisions in one phase
        for circuit, bits in self.runs():
            for mode in CollisionMode:
                for traced in (True, False):
                    _, trace, _ = simulate(
                        circuit, bits, SimConfig(mode, trace_enabled=traced))
                    marbles = list(trace.final_locations)
                    assert marbles == sorted(marbles)
                    collisions = trace.collisions
                    assert collisions == tuple(sorted(collisions))
                    phases = [phase for phase, _ in collisions]
                    shared += len(set(phases)) < len(phases)
        assert shared


class TestAdderMassFlow:
    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_half_adder_accounts_for_every_input(self, mode):
        circuit = circuit_for("HALF_ADDER")
        config = SimConfig(mode=mode)
        for bits in all_vectors(2):
            _, _, ledger = simulate(circuit, bits, config)
            assert ledger.injected == 0
            assert ledger.input_mass == sum(bits)
            assert ledger.input_mass == ledger.output_mass + ledger.waste_mass

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_full_adder_balances(self, mode):
        circuit = circuit_for("FULL_ADDER")
        config = SimConfig(mode=mode)
        _, trace, ledger = simulate(circuit, (1, 1, 1), config)
        assert ledger.balanced
        assert ledger.input_mass == 3

    def test_chained_scalpels_quarter_the_merged_mass(self, fixtures):
        circuit = elaborate(parse((fixtures / "skew.mnl").read_text()))
        _, trace, ledger = simulate(circuit, (1, 1), MERGE)
        assert any(mass == Fraction(1, 2) for *_, mass in trace.events)
        assert ledger.balanced
