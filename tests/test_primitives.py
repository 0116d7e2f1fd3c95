import pytest

from marblesim import CollisionMode, SimConfig, elaborate, parse, simulate
from marblesim.analysis import _presence_route
from marblesim.primitives import NodeKind


class TestPortTables:
    def test_every_kind_has_port_entries(self):
        for kind in NodeKind:
            assert isinstance(kind.ins, tuple)
            assert isinstance(kind.outs, tuple)

    def test_junction_ports(self):
        assert NodeKind.JUNCTION.ins == ("A", "B")
        assert NodeKind.JUNCTION.outs == ("O1", "O2", "O3", "O4", "O5")

    def test_sinks_have_no_outputs(self):
        assert NodeKind.OUTPUT.outs == ()
        assert NodeKind.WASTE.outs == ()

    def test_occupancy_starting_and_ledger_roles(self):
        assert {kind for kind in NodeKind if kind.single} == {
            NodeKind.JUNCTION, NodeKind.SCALPEL, NodeKind.SYRINGE,
            NodeKind.TAP, NodeKind.HOLD}
        assert {kind for kind in NodeKind if kind.starts} == {
            NodeKind.CONST, NodeKind.SYRINGE}
        assert {kind: kind.role for kind in NodeKind if kind.role} == {
            NodeKind.INPUT: "input", NodeKind.CONST: "injected",
            NodeKind.SYRINGE: "injected", NodeKind.TAP: "injected",
            NodeKind.OUTPUT: "output", NodeKind.WASTE: "waste"}


class TestPresenceRoute:
    """The rule over presence masks, where bit v of a mask is row v."""

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_junction_agrees_with_junction_route(self, fixtures, mode):
        # The simulator's junction, whose O1..O5 each reach an output.
        circuit = elaborate(parse((fixtures / "junction.mnl").read_text()))
        a_rows, b_rows = 0b1100, 0b1010  # rows (a, b) = 00, 01, 10, 11
        outs = _presence_route(NodeKind.JUNCTION, [(a_rows, 0), (b_rows, 0)],
                               mode, 0b1111)
        assert len(outs) == len(NodeKind.JUNCTION.outs)
        for row in range(4):
            bits = (a_rows >> row & 1, b_rows >> row & 1)
            simulated, _, _ = simulate(circuit, bits, SimConfig(mode=mode))
            assert tuple(one >> row & 1 for one, _ in outs) == simulated
        assert all(two == 0 for _, two in outs)

    def test_join_marks_two_or_more_inputs(self):
        # Input k is present in row v when bit k of v is set.
        ins = [(sum(1 << v for v in range(8) if v >> k & 1), 0)
               for k in range(3)]
        ((one, two),) = _presence_route(NodeKind.JOIN, ins,
                                        CollisionMode.MERGE, 0xFF)
        for row in range(8):
            present = bin(row).count("1")
            assert one >> row & 1 == (present >= 1)
            assert two >> row & 1 == (present >= 2)
        assert _presence_route(NodeKind.JOIN, [(1, 1), (0, 0)],
                               CollisionMode.BOUNCE, 1) == ((1, 1),)
