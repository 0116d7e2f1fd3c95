from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marblesim import CollisionMode
from marblesim.primitives import NodeKind, _presence_route, junction_route

masses = st.fractions(min_value=Fraction(1, 1024), max_value=Fraction(64))


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


class TestJunctionRoute:
    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_empty_junction_routes_nothing(self, mode):
        assert junction_route(False, False, mode) == ()

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_lone_left_marble_crosses_to_far_right(self, mode):
        occ = junction_route(True, False, mode, a_mass=Fraction(3, 2))
        assert occ == (("O5", Fraction(3, 2)),)

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_lone_right_marble_crosses_to_far_left(self, mode):
        occ = junction_route(False, True, mode, b_mass=Fraction(1, 4))
        assert occ == (("O1", Fraction(1, 4)),)

    def test_bounce_reflects_both(self):
        occ = junction_route(True, True, CollisionMode.BOUNCE,
                             Fraction(1), Fraction(2))
        assert occ == (("O2", Fraction(1)), ("O4", Fraction(2)))

    def test_merge_fuses_to_centre(self):
        occ = junction_route(True, True, CollisionMode.MERGE,
                             Fraction(1, 2), Fraction(1, 4))
        assert occ == (("O3", Fraction(3, 4)),)

    @given(a=st.booleans(), b=st.booleans(), a_mass=masses, b_mass=masses,
           mode=st.sampled_from(list(CollisionMode)))
    def test_mass_is_conserved_exactly(self, a, b, a_mass, b_mass, mode):
        occ = junction_route(a, b, mode, a_mass, b_mass)
        expected = (a_mass if a else 0) + (b_mass if b else 0)
        assert sum(mass for _, mass in occ) == expected

    @given(a=st.booleans(), b=st.booleans(),
           mode=st.sampled_from(list(CollisionMode)))
    def test_marble_count_only_drops_on_merge(self, a, b, mode):
        occ = junction_route(a, b, mode)
        n_in = int(a) + int(b)
        n_out = len(occ)
        if mode is CollisionMode.MERGE and a and b:
            assert n_out == 1
        else:
            assert n_out == n_in


class TestPresenceRoute:
    """The rule over presence masks, where bit v of a mask is row v."""

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_junction_agrees_with_junction_route(self, mode):
        a_rows, b_rows = 0b1100, 0b1010  # rows (a, b) = 00, 01, 10, 11
        outs = _presence_route(NodeKind.JUNCTION, [(a_rows, 0), (b_rows, 0)],
                               mode, 0b1111)
        assert len(outs) == len(NodeKind.JUNCTION.outs)
        for row in range(4):
            routed = junction_route(bool(a_rows >> row & 1),
                                    bool(b_rows >> row & 1), mode)
            assert {port for port, (one, _) in zip(NodeKind.JUNCTION.outs,
                                                  outs)
                    if one >> row & 1} == {port for port, _ in routed}
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
