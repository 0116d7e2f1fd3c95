import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composer
from marblesim import (Channel, Circuit, CircuitAst, Diagnostic,
                       ElaborationError, GateDecl, GateMacro, NodeDecl,
                       NodeKind, ParseError, circuit_to_ast, elaborate,
                       get_macro, library, parse, print_canonical, validate)
from marblesim import netlist
from marblesim.gates import library_map


def sample_asts():
    """Every library expansion, the first composer seeds and small
    ripple-carry adders."""
    asts = [macro.expansion for macro in library()]
    asts += [parse(composer.compose_source(seed)) for seed in range(40)]
    asts += [parse(composer.ripple_adder_source(n)) for n in (4, 16)]
    return asts


def user_macro(name, source):
    """A library entry for a netlist written as a macro body."""
    return GateMacro(name, parse(source), lambda bits: bits, False, False)


def shuffled(ast, seed):
    rng = random.Random(seed)
    nodes, gates, channels = (list(ast.nodes), list(ast.gates),
                              list(ast.channels))
    for items in (nodes, gates, channels):
        rng.shuffle(items)
    return CircuitAst(ast.name, ast.inputs, ast.outputs, tuple(nodes),
                      tuple(gates), tuple(channels))


def naive_phases(circuit):
    """Each node's phase from the channels alone, by depth-first search: 0
    without a producer, else the latest producer's phase plus k for a
    hold(k) and plus 1 for any other node."""
    producers = {name: [] for name in circuit.nodes}
    for ch in circuit.channels:
        producers[ch.dst].append(ch.src)
    phases = {}
    for root in circuit.nodes:
        stack = [root]
        while stack:
            name = stack[-1]
            waiting = [p for p in producers[name] if p not in phases]
            if waiting:
                stack += waiting
                continue
            stack.pop()
            node = circuit.nodes[name]
            step = node.hold_phases if node.kind is NodeKind.HOLD else 1
            phases[name] = max((phases[p] + step for p in producers[name]),
                               default=0)
    return phases


class TestParse:
    def test_fixture_structure(self, fixtures):
        ast = parse((fixtures / "and_gate.mnl").read_text())
        assert ast.name == "and_primitive"
        assert ast.inputs == ("a", "b")
        assert ast.outputs == ("y",)
        kinds = {nd.name: nd.kind for nd in ast.nodes}
        assert kinds == {"J": NodeKind.JUNCTION, "S": NodeKind.SCALPEL,
                         "M": NodeKind.JOIN, "W": NodeKind.WASTE}
        assert len(ast.channels) == 10
        assert not ast.gates

    def test_messy_formatting_parses_to_same_circuit(self, fixtures):
        clean = parse((fixtures / "and_gate.mnl").read_text())
        messy = parse((fixtures / "and_gate_messy.mnl").read_text())
        assert clean == messy
        assert clean.canonical_key() == messy.canonical_key()

    def test_hold_argument(self):
        ast = parse("circuit c\ninput a\noutput y\nnode H : hold(3)\n"
                    "connect a -> H.in\nconnect H.out -> y\n")
        (decl,) = ast.nodes
        assert decl.kind is NodeKind.HOLD
        assert decl.hold_phases == 3

    def test_gate_declaration(self):
        ast = parse("circuit c\ninput a, b\noutput y\ngate G : AND\n"
                    "connect a -> G.a\nconnect b -> G.b\n"
                    "connect G.y -> y\n")
        (gd,) = ast.gates
        assert (gd.name, gd.macro) == ("G", "AND")

    def test_dotted_node_names(self):
        ast = parse("circuit c\ninput a\noutput y\nnode G.H.J : hold(2)\n"
                    "connect a -> G.H.J.in\nconnect G.H.J.out -> y\n")
        (decl,) = ast.nodes
        assert decl.name == "G.H.J"
        assert {ch[:4] for ch in ast.channels} == {
            ("a", "out", "G.H.J", "in"), ("G.H.J", "out", "y", "in")}

    def test_line_tracking(self):
        ast = parse("circuit c\n\ninput a\noutput y\n\nnode H : hold(1)\n"
                    "connect a -> H.in\nconnect H.out -> y\n")
        (decl,) = ast.nodes
        assert decl.line == 6
        assert {ch.line for ch in ast.channels} == {7, 8}

    def test_line_is_not_part_of_equality(self):
        for at_3, others in (
                (NodeDecl("H", NodeKind.HOLD, 1, 3),
                 [NodeDecl("K", NodeKind.HOLD, 1, 3),
                  NodeDecl("H", NodeKind.TAP, 1, 3),
                  NodeDecl("H", NodeKind.HOLD, 2, 3)]),
                (GateDecl("G", "AND", 3),
                 [GateDecl("F", "AND", 3), GateDecl("G", "OR", 3)]),
                (Channel("a", "out", "y", "in", 3),
                 [Channel("b", "out", "y", "in", 3),
                  Channel("a", "x", "y", "in", 3),
                  Channel("a", "out", "z", "in", 3),
                  Channel("a", "out", "y", "x", 3)])):
            at_7 = at_3._replace(line=7)
            # Tuple's own comparisons would see the line; these must not.
            assert at_3 == at_7 and not at_3 != at_7
            assert hash(at_3) == hash(at_7)
            assert len({at_3, at_7}) == len(frozenset([at_7, at_3])) == 1
            assert frozenset([at_3]) == frozenset([at_7])
            for other in others:
                assert at_3 != other and not at_3 == other
                assert len({at_3, other}) == 2
            # A record equals no plain tuple, on either side: the one with
            # its line hashes the line too, and one rule serves every tuple.
            for plain in (tuple(at_3), tuple(at_3)[:-1]):
                assert at_3 != plain and plain != at_3
                assert not at_3 == plain and not plain == at_3
                assert plain not in {at_3} and at_3 not in {plain}

    @pytest.mark.parametrize("kind", list(NodeKind))
    def test_node_keyword_of_every_kind(self, kind):
        # Inputs and outputs have their own statements, so their keywords
        # are no node kinds; every other kind is declared by its value.
        spec = "hold(2)" if kind is NodeKind.HOLD else kind.value
        source = f"circuit c\nnode X : {spec}\n"
        if kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            with pytest.raises(ParseError, match="unknown node kind"):
                parse(source)
        else:
            (decl,) = parse(source).nodes
            assert decl.kind is kind


class TestWhitespace:
    """Any whitespace separates a statement's words, as a space does."""

    def test_tab_separated_netlists_parse_alike(self, fixtures):
        sources = [(fixtures / name).read_text()
                   for name in ("and_gate.mnl", "skew.mnl")]
        sources += [print_canonical(ast) for ast in sample_asts()]
        for source in sources:
            tabbed = source.replace(" ", "\t")
            assert tabbed != source
            assert parse(tabbed) == parse(source)

    @pytest.mark.parametrize("source,line,col,message", [
        ("circuit 9lives\n", 1, 9, "invalid circuit name '9lives'"),
        ("circuit  c.d\n", 1, 10, "invalid circuit name 'c.d'"),
        ("circuit c\nwobble foo\n", 2, 1, "unknown statement 'wobble'"),
        ("circuit c\n  input   a.b\n", 2, 11, "invalid identifier 'a.b'"),
        ("circuit c\ninput a\ninput a\n", 3, 7,
         "duplicate name 'a' (already declared as input on line 2)"),
        ("circuit c\nnode J : gearbox\n", 2, 10,
         "unknown node kind 'gearbox'"),
        ("circuit c\nnode H : hold(0)\n", 2, 15,
         "hold phase count must be at least 1"),
        ("circuit c\ngate G : 9x\n", 2, 10, "invalid macro name '9x'"),
        ("circuit c\ninput a\nconnect a\n", 3, 9,
         "expected '->' between endpoints"),
        ("circuit c\ninput a\nconnect a ->\n", 3, 13,
         "expected endpoint after '->'"),
        ("circuit c\ninput a\nconnect a -> ghost.in\n", 3, 14,
         "unknown name 'ghost'"),
        # Each token is found in its own field, never inside the keyword,
        # the node name or an earlier list item.
        ("circuit c\ninput n\nnode n : tap\n", 3, 6,
         "duplicate name 'n' (already declared as input on line 2)"),
        ("circuit c\noutput y\nconnect o -> y\n", 3, 9, "unknown name 'o'"),
        ("circuit c\ninput a\nconnect a -> c.x\n", 3, 14,
         "unknown name 'c'"),
        ("circuit c\ninput e\nnode e : junction\n", 3, 6,
         "duplicate name 'e' (already declared as input on line 2)"),
        ("circuit c\nnode h10 : hold(0)\n", 2, 17,
         "hold phase count must be at least 1"),
        ("circuit c\ninput a, a\n", 2, 10,
         "duplicate name 'a' (already declared as input on line 2)"),
        ("circuit c\nnode junk : jun\n", 2, 13, "unknown node kind 'jun'"),
    ])
    def test_errors_point_at_the_same_column(self, source, line, col,
                                             message):
        for text in (source, source.replace(" ", "\t")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.col) == (line, col)
            assert str(err.value) == f"line {line}, col {col}: {message}"


class TestParseErrors:
    @pytest.mark.parametrize("source,line,fragment", [
        ("input a\ncircuit c\n", 1, "circuit"),
        ("circuit c\ncircuit d\n", 2, "circuit"),
        ("circuit 9lives\n", 1, "invalid circuit name"),
        ("circuit c\ninput a\ninput a\n", 3, "duplicate"),
        ("circuit c\nnode J : junction\nnode J : scalpel\n", 3, "duplicate"),
        ("circuit c\nnode J : gearbox\n", 2, "unknown node kind"),
        ("circuit c\nnode H : hold\n", 2, "hold"),
        ("circuit c\nnode H : hold(0)\n", 2, "at least 1"),
        ("circuit c\ninput a\nconnect a ->\n", 3, "endpoint"),
        ("circuit c\ninput a\nconnect a\n", 3, "->"),
        ("circuit c\ninput a\noutput y\nconnect a.out -> y\n", 4, "bare"),
        ("circuit c\ninput a\noutput y\nconnect a -> ghost.in\n", 4,
         "unknown name"),
        ("circuit c\nnode J : junction\nconnect J -> J.A\n", 3, "port"),
        ("circuit c\nwobble foo\n", 2, "statement"),
        ("circuit c.d\n", 1, "invalid circuit name"),
        ("circuit c\ninput a.b\n", 2, "invalid identifier"),
        ("circuit c\ngate G.H : AND\n", 2, "invalid identifier"),
        ("circuit c\nnode J. : junction\n", 2, "invalid identifier"),
        ("circuit c\ninput a\nconnect a -> J..A\n", 3, "malformed"),
        ("circuit c\ninput\n", 2, "input needs at least one name"),
        ("circuit c\nnode J junction\n", 2, "':' after node name"),
        ("circuit c\ngate G AND\n", 2, "':' after gate name"),
        ("", 1, "missing circuit declaration"),
        ("circuit c\ninput a\nconnect -> a\n", 3, "endpoint before '->'"),
    ])
    def test_position_and_message(self, source, line, fragment):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == line
        assert fragment in str(err.value)

    def test_column_points_at_offender(self):
        with pytest.raises(ParseError) as err:
            parse("circuit c\nnode J : gearbox\n")
        assert err.value.col == 10


class TestCanonicalPrint:
    def test_roundtrip_identity(self, fixtures):
        for name in ("and_gate.mnl", "and_gate_messy.mnl", "skew.mnl",
                     "full_adder.mnl"):
            ast = parse((fixtures / name).read_text())
            printed = print_canonical(ast)
            again = parse(printed)
            assert again == ast
            assert print_canonical(again) == printed

    def test_elaborated_circuits_roundtrip(self):
        for ast in sample_asts():
            circuit = elaborate(ast)
            lowered = circuit_to_ast(circuit)
            again = parse(print_canonical(lowered))
            assert again == lowered, ast.name
            assert elaborate(again) == circuit, ast.name

    def test_output_is_sorted_and_terminated(self):
        ast = parse("circuit c\ninput b, a\noutput y\nnode M : join\n"
                    "connect b -> M.in2\nconnect a -> M.in1\n"
                    "connect M.out -> y\n")
        printed = print_canonical(ast)
        assert printed.endswith("\n")
        lines = printed.splitlines()
        assert lines[0] == "circuit c"
        assert lines[1] == "input b, a"
        connects = [ln for ln in lines if ln.startswith("connect")]
        assert connects == sorted(connects)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_roundtrip_over_generated_circuits(self, seed):
        source = composer.compose_source(seed)
        ast = parse(source)
        assert parse(print_canonical(ast)) == ast


class TestValidate:
    def check(self, source, fragment):
        diags = validate(parse(source))
        assert any(fragment in d.message for d in diags), diags

    def test_clean_fixture_has_no_diagnostics(self, fixtures):
        assert validate(parse((fixtures / "and_gate.mnl").read_text())) == []

    def test_unknown_macro(self):
        self.check("circuit c\ninput a\noutput y\ngate G : FROBNICATE\n"
                   "connect a -> G.a\nconnect G.y -> y\n", "unknown gate")

    def test_reserved_macro_name(self):
        self.check("circuit c\ninput a, b\noutput y\nnode AND : junction\n"
                   "connect a -> AND.A\nconnect b -> AND.B\n"
                   "connect AND.O3 -> y\nconnect AND.O1 -> y\n", "reserved")

    def test_unconnected_junction_port(self):
        self.check("circuit c\ninput a, b\noutput y\nnode J : junction\n"
                   "connect a -> J.A\nconnect b -> J.B\n"
                   "connect J.O3 -> y\n", "unconnected port J.O1")

    def test_double_drive(self):
        self.check("circuit c\ninput a, b\noutput y\nnode W : waste\n"
                   "connect a -> y\nconnect b -> y\nconnect a -> W.in\n",
                   "multiple channels")

    def test_join_needs_two_inputs(self):
        self.check("circuit c\ninput a\noutput y\nnode M : join\n"
                   "connect a -> M.in1\nconnect M.out -> y\n",
                   "at least two")

    def test_join_ports_contiguous(self):
        self.check("circuit c\ninput a, b\noutput y\nnode M : join\n"
                   "connect a -> M.in1\nconnect b -> M.in3\n"
                   "connect M.out -> y\n", "contiguous")

    def test_waste_accepts_many(self):
        source = ("circuit c\ninput a, b\noutput y\nnode W : waste\n"
                  "node T : tap\n"
                  "connect a -> W.in\nconnect b -> T.in\n"
                  "connect T.out -> W.in\nconnect T.copy -> y\n")
        assert validate(parse(source)) == []

    def test_unknown_port(self):
        self.check("circuit c\ninput a\noutput y\nnode S : scalpel\n"
                   "connect a -> S.mouth\nconnect S.out1 -> y\n"
                   "connect S.out2 -> y\n", "unknown port S.mouth")

    def test_unknown_port_on_macro_without_inputs_or_outputs(self):
        lib = {"ONE": user_macro("ONE", "circuit one\noutput y\n"
                                        "node C : const1\n"
                                        "connect C.out -> y\n"),
               "DROP": user_macro("DROP", "circuit drop\ninput a\n"
                                          "node W : waste\n"
                                          "connect a -> W.in\n")}
        ast = parse("circuit c\ninput x\noutput y, z\n"
                    "gate G : ONE\ngate D : DROP\n"
                    "connect x -> G.bogus\nconnect G.y -> y\n"
                    "connect D.bogus -> z\n")
        assert validate(ast, lib) == [
            Diagnostic("error", "unknown port G.bogus (macro inputs: none)",
                       6),
            Diagnostic("error", "unknown port D.bogus (macro outputs: none)",
                       8),
            Diagnostic("error", "unconnected port D.a", 5)]
        # An unknown macro is one error, not one per port it is wired by.
        unknown = parse("circuit c\ninput a\noutput y\ngate G : NOPE\n"
                        "connect a -> G.a\nconnect G.y -> y\n")
        assert validate(unknown, lib) == [
            Diagnostic("error", "unknown gate macro 'NOPE'", 4)]

    HOLD = ("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
            "connect a -> H.in\nconnect H.out -> y\n")

    @staticmethod
    def channel_to_nowhere():
        # Built in code: parse itself rejects an undeclared name.
        hold = parse(TestValidate.HOLD)
        return CircuitAst(hold.name, hold.inputs, hold.outputs, hold.nodes,
                          (), hold.channels + (Channel("H", "out", "Z", "in",
                                                       9),))

    @pytest.mark.parametrize("source, expected", [
        pytest.param(None, [(9, "unknown name 'Z'")], id="unknown-name"),
        pytest.param("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
                     "connect a -> H.in\nconnect a -> H.in\n"
                     "connect H.out -> y\n",
                     [(6, "duplicate channel a.out -> H.in (first on line 5)")],
                     id="duplicate-channel"),
        pytest.param("circuit c\ninput a\noutput y\nnode W : waste\n"
                     "connect a -> y\nconnect y -> W.in\n",
                     [(6, "cannot connect from circuit output 'y'")],
                     id="from-circuit-output"),
        pytest.param("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
                     "connect a -> H.in\nconnect H.bogus -> y\n",
                     [(6, "unknown port H.bogus (hold outputs: out)"),
                      (4, "unconnected port H.out")],
                     id="unknown-source-port"),
        pytest.param("circuit c\ninput a, b\noutput y\nconnect a -> y\n"
                     "connect b -> a\n",
                     [(5, "cannot connect into circuit input 'a'")],
                     id="into-circuit-input"),
        pytest.param("circuit c\ninput a, b, c\noutput y\nnode M : join\n"
                     "connect a -> M.in1\nconnect b -> M.in2\n"
                     "connect c -> M.x\nconnect M.out -> y\n",
                     [(7, "unknown port M.x (join inputs are in1..inN)")],
                     id="join-port-not-inN"),
        pytest.param("circuit c\ninput a, b\noutput y\nnode M : join\n"
                     "connect a -> M.in1\nconnect b -> M.x\n"
                     "connect M.out -> y\n",
                     [(6, "unknown port M.x (join inputs are in1..inN)")],
                     id="join-fed-in1-and-x"),
        pytest.param("circuit c\ninput a, b\noutput y\nnode M : join\n"
                     "connect a -> M.in2\nconnect b -> M.x\n"
                     "connect M.out -> y\n",
                     [(6, "unknown port M.x (join inputs are in1..inN)")],
                     id="join-fed-in2-and-x"),
        pytest.param("circuit c\ninput a\noutput y\ngate G : NOT_SYRINGE\n"
                     "connect a -> G.a\nconnect a -> G.a\n"
                     "connect G.y -> y\n",
                     [(6, "duplicate channel a.out -> G.a (first on line 5)")],
                     id="gate-input-fed-twice-by-one-line"),
        pytest.param("circuit c\ninput a\noutput y\nnode T : tap\n"
                     "node W : waste\nconnect a -> T.in\n"
                     "connect T.out -> y\nconnect T.out -> W.in\n"
                     "connect T.copy -> W.in\n",
                     [(4, "multiple channels leave T.out")],
                     id="node-port-drives-two"),
        pytest.param("circuit c\ninput a, b\noutput y\nnode H : hold(1)\n"
                     "connect a -> H.in\nconnect b -> H.in\n"
                     "connect H.out -> y\n",
                     [(4, "multiple channels into H.in")],
                     id="node-port-fed-twice"),
        pytest.param("circuit c\ninput a, b\noutput y\nconnect a -> y\n",
                     [(None, "unconnected circuit input 'b'")],
                     id="unconnected-input"),
        pytest.param("circuit c\ninput a\noutput y, z\nconnect a -> y\n",
                     [(None, "unconnected circuit output 'z'")],
                     id="unconnected-output"),
        pytest.param("circuit c\ninput a\noutput y\nnode W : waste\n"
                     "connect a -> y\n",
                     [(4, "unconnected port W.in")],
                     id="waste-without-input"),
        pytest.param("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
                     "gate G : NOT_SYRINGE\nconnect a -> y\n",
                     [(4, "unconnected port H.out"),
                      (4, "unconnected port H.in"),
                      (5, "unconnected port G.a"),
                      (5, "unconnected port G.y")],
                     id="node-outputs-first-gate-inputs-first"),
        # Built in code: parse rejects hold(0) and gives other kinds no
        # phase count.
        pytest.param(CircuitAst("c", ("a",), ("y",),
                                (NodeDecl("H", NodeKind.HOLD, 0, 4),), (),
                                (Channel("a", "out", "H", "in", 5),
                                 Channel("H", "out", "y", "in", 6))),
                     [(4, "node 'H': hold phase count must be at least 1")],
                     id="hold-of-zero-phases"),
        pytest.param(CircuitAst("c", ("a",), ("y",),
                                (NodeDecl("T", NodeKind.TAP, 3, 4),
                                 NodeDecl("W", NodeKind.WASTE, 0, 5)), (),
                                (Channel("a", "out", "T", "in", 6),
                                 Channel("T", "out", "y", "in", 7),
                                 Channel("T", "copy", "W", "in", 8))),
                     [(4, "node 'T': only a hold takes a phase count")],
                     id="phase-count-on-a-tap"),
        # Built in code: parse rejects a name declared twice.
        pytest.param(CircuitAst("c", ("a", "a"), ("y", "y"), (), (),
                                (Channel("a", "out", "y", "in", 3),)),
                     [(None, "duplicate name 'a' (already declared as "
                             "input)"),
                      (None, "duplicate name 'y' (already declared as "
                             "output)")],
                     id="duplicate-circuit-ports"),
        pytest.param(CircuitAst("c", ("a",), ("y",), (),
                                (GateDecl("G", "NOT_SYRINGE", 3),
                                 GateDecl("G", "AND", 4)),
                                (Channel("a", "out", "G", "a", 5),
                                 Channel("G", "y", "y", "in", 6))),
                     [(4, "duplicate name 'G' (already declared as gate "
                          "on line 3)")],
                     id="duplicate-gate"),
    ])
    def test_each_diagnostic(self, source, expected):
        ast = (self.channel_to_nowhere() if source is None else
               parse(source) if isinstance(source, str) else source)
        assert validate(ast) == [Diagnostic("error", message, line)
                                 for line, message in expected]

    def test_bare_circuit_ports_name_no_other_port(self):
        # Built in code: parse gives a bare input port "out" and a bare
        # output port "in".  Any other port leaves them unconnected, and is
        # not reported as unknown.
        hold = parse(self.HOLD)
        odd = CircuitAst(hold.name, hold.inputs, hold.outputs, hold.nodes, (),
                         (Channel("a", "x", "H", "in", 5),
                          Channel("H", "out", "y", "x", 6)))
        assert validate(odd) == [
            Diagnostic("error", "unconnected circuit input 'a'"),
            Diagnostic("error", "unconnected circuit output 'y'")]

    CYCLE = ("circuit c\ninput a\noutput y\n"
             "node M : join\nnode T : tap\n"
             "connect a -> M.in1\nconnect M.out -> T.in\n"
             "connect T.out -> M.in2\nconnect T.copy -> y\n")

    def test_cycle_detected(self):
        self.check(self.CYCLE, "cycle detected")

    def test_cycle_lists_the_names_it_blocks(self):
        # M and T form the cycle; y, fed only through it, is on no cycle.
        assert validate(parse(self.CYCLE)) == [
            Diagnostic("error", "cycle detected involving: M, T")]

    def test_cycle_skips_names_it_only_feeds(self):
        # D sorts before the cycle it hangs off; the report leaves it out.
        source = ("circuit c\ninput a\noutput y\nnode M : join\n"
                  "node T : tap\nnode D : hold(1)\n"
                  "connect a -> M.in1\nconnect M.out -> T.in\n"
                  "connect T.out -> M.in2\nconnect T.copy -> D.in\n"
                  "connect D.out -> y\n")
        assert validate(parse(source)) == [
            Diagnostic("error", "cycle detected involving: M, T")]

    def test_double_drive_into_join_port(self):
        source = ("circuit c\ninput a, b, c\noutput y\nnode M : join\n"
                  "connect a -> M.in1\nconnect b -> M.in1\n"
                  "connect c -> M.in2\nconnect M.out -> y\n")
        assert validate(parse(source)) == [
            Diagnostic("error", "multiple channels into M.in1", 4)]

    def test_duplicate_declarations_are_reported(self):
        # Built in code, so parse's own duplicate check never sees them.
        hold = parse("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
                     "connect a -> H.in\nconnect H.out -> y\n")
        twice = CircuitAst(hold.name, hold.inputs, hold.outputs,
                           (NodeDecl("H", NodeKind.HOLD, 1),
                            NodeDecl("H", NodeKind.HOLD, 3)),
                           (), hold.channels)
        assert validate(twice) == [Diagnostic(
            "error", "duplicate name 'H' (already declared as node)")]
        with pytest.raises(ElaborationError, match="duplicate name 'H'"):
            elaborate(twice)
        clash = CircuitAst(hold.name, hold.inputs, hold.outputs,
                           hold.nodes + (NodeDecl("a", NodeKind.HOLD, 2, 9),),
                           (), hold.channels)
        assert validate(clash) == [Diagnostic(
            "error", "duplicate name 'a' (already declared as input)", 9)]
        relined = CircuitAst(hold.name, hold.inputs, hold.outputs,
                             hold.nodes + (NodeDecl("H", NodeKind.HOLD, 3, 7),),
                             (), hold.channels)
        assert validate(relined) == [Diagnostic(
            "error", "duplicate name 'H' (already declared as node on line 4)",
            7)]

    @pytest.mark.parametrize("kind, inputs, outputs, channel", [
        (NodeKind.INPUT, (), ("y",), Channel("X", "out", "y", "in", 3)),
        (NodeKind.OUTPUT, ("a",), (), Channel("a", "out", "X", "in", 3)),
    ])
    def test_circuit_port_kinds_are_no_node_kinds(self, kind, inputs,
                                                  outputs, channel):
        # Built in code: parse has no node keyword for either kind.
        ast = CircuitAst("c", inputs, outputs, (NodeDecl("X", kind, 0, 2),),
                         (), (channel,))
        assert validate(ast) == [Diagnostic(
            "error", f"node 'X' cannot be of kind {kind.value}; declare it "
            f"on the {kind.value} line", 2)]
        with pytest.raises(ElaborationError, match="cannot be of kind"):
            elaborate(ast)

    NAMED = ("circuit c\ninput a\noutput y\nnode H : hold(1)\n"
             "gate G : NOT_SYRINGE\nconnect a -> H.in\n"
             "connect H.out -> G.a\nconnect G.y -> y\n")

    @staticmethod
    def renamed(ast, old, new):
        """``ast`` with every use of the name ``old`` (the circuit's, a
        declaration's or a macro's) written ``new``."""
        def name(text):
            return new if text == old else text
        return CircuitAst(
            name(ast.name), tuple(map(name, ast.inputs)),
            tuple(map(name, ast.outputs)),
            tuple(nd._replace(name=name(nd.name)) for nd in ast.nodes),
            tuple(gd._replace(name=name(gd.name), macro=name(gd.macro))
                  for gd in ast.gates),
            tuple(ch._replace(src=name(ch.src), dst=name(ch.dst))
                  for ch in ast.channels))

    BAD_NAMES = [
        ("c", "my c", (None, "invalid circuit name 'my c'")),
        ("a", "in put", (None, "invalid identifier 'in put'")),
        ("y", "y.z", (None, "invalid identifier 'y.z'")),
        ("H", "h h", (4, "invalid identifier 'h h'")),
        ("H", "H..x", (4, "invalid identifier 'H..x'")),
        ("G", "G.x", (5, "invalid identifier 'G.x'")),
        ("NOT_SYRINGE", "NOT SYRINGE",
         (5, "invalid macro name 'NOT SYRINGE'")),
    ]

    @staticmethod
    def unlined(ast):
        """``ast`` as code builds it, every declaration on line 0."""
        return CircuitAst(
            ast.name, ast.inputs, ast.outputs,
            tuple(nd._replace(line=0) for nd in ast.nodes),
            tuple(gd._replace(line=0) for gd in ast.gates),
            tuple(ch._replace(line=0) for ch in ast.channels))

    @pytest.mark.parametrize("old, new, expected", BAD_NAMES)
    def test_names_follow_the_parse_rule(self, old, new, expected):
        # Built in code: parse refuses each of these names, so validate
        # does too, or the printed circuit would not parse back.
        ast = self.renamed(parse(self.NAMED), old, new)
        assert validate(ast) == [Diagnostic("error", expected[1],
                                            expected[0])]
        with pytest.raises(ParseError, match="invalid"):
            parse(print_canonical(ast))

    def test_a_code_built_ast_that_validates_prints_back(self):
        named = parse(self.NAMED)
        for old, new in [("H", "sub.H"), *[case[:2] for case in
                                           self.BAD_NAMES]]:
            built = self.unlined(self.renamed(named, old, new))
            if validate(built):
                continue
            again = parse(print_canonical(built))
            assert again == built
            assert elaborate(again) == elaborate(built)

    def test_diagnostics_without_a_source_line_have_line_none(self):
        # Built in code, declarations carry line 0: every diagnostic is
        # the parsed one's, with line None, as for a circuit port.
        sources = [self.HOLD.replace("hold(1)", "join"),
                   "circuit c\ninput a, b\noutput y\nnode M : join\n"
                   "connect a -> M.in1\nconnect b -> M.in3\n"
                   "connect M.out -> y\nconnect M.out -> y\n",
                   "circuit c\ninput a\noutput y\ngate G : NOPE\n"
                   "node T : tap\nconnect a -> T.x\nconnect T.out -> y\n"]
        for source in sources:
            ast = parse(source)
            diags = validate(ast)
            assert any(diag.line for diag in diags)
            assert validate(self.unlined(ast)) == [
                diag._replace(message=re.sub(r" \(first on line \d+\)", "",
                                             diag.message), line=None)
                for diag in diags]
        join = validate(parse(self.HOLD.replace("hold(1)", "join")))
        assert Diagnostic("error", "join H needs at least two inputs",
                          4) in join

    def test_diagnostics_ignore_declaration_order(self):
        sources = [self.CYCLE,
                   "circuit c\ninput a, b\noutput y\nnode M : join\n"
                   "connect a -> M.in1\nconnect b -> M.in3\n"
                   "connect M.out -> y\n",
                   "circuit c\ninput a, b, c\noutput y\nnode M : join\n"
                   "connect a -> M.in1\nconnect b -> M.in1\n"
                   "connect c -> M.in2\nconnect M.out -> y\n"]
        asts = [parse(source) for source in sources] + sample_asts()
        asts.append(parse(composer.ripple_adder_source(32)))
        for seed, ast in enumerate(asts):
            assert set(validate(shuffled(ast, seed))) == set(validate(ast))


class TestElaborate:
    def test_primitive_circuit_passes_through(self, fixtures):
        circuit = elaborate(parse((fixtures / "and_gate.mnl").read_text()))
        assert isinstance(circuit, Circuit)
        assert set(circuit.nodes) == {"a", "b", "y", "J", "S", "M", "W"}
        assert circuit.phases["J"] == 1
        assert circuit.phases["S"] == 2
        assert circuit.phases["M"] == 3
        assert circuit.phases["y"] == 4

    def test_macro_expansion_renames_hygienically(self):
        circuit = elaborate(get_macro("NAND").expansion)
        assert "G1.J" in circuit.nodes
        assert "G2.C" in circuit.nodes
        assert not any("." not in name for name in circuit.nodes
                       if circuit.nodes[name].kind is NodeKind.JUNCTION)

    def test_const_path_gets_hold(self):
        circuit = elaborate(get_macro("NAND").expansion)
        sync = circuit.nodes["G2.J.B.sync"]
        assert sync.kind is NodeKind.HOLD
        assert sync.hold_phases == 3
        assert circuit.phases["G2.J.B.sync"] == 3
        assert circuit.phases["G2.J"] == 4

    def test_fredkin_direct_phase_oracle(self):
        circuit = elaborate(get_macro("FREDKIN_DIRECT").expansion)
        assert circuit.phases == {
            "u": 0, "x1": 0, "x2": 0,
            "J1": 1, "S1": 2, "M": 3, "J2.B.sync": 3, "J2": 4,
            "S2": 5, "MY1": 5, "MV": 6, "MY2": 6,
            "y1": 6, "v": 7, "y2": 7,
        }

    def test_insert_holds_false_keeps_imbalance(self, fixtures):
        ast = parse((fixtures / "skew.mnl").read_text())
        circuit = elaborate(ast, insert_holds=False)
        assert "J2.A.sync" not in circuit.nodes
        arrival_a = circuit.phases["J1"] + 1
        assert arrival_a != circuit.phases["J2"]

    def test_elaborated_circuit_keeps_source_lines(self, fixtures):
        ast = parse((fixtures / "skew.mnl").read_text())
        lines = {ch[:4]: ch.line for ch in ast.channels}
        assert lines[("J1", "O2", "J2", "A")] == 14
        unrepaired = elaborate(ast, insert_holds=False)
        assert {ch[:4]: ch.line for ch in unrepaired.channels} == lines
        assert unrepaired.nodes["J2"].line == 9
        # The hold and both its channels take the repaired channel's line.
        repaired = elaborate(ast)
        assert repaired.nodes["J2.A.sync"].line == 14
        assert {ch[:4]: ch.line for ch in repaired.channels
                if "J2.A.sync" in (ch.src, ch.dst)} == {
            ("J1", "O2", "J2.A.sync", "in"): 14,
            ("J2.A.sync", "out", "J2", "A"): 14}

    def test_inlined_records_take_their_lines(self):
        # An inlined node, and a channel that starts inside an instance,
        # take the line of the gate statement; a channel that starts
        # outside keeps the line of its connect statement.
        ast = parse("circuit c\ninput a, b, c\noutput y\n"
                    "gate G : AND\ngate H : OR\n"
                    "connect a -> G.a\nconnect b -> G.b\n"
                    "connect G.y -> H.a\nconnect c -> H.b\n"
                    "connect H.y -> y\n")
        gates = {"G": 4, "H": 5}
        circuit = elaborate(ast, insert_holds=False)
        assert {name: node.line for name, node in circuit.nodes.items()} == {
            name: gates.get(name.split(".")[0], 0) for name in circuit.nodes}
        connects = {"a": 6, "b": 7, "c": 9}
        for ch in circuit.channels:
            assert ch.line == (connects.get(ch.src)
                               or gates[ch.src.split(".")[0]]), ch

    def test_inserted_hold_balances(self, fixtures):
        ast = parse((fixtures / "skew.mnl").read_text())
        circuit = elaborate(ast)
        sync = circuit.nodes["J2.A.sync"]
        assert sync.kind is NodeKind.HOLD
        assert sync.hold_phases == 2
        assert circuit.phases["J2.A.sync"] + 1 == circuit.phases["J2"]

    def test_declaration_order_does_not_change_the_circuit(self):
        asts = sample_asts() + [parse(composer.ripple_adder_source(32))]
        for seed, ast in enumerate(asts):
            assert elaborate(shuffled(ast, seed)) == elaborate(ast), ast.name

    def test_hold_name_takes_suffix_when_taken(self, fixtures):
        source = (fixtures / "skew.mnl").read_text()
        source = source.replace("node W :", "node J2.A.sync :")
        source = source.replace("W.in", "J2.A.sync.in")
        circuit = elaborate(parse(source))
        assert circuit.nodes["J2.A.sync"].kind is NodeKind.WASTE
        sync = circuit.nodes["J2.A.sync_"]
        assert sync.kind is NodeKind.HOLD
        assert sync.hold_phases == 2

    def test_inlined_name_clash_raises(self):
        ast = parse("circuit c\ninput a, b, x\noutput y, z\n"
                    "node G.J : hold(1)\ngate G : AND\n"
                    "connect a -> G.a\nconnect b -> G.b\n"
                    "connect G.y -> y\nconnect x -> G.J.in\n"
                    "connect G.J.out -> z\n")
        assert validate(ast) == []
        with pytest.raises(ElaborationError) as err:
            elaborate(ast)
        assert "'G.J'" in str(err.value)

    def test_first_inlined_clash_follows_declaration_order(self):
        # Gate H is declared before G, and AND declares S before M: the
        # clash reported first is H's, and within H the one declared first.
        holds = ("H.M", "H.S", "G.J")
        ast = parse("circuit c\ninput a, b, c, d, x0, x1, x2\n"
                    "output y, z, v0, v1, v2\n"
                    + "".join(f"node {h} : hold(1)\n" for h in holds)
                    + "gate H : AND\ngate G : AND\n"
                    "connect a -> H.a\nconnect b -> H.b\nconnect H.y -> y\n"
                    "connect c -> G.a\nconnect d -> G.b\nconnect G.y -> z\n"
                    + "".join(f"connect x{k} -> {h}.in\n"
                              f"connect {h}.out -> v{k}\n"
                              for k, h in enumerate(holds)))
        assert validate(ast) == []
        with pytest.raises(ElaborationError,
                           match=r"^inlining gate H \(AND\) declares 'H\.S' "
                                 r"twice$"):
            elaborate(ast)

    def test_elaboration_is_idempotent(self, fixtures):
        first = elaborate(parse((fixtures / "full_adder.mnl").read_text()))
        second = elaborate(circuit_to_ast(first))
        assert second.phases == first.phases
        assert set(second.nodes) == set(first.nodes)
        assert sorted(ch[:4] for ch in second.channels) == \
            sorted(ch[:4] for ch in first.channels)

    def test_validation_failures_surface_as_elaboration_errors(self):
        ast = parse("circuit c\ninput a\noutput y\ngate G : FROBNICATE\n"
                    "connect a -> G.a\nconnect G.y -> y\n")
        with pytest.raises(ElaborationError):
            elaborate(ast)

    def test_expansion_limit_stops_recursive_macros(self):
        inner = parse("circuit loop_body\ninput a\noutput y\n"
                      "gate G : LOOP\nconnect a -> G.a\n"
                      "connect G.y -> y\n")
        loop = GateMacro("LOOP", inner, lambda bits: bits, False, False)
        user = parse("circuit c\ninput a\noutput y\ngate G : LOOP\n"
                     "connect a -> G.a\nconnect G.y -> y\n")
        with pytest.raises(ElaborationError) as err:
            elaborate(user, library={"LOOP": loop})
        assert "expansion" in str(err.value)

    def test_mutual_recursion_is_reported_with_its_chain(self):
        lib = {"PA": user_macro("PA", "circuit pa\ninput a\noutput y\n"
                                      "gate B : PB\nconnect a -> B.a\n"
                                      "connect B.y -> y\n"),
               "PB": user_macro("PB", "circuit pb\ninput a\noutput y\n"
                                      "gate A : PA\nconnect a -> A.a\n"
                                      "connect A.y -> y\n")}
        user = parse("circuit c\ninput a\noutput y\ngate G : PA\n"
                     "connect a -> G.a\nconnect G.y -> y\n")
        with pytest.raises(ElaborationError,
                           match="recursive macro expansion: PA -> PB -> PA"):
            elaborate(user, library=lib)

    def test_invalid_macro_body_names_macro_and_port(self):
        lib = {"BAD": user_macro("BAD", "circuit bad\ninput a\noutput y\n"
                                        "node T : tap\nnode H : hold(1)\n"
                                        "connect a -> T.in\n"
                                        "connect T.out -> H.in\n"
                                        "connect T.copy -> y\n")}
        user = parse("circuit c\ninput a\noutput y\ngate G : BAD\n"
                     "connect a -> G.a\nconnect G.y -> y\n")
        assert validate(user, lib) == []
        with pytest.raises(ElaborationError) as err:
            elaborate(user, library=lib)
        assert str(err.value) == ("invalid macro BAD: unconnected port H.out")

    def test_pass_through_macros_splice_across_instances(self):
        lib = dict(library_map())
        lib["PASS"] = user_macro("PASS", "circuit pass\ninput a\noutput y\n"
                                         "connect a -> y\n")
        lib["PASS2"] = user_macro("PASS2", "circuit pass2\ninput a\n"
                                           "output y\ngate P : PASS\n"
                                           "gate Q : PASS\n"
                                           "connect a -> P.a\n"
                                           "connect P.y -> Q.a\n"
                                           "connect Q.y -> y\n")
        chained = parse("circuit c\ninput a, b\noutput y\n"
                        "gate P1 : PASS\ngate P2 : PASS2\ngate X : XOR\n"
                        "connect a -> P1.a\nconnect P1.y -> P2.a\n"
                        "connect P2.y -> X.a\nconnect b -> X.b\n"
                        "connect X.y -> y\n")
        direct = parse("circuit c\ninput a, b\noutput y\ngate X : XOR\n"
                       "connect a -> X.a\nconnect b -> X.b\n"
                       "connect X.y -> y\n")
        assert elaborate(chained, library=lib) == elaborate(direct)

    def test_every_library_macro_elaborates_clean(self):
        from marblesim import timing_lint
        for macro in library():
            circuit = elaborate(macro.expansion)
            assert circuit.inputs == macro.inputs
            assert circuit.outputs == macro.outputs
            assert timing_lint(circuit) == ()

    @pytest.mark.parametrize("insert_holds", [True, False])
    def test_levelization_matches_a_naive_oracle(self, insert_holds):
        # The 128-bit adder's instance names sort F1., F10., F100., which
        # the small adders never reach.
        asts = [macro.expansion for macro in library()]
        asts += [parse(composer.compose_source(seed)) for seed in range(200)]
        asts += [parse(composer.primitive_source(seed))
                 for seed in range(300)]
        asts.append(parse(composer.ripple_adder_source(128)))
        for ast in asts:
            circuit = elaborate(ast, insert_holds=insert_holds)
            assert circuit.phases == naive_phases(circuit), ast.name
            assert list(circuit.nodes) == sorted(circuit.nodes), ast.name
            assert list(circuit.phases) == list(circuit.nodes), ast.name
            keys = [ch[:4] for ch in circuit.channels]
            assert keys == sorted(keys), ast.name


def fresh_bodies(monkeypatch):
    """Start the process's built-in templates and validated bodies empty,
    as in a fresh interpreter."""
    monkeypatch.setattr(netlist, "_BUILTIN_BODIES", {})
    monkeypatch.setattr(netlist, "_VALIDATED", {})


def counted_validate(monkeypatch):
    """Record the AST of every ``netlist.validate`` call from now on."""
    calls = []
    real = netlist.validate

    def counted(ast, library=None):
        calls.append(ast)
        return real(ast, library)

    monkeypatch.setattr(netlist, "validate", counted)
    return calls


def records(circuit):
    """Everything an elaboration gives, source lines and order included."""
    return (circuit.name, circuit.inputs, circuit.outputs,
            [(name, tuple(node)) for name, node in circuit.nodes.items()],
            [tuple(ch) for ch in circuit.channels],
            list(circuit.phases.items()))


# An AND whose body passes a and wastes b: a NAND built on it differs.
PASS_AND = user_macro("AND", "circuit pass_and\ninput a, b\noutput y\n"
                             "node W : waste\nconnect a -> y\n"
                             "connect b -> W.in\n")


class TestBuiltinBodiesOncePerProcess:
    """The built-in library's bodies are validated and flattened once per
    process; every other library's on every call."""

    def test_a_second_round_validates_nothing(self, monkeypatch):
        for macro in library():
            elaborate(macro.expansion)
        calls = counted_validate(monkeypatch)
        for macro in library():
            elaborate(macro.expansion)
            elaborate(macro.expansion, library=library_map())
        assert calls == []
        # A netlist of built-in gates, and an equal copy of a built-in
        # body, are validated on every call, and only themselves.
        adder = parse(composer.ripple_adder_source(4))
        copy = parse(print_canonical(get_macro("NAND").expansion))
        for ast in (adder, copy, adder, copy):
            elaborate(ast)
        assert [id(ast) for ast in calls] == [id(adder), id(copy)] * 2

    def test_an_invalid_netlist_fails_on_every_call(self):
        ast = parse("circuit c\ninput a\noutput y\ngate G : AND\n"
                    "connect a -> G.a\nconnect G.y -> y\n")
        for _ in range(2):
            with pytest.raises(ElaborationError,
                               match="unconnected port G.b"):
                elaborate(ast)

    def test_the_built_in_library_passed_shares_the_templates(
            self, monkeypatch):
        fresh_bodies(monkeypatch)
        elaborate(get_macro("FULL_ADDER").expansion, library=library_map())
        # The top-level body is validated, not made a template.
        assert set(netlist._BUILTIN_BODIES) == {"HALF_ADDER", "OR"}
        calls = counted_validate(monkeypatch)
        elaborate(get_macro("FULL_ADDER").expansion)
        assert calls == []

    @pytest.mark.parametrize("builtin_first", [True, False])
    def test_a_copied_library_gets_its_own_bodies(self, monkeypatch,
                                                  builtin_first):
        fresh_bodies(monkeypatch)
        nand = get_macro("NAND").expansion
        lib = dict(library_map())
        lib["AND"] = PASS_AND
        expected = records(elaborate(nand, library=dict(library_map())))
        fresh_bodies(monkeypatch)
        for builtin in ([True, False] if builtin_first else [False, True]):
            if builtin:
                assert records(elaborate(nand)) == expected
            else:
                circuit = elaborate(nand, library=lib)
                assert {name for name in circuit.nodes
                        if name.startswith("G1.")} == {"G1.W"}
        # And again, now that both are warm.
        assert records(elaborate(nand)) == expected
        assert "G1.J" not in elaborate(nand, library=lib).nodes

    def test_the_library_is_read_only(self):
        with pytest.raises(TypeError):
            library_map()["X"] = PASS_AND
        with pytest.raises(TypeError):
            del library_map()["AND"]
        assert "X" not in library_map()

    def test_a_built_in_body_is_frozen(self):
        body = get_macro("AND").expansion
        with pytest.raises(dataclasses.FrozenInstanceError):
            body.nodes = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            body.name = "other"
        assert body.name == "and_gate" and body.nodes

    @pytest.mark.parametrize("insert_holds", [True, False])
    def test_warm_and_cold_elaborations_are_equal(self, monkeypatch,
                                                  insert_holds):
        fresh_bodies(monkeypatch)
        cold = [records(elaborate(macro.expansion, insert_holds=insert_holds))
                for macro in library()]
        warm = [records(elaborate(macro.expansion, insert_holds=insert_holds))
                for macro in library()]
        per_call = [records(elaborate(macro.expansion, dict(library_map()),
                                      insert_holds=insert_holds))
                    for macro in library()]
        assert warm == cold == per_call
