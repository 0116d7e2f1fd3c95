"""The plain value records are NamedTuples: built by position or keyword,
immutable, equal and hashed by value, picklable and copyable, and printed
exactly as they were when they were frozen dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from marblesim import (Channel, CircuitAst, CollisionMode, CollisionPolicy,
                       Diagnostic, GateDecl, GateMacro, GateReport, Hazard,
                       InjectionRecord, Ledger, NodeDecl, NodeKind,
                       PolicyKind, SimConfig, TruthTable, get_macro)
from marblesim.physics import MidbandRule

INJECTION = InjectionRecord(5, "C", NodeKind.CONST, 2, Fraction(1, 2))
TABLE = TruthTable("not_gate", CollisionMode.BOUNCE, ("a",), ("y",),
                   (((0,), (1,)), ((1,), (0,))))
WIRE = CircuitAst("wire", ("a",), ("y",),
                  channels=(Channel("a", "out", "y", "in", 3),))

# Each record built by position and by keyword, the repr it had as a
# frozen dataclass, and one field to change with ``_replace``.  The three
# declaration records leave ``line`` out of equality (tests/test_netlist.py).
CASES = {
    "NodeDecl": (
        NodeDecl("H", NodeKind.HOLD, 2, 4),
        NodeDecl(name="H", kind=NodeKind.HOLD, hold_phases=2, line=4),
        "NodeDecl(name='H', kind=<NodeKind.HOLD: 'hold'>, hold_phases=2, "
        "line=4)",
        {"hold_phases": 3}),
    "GateDecl": (
        GateDecl("G1", "FULL_ADDER", 6),
        GateDecl(name="G1", macro="FULL_ADDER", line=6),
        "GateDecl(name='G1', macro='FULL_ADDER', line=6)",
        {"macro": "XOR"}),
    "Channel": (
        Channel("G1", "cout", "G2", "cin", 9),
        Channel(src="G1", src_port="cout", dst="G2", dst_port="cin", line=9),
        "Channel(src='G1', src_port='cout', dst='G2', dst_port='cin', "
        "line=9)",
        {"dst": "G3"}),
    "Diagnostic": (
        Diagnostic("error", "join M needs at least two inputs", 4),
        Diagnostic(severity="error", message="join M needs at least two "
                   "inputs", line=4),
        "Diagnostic(severity='error', message='join M needs at least two "
        "inputs', line=4)",
        {"line": 5}),
    "Hazard": (
        Hazard(3, "J", "A", 7, 2),
        Hazard(phase=3, node="J", port="A", marble_id=7, expected_phase=2),
        "Hazard(phase=3, node='J', port='A', marble_id=7, expected_phase=2)",
        {"phase": 4}),
    "SimConfig": (
        SimConfig(CollisionMode.BOUNCE, True, False),
        SimConfig(mode=CollisionMode.BOUNCE, strict_timing=True,
                  trace_enabled=False),
        "SimConfig(mode=<CollisionMode.BOUNCE: 'bounce'>, "
        "strict_timing=True, trace_enabled=False)",
        {"trace_enabled": True}),
    "InjectionRecord": (
        INJECTION,
        InjectionRecord(marble_id=5, node="C", kind=NodeKind.CONST, phase=2,
                        mass=Fraction(1, 2)),
        "InjectionRecord(marble_id=5, node='C', "
        "kind=<NodeKind.CONST: 'const1'>, phase=2, mass=Fraction(1, 2))",
        {"mass": Fraction(1)}),
    "Ledger": (
        Ledger(2, 1, 2, 1, Fraction(2), Fraction(1, 2), Fraction(2),
               Fraction(1, 2), (INJECTION,)),
        Ledger(input_marbles=2, injected=1, output_marbles=2,
               waste_marbles=1, input_mass=Fraction(2),
               injected_mass=Fraction(1, 2), output_mass=Fraction(2),
               waste_mass=Fraction(1, 2), injections=(INJECTION,)),
        "Ledger(input_marbles=2, injected=1, output_marbles=2, "
        "waste_marbles=1, input_mass=Fraction(2, 1), "
        "injected_mass=Fraction(1, 2), output_mass=Fraction(2, 1), "
        "waste_mass=Fraction(1, 2), injections=(InjectionRecord("
        "marble_id=5, node='C', kind=<NodeKind.CONST: 'const1'>, phase=2, "
        "mass=Fraction(1, 2)),))",
        {"waste_marbles": 0}),
    "TruthTable": (
        TABLE,
        TruthTable(name="not_gate", mode=CollisionMode.BOUNCE, inputs=("a",),
                   outputs=("y",), rows=(((0,), (1,)), ((1,), (0,)))),
        "TruthTable(name='not_gate', mode=<CollisionMode.BOUNCE: 'bounce'>, "
        "inputs=('a',), outputs=('y',), rows=(((0,), (1,)), ((1,), (0,))))",
        {"mode": CollisionMode.MERGE}),
    "GateReport": (
        GateReport("NOT", (TABLE,), (True,), True, True, False, True, False,
                   (True,)),
        GateReport(name="NOT", tables=(TABLE,), table_ok=(True,),
                   modes_agree=True, reversible=True, conservative=False,
                   reversible_claim=True, conservative_claim=False,
                   physical=(True,)),
        "GateReport(name='NOT', tables=(TruthTable(name='not_gate', "
        "mode=<CollisionMode.BOUNCE: 'bounce'>, inputs=('a',), "
        "outputs=('y',), rows=(((0,), (1,)), ((1,), (0,)))),), "
        "table_ok=(True,), modes_agree=True, reversible=True, "
        "conservative=False, reversible_claim=True, "
        "conservative_claim=False, physical=(True,))",
        {"conservative": True}),
    "GateMacro": (
        GateMacro("WIRE", WIRE, tuple, True, True),
        GateMacro(name="WIRE", expansion=WIRE, spec_fn=tuple,
                  reversible_claim=True, conservative_claim=True),
        "GateMacro(name='WIRE', expansion=CircuitAst(name='wire', "
        "inputs=('a',), outputs=('y',), nodes=(), gates=(), "
        "channels=(Channel(src='a', src_port='out', dst='y', "
        "dst_port='in', line=3),)), spec_fn=<class 'tuple'>, "
        "reversible_claim=True, conservative_claim=True)",
        {"conservative_claim": False}),
    "CollisionPolicy": (
        CollisionPolicy(PolicyKind.ENERGY, MidbandRule.REJECT),
        CollisionPolicy(kind=PolicyKind.ENERGY,
                        midband_rule=MidbandRule.REJECT),
        "CollisionPolicy(kind=<PolicyKind.ENERGY: 'energy'>, "
        "midband_rule=<MidbandRule.REJECT: 'reject'>)",
        {"midband_rule": MidbandRule.FORCE_MERGE}),
}

each_record = pytest.mark.parametrize("case", sorted(CASES))


@each_record
def test_positional_and_keyword_construction_agree(case):
    positional, keyword, _, _ = CASES[case]
    assert type(positional).__name__ == case
    assert positional == keyword


@each_record
def test_fields_cannot_be_set(case):
    record = CASES[case][0]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@each_record
def test_equal_and_hashed_by_value(case):
    positional, keyword, _, changes = CASES[case]
    assert positional is not keyword
    assert hash(positional) == hash(keyword)
    assert positional._replace(**changes) != positional


@each_record
@pytest.mark.parametrize("round_trip", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_round_trips(case, round_trip):
    record = CASES[case][0]
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record


@each_record
def test_replace(case):
    record, _, _, changes = CASES[case]
    changed = record._replace(**changes)
    assert type(changed) is type(record)
    for name in record._fields:
        assert getattr(changed, name) == changes.get(name,
                                                     getattr(record, name))


@each_record
def test_repr_is_the_dataclass_text(case):
    assert repr(CASES[case][0]) == CASES[case][2]


def test_str():
    assert (str(CASES["Diagnostic"][0])
            == "error: line 4: join M needs at least two inputs")
    assert str(Diagnostic("warning", "unused node W")) == (
        "warning: unused node W")
    assert str(CASES["Hazard"][0]) == (
        "marble 7 reached J.A at phase 3; scheduled firing is phase 2")


def test_defaults():
    assert SimConfig(CollisionMode.MERGE) == SimConfig(
        CollisionMode.MERGE, strict_timing=False, trace_enabled=True)
    assert CollisionPolicy(PolicyKind.THRESHOLD).midband_rule is (
        MidbandRule.FORCE_BOUNCE)
    assert Diagnostic("warning", "unused node W").line is None
    assert NodeDecl("T", NodeKind.TAP)[2:] == (0, 0)
    assert GateDecl("G", "AND").line == 0
    assert Channel("a", "out", "y", "in").line == 0
    assert repr(SimConfig(mode=CollisionMode.MERGE)) == (
        "SimConfig(mode=<CollisionMode.MERGE: 'merge'>, "
        "strict_timing=False, trace_enabled=True)")
    assert repr(CollisionPolicy(kind=PolicyKind.THRESHOLD)) == (
        "CollisionPolicy(kind=<PolicyKind.THRESHOLD: 'threshold'>, "
        "midband_rule=<MidbandRule.FORCE_BOUNCE: 'bounce'>)")


def test_properties():
    ledger = CASES["Ledger"][0]
    assert ledger.balanced
    assert not ledger._replace(waste_mass=Fraction(0)).balanced
    report = CASES["GateReport"][0]
    assert report.claims_ok and report.ok
    assert not report._replace(conservative=True).claims_ok
    assert not report._replace(table_ok=(False,)).ok
    macro = CASES["GateMacro"][0]
    assert (macro.inputs, macro.outputs) == (("a",), ("y",))


def test_records_are_tuples():
    """What the change from dataclasses gives callers: unpacking, indexing
    and, but for the declaration records, equality with plain tuples."""
    phase, node, port, marble_id, expected_phase = CASES["Hazard"][0]
    assert (phase, node, expected_phase) == (3, "J", 2)
    assert CASES["Hazard"][0] == (3, "J", "A", 7, 2)
    assert CASES["SimConfig"][0][0] is CollisionMode.BOUNCE
    name, mode, inputs, outputs, rows = CASES["TruthTable"][0]
    assert (name, inputs, outputs) == ("not_gate", ("a",), ("y",))
    src, src_port, dst, dst_port, line = CASES["Channel"][0]
    assert CASES["Channel"][0][:4] == (src, src_port, dst, dst_port)
    assert CASES["NodeDecl"][0][1] is NodeKind.HOLD
    assert CASES["Diagnostic"][0]._asdict() == {
        "severity": "error", "message": "join M needs at least two inputs",
        "line": 4}


def test_library_macros_pickle():
    macro = get_macro("FREDKIN_DIRECT")
    again = pickle.loads(pickle.dumps(macro))
    assert again == macro
    assert again.spec_fn is macro.spec_fn
