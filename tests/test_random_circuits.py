"""Randomized gate compositions: both collision modes must compute the same
Boolean function, and mass must balance exactly in every run.  Randomized
primitive netlists: a run either fails with a simulation error or balances,
and the untraced run agrees with the traced one.  Seeds are fixed so
failures replay.  The property tests draw netlists from a ``Random`` that
hypothesis controls, derandomized, so a failure replays and shrinks to a
small netlist."""

import dataclasses
import re
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composer
from marblesim import (CollisionMode, MarblesimError, NodeKind, SimConfig,
                       SimulationError, TimingViolationError, TruthTable,
                       circuit_to_ast, elaborate, parse, print_canonical,
                       run_ledger, simulate, timing_lint, truth_table,
                       validate)

BOUNCE = SimConfig(mode=CollisionMode.BOUNCE, trace_enabled=False)
MERGE = SimConfig(mode=CollisionMode.MERGE, trace_enabled=False)


def test_composer_is_deterministic():
    assert composer.compose_source(7) == composer.compose_source(7)
    assert composer.compose_source(7) != composer.compose_source(8)


def test_composed_sources_are_well_formed():
    for seed in range(40):
        assert validate(parse(composer.compose_source(seed))) == []


def test_first_seeds_agree_across_modes():
    for seed in range(25):
        circuit = composer.compose_circuit(seed)
        for bits in composer.input_vectors(circuit):
            out_bounce, _, ledger_bounce = simulate(circuit, bits, BOUNCE)
            out_merge, _, ledger_merge = simulate(circuit, bits, MERGE)
            assert out_bounce == out_merge, (seed, bits)
            assert ledger_bounce.balanced and ledger_merge.balanced


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_any_seed_conserves_mass(seed):
    circuit = composer.compose_circuit(seed)
    for bits in composer.input_vectors(circuit):
        for config in (BOUNCE, MERGE):
            _, _, ledger = simulate(circuit, bits, config)
            assert ledger.balanced
            assert (ledger.input_mass + ledger.injected_mass
                    == ledger.output_mass + ledger.waste_mass)


@pytest.mark.parametrize("seed", range(25))
def test_primitive_netlists_run_alike_traced_and_untraced(seed):
    ast = parse(composer.primitive_source(seed))
    assert validate(ast) == []
    for insert_holds in (True, False):
        circuit = elaborate(ast, insert_holds=insert_holds)
        for bits in composer.input_vectors(circuit, limit=64, seed=seed):
            for mode in CollisionMode:
                for strict in (False, True):
                    traced = SimConfig(mode, strict)
                    untraced = SimConfig(mode, strict, trace_enabled=False)
                    try:
                        outputs, trace, ledger = simulate(circuit, bits,
                                                          traced)
                    except (SimulationError, TimingViolationError) as exc:
                        with pytest.raises(type(exc)) as again:
                            simulate(circuit, bits, untraced)
                        assert type(again.value) is type(exc)
                        assert str(again.value) == str(exc)
                        continue
                    assert run_ledger(trace) == ledger
                    assert ledger.balanced
                    u_outputs, u_trace, u_ledger = simulate(circuit, bits,
                                                            untraced)
                    assert u_trace.events == ()
                    assert (u_outputs, u_trace.final_locations,
                            u_trace.hazards, u_ledger) == (
                        outputs, trace.final_locations, trace.hazards,
                        ledger)


def drawn_asts(rng):
    """A primitive netlist, a gate composition and a netlist that mixes
    primitives and gates, drawn from ``rng``."""
    for source in (composer.primitives_from(rng, "prim"),
                   composer.compose_from(rng, "rnd"),
                   composer.mixed_from(rng, "mixed")):
        ast = parse(source)
        assert validate(ast) == []
        yield ast


def drawn_circuits(rng):
    """Each of ``drawn_asts(rng)`` elaborated with and without hold
    repair."""
    for ast in drawn_asts(rng):
        for insert_holds in (True, False):
            yield elaborate(ast, insert_holds=insert_holds)


def outcome(function, *args):
    """What ``function(*args)`` returns, or the class and text of the
    error it raises."""
    try:
        return function(*args)
    except MarblesimError as err:
        return type(err), str(err)


def observed(circuit, bits, config):
    """Everything a run shows but its events, orders included."""
    outputs, trace, ledger = simulate(circuit, bits, config)
    return (outputs, list(trace.final_locations.items()), trace.hazards,
            trace.collisions, ledger)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_drawn_netlists_run_alike_traced_and_untraced(rng):
    for circuit in drawn_circuits(rng):
        for bits in composer.input_vectors(circuit, limit=8):
            for mode in CollisionMode:
                for strict in (False, True):
                    traced = SimConfig(mode, strict)
                    untraced = SimConfig(mode, strict, trace_enabled=False)
                    assert (outcome(observed, circuit, bits, untraced)
                            == outcome(observed, circuit, bits, traced))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_strict_runs_fail_exactly_where_hazards_are_recorded(rng):
    """Strict timing turns the first recorded hazard into the error and
    changes nothing else."""
    for source in (composer.primitives_from(rng, "prim"),
                   composer.mixed_from(rng, "mixed")):
        circuit = elaborate(parse(source), insert_holds=False)
        for bits in composer.input_vectors(circuit, limit=8):
            for mode in CollisionMode:
                loose = SimConfig(mode, trace_enabled=False)
                strict = SimConfig(mode, True, trace_enabled=False)
                try:
                    seen = observed(circuit, bits, loose)
                except MarblesimError:
                    with pytest.raises(MarblesimError):
                        simulate(circuit, bits, strict)
                    continue
                hazards = seen[2]
                if not hazards:
                    assert observed(circuit, bits, strict) == seen
                    continue
                with pytest.raises(TimingViolationError) as error:
                    simulate(circuit, bits, strict)
                assert str(error.value) == str(hazards[0])


def simulated_rows(circuit, mode):
    """One untraced simulation per vector, as ``truth_table`` orders
    them; the first vector that fails raises."""
    config = SimConfig(mode, trace_enabled=False)
    return TruthTable(circuit.name, mode, circuit.inputs, circuit.outputs,
                      tuple([(bits, simulate(circuit, bits, config)[0])
                             for bits in composer.input_vectors(circuit)]))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_drawn_netlists_tabulate_as_they_simulate(rng):
    for circuit in drawn_circuits(rng):
        for mode in CollisionMode:
            assert (outcome(truth_table, circuit, mode)
                    == outcome(simulated_rows, circuit, mode))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_printed_circuits_parse_back_to_the_same_circuit(rng):
    """Any circuit the tool prints, elaborated ones included, parses back
    to the same netlist and elaborates to the same circuit."""
    for ast in drawn_asts(rng):
        for insert_holds in (True, False):
            circuit = elaborate(ast, insert_holds=insert_holds)
            lowered = circuit_to_ast(circuit)
            again = parse(print_canonical(lowered))
            assert again == lowered
            assert elaborate(again, insert_holds=insert_holds) == circuit


def redrawn(circuit, rng):
    """``circuit`` with each node's phase moved by a drawn offset, kept at
    0 or more, and never validated: marbles reach junctions and syringes
    early or late, as no elaborated circuit has them."""
    return dataclasses.replace(circuit, phases={
        name: max(0, phase + rng.randint(-2, 2))
        for name, phase in circuit.phases.items()})


PARKING = (NodeKind.SCALPEL, NodeKind.TAP, NodeKind.JOIN, NodeKind.HOLD)


def delayed(circuit, rng):
    """``circuit`` with a drawn parking node (scalpel, tap, join or hold)
    and everything downstream of it firing 1 or 2 phases later, so marbles
    wait longer there.  The node is drawn among those whose downstream no
    other path enters at a junction or syringe, which would read that
    path's marbles early, when there is one: most circuits stay on
    schedule, and their tables go through the mask pass."""
    successors = {}
    for ch in circuit.channels:
        successors.setdefault(ch.src, []).append(ch.dst)

    def cone(start):
        reached, stack = {start}, [start]
        while stack:
            for succ in successors.get(stack.pop(), ()):
                if succ not in reached:
                    reached.add(succ)
                    stack.append(succ)
        return reached

    def closed(start):
        inside = cone(start)
        return not any(ch.dst in inside and ch.src not in inside
                       and circuit.nodes[ch.dst].kind in (NodeKind.JUNCTION,
                                                          NodeKind.SYRINGE)
                       for ch in circuit.channels)

    parking = sorted(name for name, node in circuit.nodes.items()
                     if node.kind in PARKING)
    if not parking:
        return circuit
    late = cone(rng.choice([name for name in parking if closed(name)]
                           or parking))
    delay = rng.randint(1, 2)
    return dataclasses.replace(circuit, phases={
        name: phase + delay * (name in late)
        for name, phase in circuit.phases.items()})


def check_every_property(circuit):
    """The table equals per-vector simulation, traced runs equal untraced
    runs, a clean run balances, and a strict run raises the first hazard
    or returns what the loose run returns."""
    for mode in CollisionMode:
        assert (outcome(truth_table, circuit, mode)
                == outcome(simulated_rows, circuit, mode))
        for bits in composer.input_vectors(circuit, limit=8):
            seen = {}
            for strict in (False, True):
                untraced = SimConfig(mode, strict, trace_enabled=False)
                seen[strict] = outcome(observed, circuit, bits, untraced)
                assert seen[strict] == outcome(observed, circuit, bits,
                                               SimConfig(mode, strict))
            loose, strict = seen[False], seen[True]
            if loose[0] is SimulationError:
                # A strict run fails too, at a hazard or as the loose run
                # does.
                assert strict[0] is TimingViolationError or strict == loose
                continue
            assert loose[4].balanced
            hazards = loose[2]
            assert strict == ((TimingViolationError, str(hazards[0]))
                              if hazards else loose)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_redrawn_phases_keep_every_property(rng):
    """Every property holds on hand-set phases, which mostly put some
    channel off schedule."""
    for circuit in map(redrawn, drawn_circuits(rng), repeat(rng)):
        check_every_property(circuit)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_delayed_cones_keep_every_property(rng):
    """Every property holds on hand-set phases that mostly stay on
    schedule, so the mask pass is compared with the simulator on them."""
    for circuit in map(delayed, drawn_circuits(rng), repeat(rng)):
        check_every_property(circuit)


HINT = re.compile(r".*; insert hold\((\d+)\) on (\S+)\.(\w+) -> "
                  r"(\S+)\.(\w+)(?:;.*)?")


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_lint_hints_are_the_holds_repair_inserts(rng):
    """Without repair, ``timing_lint`` names each channel repair puts a
    hold on, and that hold's length, and no other."""
    for source in (composer.primitives_from(rng, "prim"),
                   composer.mixed_from(rng, "mixed")):
        ast = parse(source)
        unrepaired = elaborate(ast, insert_holds=False)
        hints = sorted(
            (src, src_port, dst, dst_port, int(k))
            for k, src, src_port, dst, dst_port
            in (HINT.fullmatch(diag.message).groups()
                for diag in timing_lint(unrepaired)))
        repaired = elaborate(ast)
        # Each inserted hold has one channel in, from the skewed
        # channel's source, and one out, to its junction.
        into_hold = {ch.dst: ch for ch in repaired.channels
                     if ch.dst not in unrepaired.nodes}
        holds = sorted(
            (into_hold[ch.src].src, into_hold[ch.src].src_port, ch.dst,
             ch.dst_port, repaired.nodes[ch.src].hold_phases)
            for ch in repaired.channels if ch.src not in unrepaired.nodes)
        assert holds == hints
        assert timing_lint(repaired) == ()


def test_input_vectors_sample_circuits_wider_than_62_inputs():
    circuit = elaborate(parse(composer.ripple_adder_source(64)))
    assert len(circuit.inputs) == 129
    vectors = composer.input_vectors(circuit, limit=16, seed=3)
    assert vectors == composer.input_vectors(circuit, limit=16, seed=3)
    assert vectors != composer.input_vectors(circuit, limit=16, seed=4)
    assert len(set(vectors)) == 16 and vectors == sorted(vectors)
    assert all(len(bits) == 129 and set(bits) <= {0, 1} for bits in vectors)
