"""Randomized gate compositions: both collision modes must compute the same
Boolean function, and mass must balance exactly in every run.  Randomized
primitive netlists: a run either fails with a simulation error or balances,
and the untraced run agrees with the traced one.  Seeds are fixed so
failures replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composer
from marblesim import (CollisionMode, SimConfig, SimulationError,
                       TimingViolationError, elaborate, parse, run_ledger,
                       simulate, validate)

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


def test_input_vectors_sample_circuits_wider_than_62_inputs():
    circuit = elaborate(parse(composer.ripple_adder_source(64)))
    assert len(circuit.inputs) == 129
    vectors = composer.input_vectors(circuit, limit=16, seed=3)
    assert vectors == composer.input_vectors(circuit, limit=16, seed=3)
    assert vectors != composer.input_vectors(circuit, limit=16, seed=4)
    assert len(set(vectors)) == 16 and vectors == sorted(vectors)
    assert all(len(bits) == 129 and set(bits) <= {0, 1} for bits in vectors)
