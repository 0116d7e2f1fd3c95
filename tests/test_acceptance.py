"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with ``pytest -s``;
under ``pytest -v`` the per-test PASSED line carries the criterion number).
Numeric tolerances are stated inline; everything not marked approximate is
exact (integer or Fraction equality).
"""

import random
from fractions import Fraction

import pytest

import composer
from marblesim import (AmbiguousRegimeError, CollisionMode, CollisionPolicy,
                       MidbandRule, MidbandWarning, ParseError, PhysicsParams,
                       PolicyKind, SimConfig, collision_mode, elaborate,
                       get_macro, library, parse, print_canonical, simulate,
                       timing_lint, truth_table, verify_gate, weber_number)
from test_gates import (FREDKIN_TABLE, FULL_ADDER_TABLE, TOFFOLI_TABLE,
                        TWO_INPUT_TABLES)

BOUNCE = SimConfig(mode=CollisionMode.BOUNCE)
MERGE = SimConfig(mode=CollisionMode.MERGE)
MODES = (CollisionMode.BOUNCE, CollisionMode.MERGE)

N_RANDOM_CIRCUITS = 200
RANDOM_SEED_BASE = 0xC0FFEE


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


def circuit_for(name):
    return elaborate(get_macro(name).expansion)


def vectors(n):
    return [tuple((value >> (n - 1 - k)) & 1 for k in range(n))
            for value in range(2 ** n)]


EXPECTED_TABLES = dict(TWO_INPUT_TABLES)
EXPECTED_TABLES["NOT_SYRINGE"] = {(0,): (1,), (1,): (0,)}
EXPECTED_TABLES["NOT_INTERACTION"] = {(0,): (1,), (1,): (0,)}
EXPECTED_TABLES["TOFFOLI"] = TOFFOLI_TABLE
EXPECTED_TABLES["FREDKIN_CHAINED"] = FREDKIN_TABLE
EXPECTED_TABLES["FREDKIN_DIRECT"] = FREDKIN_TABLE
EXPECTED_TABLES["FULL_ADDER"] = FULL_ADDER_TABLE


def test_criterion_01_truth_tables_for_all_gates_in_both_modes():
    assert set(EXPECTED_TABLES) == {m.name for m in library()}
    for name, expected in sorted(EXPECTED_TABLES.items()):
        circuit = circuit_for(name)
        for mode in MODES:
            table = truth_table(circuit, mode)
            assert dict(table.rows) == expected, (name, mode)
    # the controlled rows single out what makes these gates interesting
    toffoli = truth_table(circuit_for("TOFFOLI"), CollisionMode.MERGE)
    assert dict(toffoli.rows)[(1, 1, 0)] == (1, 1, 1)
    assert dict(toffoli.rows)[(1, 1, 1)] == (1, 1, 0)
    fredkin = truth_table(circuit_for("FREDKIN_DIRECT"),
                          CollisionMode.BOUNCE)
    assert dict(fredkin.rows)[(0, 0, 1)] == (0, 1, 0)
    assert dict(fredkin.rows)[(1, 0, 1)] == (1, 0, 1)
    _passed(1, "13 gates x 2 modes match their reference truth tables")


def test_criterion_02_reversibility_verdicts():
    reversible = {"NOT_SYRINGE", "NOT_INTERACTION", "TOFFOLI",
                  "FREDKIN_CHAINED", "FREDKIN_DIRECT"}
    for macro in library():
        report = verify_gate(macro.name)
        assert report.reversible == (macro.name in reversible), macro.name
        assert report.claims_ok, macro.name
    _passed(2, "reversible exactly for the NOT, TOFFOLI and FREDKIN gates")


def test_criterion_03_conservativeness_verdicts():
    conservative = {"FREDKIN_CHAINED", "FREDKIN_DIRECT"}
    for macro in library():
        report = verify_gate(macro.name)
        assert report.conservative == (macro.name in conservative)
    # Toffoli's witness: the 110 row creates a set bit out of nothing.
    table = truth_table(circuit_for("TOFFOLI"), CollisionMode.BOUNCE)
    bits, outs = (1, 1, 0), dict(table.rows)[(1, 1, 0)]
    assert sum(bits) == 2 and sum(outs) == 3
    _passed(3, "bit-count conservation holds exactly for the FREDKIN gates")


def test_criterion_04_fredkin_direct_is_physically_conservative():
    circuit = circuit_for("FREDKIN_DIRECT")
    for mode in MODES:
        config = SimConfig(mode=mode)
        for bits in vectors(3):
            _, trace, ledger = simulate(circuit, bits, config)
            assert ledger.injected == 0, (mode, bits)
            assert ledger.injections == ()
            assert ledger.waste_marbles == 0, (mode, bits)
            assert ledger.output_marbles == ledger.input_marbles == sum(bits)
            assert ledger.output_mass == ledger.input_mass == sum(bits)
    _passed(4, "FREDKIN_DIRECT: no injection, no waste, marbles preserved "
               "in all 8 rows x 2 modes")


def test_criterion_05_trace_walkthroughs():
    circuit = circuit_for("FREDKIN_DIRECT")
    one = Fraction(1)

    # 010: the lone x1 marble crosses J1 and re-emerges two wires later
    # as y2, never meeting another marble.
    swap_events = [
        (0, "x1", "out", 1, one),
        (1, "J1", "B", 1, one),
        (2, "MY2", "in1", 1, one),
        (7, "y2", "in", 1, one),
    ]
    for mode in MODES:
        outputs, trace, _ = simulate(circuit, (0, 1, 0), SimConfig(mode=mode))
        assert outputs == (0, 0, 1)
        assert list(trace.events) == swap_events
        assert trace.collisions == ()

    # 101: u and x2 collide at J2 in phase 4; the mode only changes how
    # the products travel, not where they end up.
    prefix = [
        (0, "u", "out", 1, one),
        (0, "x2", "out", 2, one),
        (1, "J1", "A", 1, one),
        (1, "J2.B.sync", "in", 2, one),
        (2, "M", "in3", 1, one),
        (4, "J2", "A", 1, one),
        (4, "J2", "B", 2, one),
    ]
    bounce_tail = [
        (5, "MV", "in1", 1, one),
        (5, "MY2", "in3", 2, one),
        (7, "v", "in", 1, one),
        (7, "y2", "in", 2, one),
    ]
    merge_tail = [
        (4, "J2", "O3", 3, Fraction(2)),
        (5, "S2", "in", 3, Fraction(2)),
        (5, "S2", "out1", 4, one),
        (5, "S2", "out2", 5, one),
        (6, "MV", "in2", 4, one),
        (6, "MY2", "in2", 5, one),
        (7, "v", "in", 4, one),
        (7, "y2", "in", 5, one),
    ]
    for mode, tail in ((CollisionMode.BOUNCE, bounce_tail),
                       (CollisionMode.MERGE, merge_tail)):
        outputs, trace, _ = simulate(circuit, (1, 0, 1), SimConfig(mode=mode))
        assert outputs == (1, 0, 1)
        assert list(trace.events) == sorted(prefix + tail)
        assert trace.collisions == ((4, "J2"),)
    _passed(5, "FREDKIN_DIRECT 010 and 101 traces match the frozen "
               "walkthroughs event for event")


def test_criterion_06_physics_numbers_and_regime_boundaries():
    # Reference point, relative tolerance 1e-12.
    assert weber_number(1000.0, 0.002, 0.21, 0.072) == pytest.approx(
        1.225, rel=1e-12)

    def params(v):
        return PhysicsParams(density=1000.0, diameter=0.002,
                             surface_tension=0.072, velocity=v)

    threshold = CollisionPolicy(PolicyKind.THRESHOLD)
    assert collision_mode(threshold, params(0.21)) is CollisionMode.BOUNCE
    assert collision_mode(threshold, params(0.29)) is CollisionMode.MERGE
    with pytest.warns(MidbandWarning):
        assert collision_mode(threshold,
                              params(0.25)) is CollisionMode.BOUNCE
    force = CollisionPolicy(PolicyKind.THRESHOLD, MidbandRule.FORCE_MERGE)
    with pytest.warns(MidbandWarning):
        assert collision_mode(force, params(0.25)) is CollisionMode.MERGE
    reject = CollisionPolicy(PolicyKind.THRESHOLD, MidbandRule.REJECT)
    with pytest.raises(AmbiguousRegimeError):
        collision_mode(reject, params(0.25))
    _passed(6, "Weber number matches to 1e-12 and both regime boundaries "
               "belong to their regimes")


def _composed_runs():
    """(seed, circuit, rows) for the fixed batch of random compositions.

    rows maps each input vector to its per-mode (outputs, ledger).
    """
    batch = []
    for index in range(N_RANDOM_CIRCUITS):
        seed = RANDOM_SEED_BASE + index
        circuit = composer.compose_circuit(seed)
        rows = {}
        for bits in composer.input_vectors(circuit):
            rows[bits] = {
                mode: simulate(circuit, bits,
                               SimConfig(mode=mode, trace_enabled=False))
                for mode in MODES
            }
        batch.append((seed, circuit, rows))
    return batch


@pytest.fixture(scope="module")
def composed_runs():
    return _composed_runs()


def test_criterion_07_random_compositions_agree_across_modes(composed_runs):
    assert len(composed_runs) == N_RANDOM_CIRCUITS
    checked = 0
    for seed, _, rows in composed_runs:
        for bits, by_mode in rows.items():
            out_bounce = by_mode[CollisionMode.BOUNCE][0]
            out_merge = by_mode[CollisionMode.MERGE][0]
            assert out_bounce == out_merge, (seed, bits)
            checked += 1
    _passed(7, f"{N_RANDOM_CIRCUITS} random compositions, {checked} vectors:"
               " bounce and merge agree everywhere")


def test_criterion_08_random_compositions_conserve_mass(composed_runs):
    checked = 0
    for seed, _, rows in composed_runs:
        for bits, by_mode in rows.items():
            for mode in MODES:
                ledger = by_mode[mode][2]
                assert isinstance(ledger.input_mass, Fraction)
                assert (ledger.input_mass + ledger.injected_mass
                        == ledger.output_mass + ledger.waste_mass), \
                    (seed, bits, mode)
                checked += 1
    _passed(8, f"exact mass balance in {checked} ledgers across the same "
               "random compositions")


def test_criterion_09_adders_match_binary_arithmetic():
    half = circuit_for("HALF_ADDER")
    full = circuit_for("FULL_ADDER")
    for mode in MODES:
        config = SimConfig(mode=mode, trace_enabled=False)
        for bits in vectors(2):
            outputs, _, _ = simulate(half, bits, config)
            total = sum(bits)
            assert outputs == (total & 1, total >> 1), (bits, mode)
        for bits in vectors(3):
            outputs, _, _ = simulate(full, bits, config)
            total = sum(bits)
            assert outputs == (total & 1, total >> 1), (bits, mode)
    _passed(9, "half and full adders compute binary sums in both modes")


def test_criterion_10_parser_round_trip_and_positioned_errors(fixtures):
    for name in ("and_gate.mnl", "and_gate_messy.mnl", "skew.mnl",
                 "full_adder.mnl"):
        ast = parse((fixtures / name).read_text())
        printed = print_canonical(ast)
        assert parse(printed) == ast, name
        assert print_canonical(parse(printed)) == printed, name
    rng = random.Random(RANDOM_SEED_BASE)
    for _ in range(50):
        source = composer.compose_source(rng.randrange(2 ** 32))
        ast = parse(source)
        assert parse(print_canonical(ast)) == ast
    failures = [
        ("circuit c\nnode J : gearbox\n", 2),
        ("circuit c\ninput a\nconnect a ->\n", 3),
        ("circuit c\ninput a\ninput a\n", 3),
        ("input a\n", 1),
    ]
    for source, line in failures:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == line
    _passed(10, "print-parse round trip is the identity and parse errors "
                "carry line numbers")


def test_criterion_11_timing_lint(fixtures):
    for macro in library():
        assert timing_lint(elaborate(macro.expansion)) == (), macro.name
    skew = elaborate(parse((fixtures / "skew.mnl").read_text()),
                     insert_holds=False)
    (diag,) = timing_lint(skew)
    assert diag.severity == "error"
    assert "hold(2)" in diag.message
    assert "J2" in diag.message
    repaired = elaborate(parse((fixtures / "skew.mnl").read_text()))
    assert timing_lint(repaired) == ()
    assert repaired.nodes["J2.A.sync"].hold_phases == 2
    _passed(11, "library is lint-clean and the skewed fixture predicts "
                "exactly the hold the repairer inserts")
