"""Self-tests of the benchmark: seeded generators and independent checks.

    python3 bench/selftest.py

The generators must give the same inputs for the same seed, and every
check must reject a deliberately wrong result.
"""

from __future__ import annotations

import random
import unittest
from fractions import Fraction
from types import SimpleNamespace

import program
from checks import (CheckFailed, check_ledger, check_modes_agree, check_sum,
                    check_table_rows, check_verify, expected_verdicts,
                    fredkin, gate_table, is_reversible, parse_verify_records,
                    toffoli)
from tracing import NullTracer
from workloads import (AdderCompile, LibraryVerify, Network, VectorRuns,
                       adder_source, random_bits)

NULL = NullTracer()


def flip_first_output(rows):
    (bits, outputs), rest = rows[0], list(rows[1:])
    return [(bits, (1 - outputs[0],) + tuple(outputs[1:]))] + rest


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(adder_source(8), adder_source(8))
        self.assertEqual(Network(random.Random("s/1"), 0).source,
                         Network(random.Random("s/1"), 0).source)
        self.assertEqual(random_bits(random.Random("s/1"), 129),
                         random_bits(random.Random("s/1"), 129))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(Network(random.Random("s/1"), 0).source,
                            Network(random.Random("s/2"), 0).source)
        self.assertNotEqual(random_bits(random.Random("s/1"), 129),
                            random_bits(random.Random("s/2"), 129))

    def test_every_network_has_the_same_gate_mix(self):
        for seed in range(20):
            net = Network(random.Random(seed), 0)
            kinds = sorted(kind for kind, _ in net.stages)
            self.assertEqual(kinds, ["FREDKIN_DIRECT"] * 3 + ["TOFFOLI"] * 3)

    def test_network_function_is_a_bijection(self):
        net = Network(random.Random(3), 0)
        rows = [(bits, net(*bits)) for bits, _ in
                ((tuple((v >> (11 - k)) & 1 for k in range(12)), None)
                 for v in range(4096))]
        self.assertTrue(is_reversible(rows, 12, 12))


class GateFunctions(unittest.TestCase):
    def test_reversible_gates(self):
        self.assertEqual(fredkin(1, 0, 1), (1, 0, 1))
        self.assertEqual(fredkin(0, 0, 1), (0, 1, 0))
        self.assertEqual(toffoli(1, 1, 0), (1, 1, 1))
        self.assertEqual(toffoli(1, 0, 0), (1, 0, 0))

    def test_expected_verdicts(self):
        self.assertTrue(expected_verdicts("FREDKIN_DIRECT")["physical_merge"])
        self.assertTrue(expected_verdicts("FREDKIN_CHAINED")["conservative"])
        self.assertFalse(
            expected_verdicts("FREDKIN_CHAINED")["physical_bounce"])
        toffoli_verdicts = expected_verdicts("TOFFOLI")
        self.assertTrue(toffoli_verdicts["reversible"])
        self.assertFalse(toffoli_verdicts["conservative"])
        self.assertTrue(expected_verdicts("NOT_SYRINGE")["reversible"])
        self.assertFalse(expected_verdicts("HALF_ADDER")["reversible"])


class ChecksReject(unittest.TestCase):
    def test_sum(self):
        bits = (1, 0, 1, 1, 0)             # a = 1, b = 3, cin = 0
        check_sum(2, bits, (0, 0, 1))      # 4, least significant bit first
        with self.assertRaises(CheckFailed):
            check_sum(2, bits, (1, 0, 1))  # off by one
        with self.assertRaises(CheckFailed):
            check_sum(2, bits, (0, 1, 1))  # one flipped bit

    def test_ledger(self):
        ledger = SimpleNamespace(
            input_mass=Fraction(2), injected_mass=Fraction(1),
            output_mass=Fraction(3, 2), waste_mass=Fraction(3, 2),
            input_marbles=2)
        check_ledger(ledger, (1, 0, 1))
        with self.assertRaises(CheckFailed):
            check_ledger(ledger, (1, 1, 1))
        ledger.waste_mass = Fraction(1)
        with self.assertRaises(CheckFailed):
            check_ledger(ledger, (1, 0, 1))

    def test_table_rows(self):
        rows = gate_table("FULL_ADDER")
        fn = lambda a, b, c: ((a + b + c) & 1, (a + b + c) >> 1)  # noqa
        check_table_rows(rows, 3, fn)
        with self.assertRaises(CheckFailed):
            check_table_rows(flip_first_output(rows), 3, fn)
        with self.assertRaises(CheckFailed):
            check_table_rows(rows[::-1], 3, fn)
        with self.assertRaises(CheckFailed):
            check_table_rows(rows[:-1], 3, fn)

    def test_modes_agree(self):
        rows = gate_table("XOR")
        check_modes_agree(rows, list(rows), "XOR")
        with self.assertRaises(CheckFailed):
            check_modes_agree(rows, flip_first_output(rows), "XOR")

    def test_reversibility(self):
        rows = gate_table("TOFFOLI")
        self.assertTrue(is_reversible(rows, 3, 3))
        self.assertFalse(is_reversible(flip_first_output(rows), 3, 3))


class ChecksOnProgramOutput(unittest.TestCase):
    """Run small operations of the program, accept them, then reject a
    corrupted copy of their outputs."""

    @classmethod
    def setUpClass(cls):
        cls.P = program.load()

    def test_vector_run(self):
        workload = VectorRuns(self.P, random.Random("t"), NULL)
        spec = workload.round()[0]
        outputs, trace, ledger = workload.run(spec, NULL)
        workload.check(spec, (outputs, trace, ledger), NULL)
        flipped = (1 - outputs[0],) + outputs[1:]
        with self.assertRaises(CheckFailed):
            workload.check(spec, (flipped, trace, ledger), NULL)

    def test_adder_ladder(self):
        class SmallLadder(AdderCompile):
            LADDER = (2, 5)
        workload = SmallLadder(self.P, random.Random("t"), NULL)
        spec = workload.round()[0]
        results = workload.run(spec, NULL)
        workload.check(spec, results, NULL)
        workload.unrepaired[5] = (workload.unrepaired[5][0],
                                  workload.unrepaired[5][1] + 1)
        with self.assertRaises(CheckFailed):
            workload.check(spec, results, NULL)

    def test_library_verify(self):
        workload = LibraryVerify(self.P, random.Random("t"), NULL)
        outputs = workload.run(None, NULL)
        workload.check(None, outputs, NULL)
        what, (code, text) = outputs[0]
        self.assertEqual(what, "verify")
        verdicts = parse_verify_records(text)
        check_verify(verdicts)
        verdicts["TOFFOLI"]["conservative"] = True
        with self.assertRaises(CheckFailed):
            check_verify(verdicts)
        del verdicts["AND"]
        with self.assertRaises(CheckFailed):
            check_verify(verdicts)
        table_what, (code, text) = outputs[1]
        tag, bits, outs = text.splitlines()[0].split("\t")
        first = f"{tag}\t{bits}\t{1 - int(outs[0])}{outs[1:]}\n"
        corrupted = list(outputs)
        corrupted[1] = (table_what, (code, first + text.split("\n", 1)[1]))
        with self.assertRaises(CheckFailed):
            workload.check(None, corrupted, NULL)


if __name__ == "__main__":
    unittest.main()
