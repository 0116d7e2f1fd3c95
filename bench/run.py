"""Benchmark of marblesim: compile, simulate and exhaustive analysis.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process for S seconds and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates untraced and
traced rounds and reports per-layer metrics from the spans of the traced
ones.  Host times are scaled to the reference speed of ``refclock``.  A
record of the run, and the spans of a traced run, go to ``bench/out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path

import program
from checks import CheckFailed
from refclock import RefClock
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, probe

OUT = Path(__file__).resolve().parent / "out"
# Set-up is repeated at least this often and for at least this long; the
# median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def _scaled_ms(clock, span) -> float:
    return clock.scaled(span.start, span.end) * 1e3


class LayerSpans:
    """Per-layer figures from a traced run's spans.

    A figure comes from the workload's own spans when it calls the layer
    function, and otherwise from the fixed probe that ends every traced run.
    """

    def __init__(self, spans, clock):
        self.clock = clock
        self.own: dict[str, list] = {}
        self.probe: dict[str, list] = {}
        for span in spans:
            side = self.probe if span.group == "probe" else self.own
            side.setdefault(span.name, []).append(span)

    def spans(self, name):
        found = self.own.get(name) or self.probe.get(name)
        if not found:
            raise RuntimeError(f"no span of {name} in the traced run")
        return found

    def per_group_ms(self, name) -> float:
        """Median over operations (and set-up) of the time spent in
        ``name`` during each."""
        totals: dict[str, float] = {}
        for span in self.spans(name):
            totals[span.group] = (totals.get(span.group, 0.0)
                                  + _scaled_ms(self.clock, span))
        return statistics.median(totals.values())

    def per_group_count(self, name, key) -> float:
        totals: dict[str, int] = {}
        for span in self.spans(name):
            totals[span.group] = totals.get(span.group, 0) + span.counts[key]
        return statistics.median(totals.values())

    def rate(self, name, key) -> float:
        """Scaled microseconds of ``name`` per unit of count ``key``."""
        spans = self.spans(name)
        return (sum(_scaled_ms(self.clock, s) for s in spans) * 1e3
                / sum(s.counts[key] for s in spans))

    def scaling_exponent(self) -> float:
        """log(time ratio) / log(size ratio) of elaboration between the
        largest and the smallest circuit, median over operations.  Sizes
        are channel counts and must differ at least fourfold."""
        def exponents(spans):
            groups: dict[str, list] = {}
            for span in spans:
                groups.setdefault(span.group, []).append(span)
            found = []
            for members in groups.values():
                small = min(members, key=lambda s: s.counts["channels"])
                large = max(members, key=lambda s: s.counts["channels"])
                if large.counts["channels"] >= 4 * small.counts["channels"]:
                    found.append(
                        math.log(_scaled_ms(self.clock, large)
                                 / _scaled_ms(self.clock, small))
                        / math.log(large.counts["channels"]
                                   / small.counts["channels"]))
            return found
        found = (exponents(self.own.get("netlist.elaborate", []))
                 or exponents(self.probe["netlist.elaborate"]))
        return statistics.median(found)


def layer_metrics(spans, clock, untraced_ms, traced_ms) -> dict:
    L = LayerSpans(spans, clock)
    elaborate = L.spans("netlist.elaborate")
    elaborate_s = sum(_scaled_ms(clock, s) for s in elaborate) / 1e3
    values = {
        "netlist.parse_ms": (L.per_group_ms("netlist.parse"), "ms"),
        "netlist.validate_ms": (L.per_group_ms("netlist.validate"), "ms"),
        "netlist.flat_validate_ms":
            (L.per_group_ms("netlist.flat_validate"), "ms"),
        "netlist.elaborate_ms": (L.per_group_ms("netlist.elaborate"), "ms"),
        "netlist.elaborate_scaling_exp": (L.scaling_exponent(), "1"),
        "netlist.channels_per_s":
            (sum(s.counts["channels"] for s in elaborate) / elaborate_s,
             "1/s"),
        "netlist.channels":
            (L.per_group_count("netlist.elaborate", "channels"), "count"),
        "netlist.nodes":
            (L.per_group_count("netlist.elaborate", "nodes"), "count"),
        "netlist.holds_inserted":
            (L.per_group_count("netlist.elaborate", "holds"), "count"),
        "analysis.timing_lint_ms":
            (L.per_group_ms("analysis.timing_lint"), "ms"),
        "sim.simulate_ms": (L.per_group_ms("sim.simulate"), "ms"),
        "sim.events":
            (sum(s.counts["events"] for s in L.spans("sim.simulate"))
             / len(L.spans("sim.simulate")), "count"),
        "sim.us_per_event": (L.rate("sim.simulate", "events"), "us"),
        "sim.run_ledger_ms": (L.per_group_ms("sim.run_ledger"), "ms"),
        "sim.simulate_untraced_ms":
            (L.per_group_ms("sim.simulate_untraced"), "ms"),
        "analysis.truth_table_ms":
            (L.per_group_ms("analysis.truth_table"), "ms"),
        "analysis.us_per_row": (L.rate("analysis.truth_table", "rows"), "us"),
        "analysis.verify_gate_ms":
            (L.per_group_ms("analysis.verify_gate"), "ms"),
        "cli.main_ms": (L.per_group_ms("cli.main"), "ms"),
        "gates.library_ms": (L.per_group_ms("gates.library_map"), "ms"),
        "bench.ref_kernel_ms":
            (statistics.median(clock.kernel_us) / 1e3, "ms"),
        "bench.op_ms_untraced": (untraced_ms, "ms"),
        "bench.op_ms_traced": (traced_ms, "ms"),
        "bench.trace_overhead_ms": (traced_ms - untraced_ms, "ms"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def setup(name, seed, clock, tr):
    """Import the program, build the gate library and construct the
    workload; returns the program, the workload and the scaled seconds."""
    start = clock.now()
    P = program.load()
    tr.call("gates.library_map", P.library_map)
    workload = WORKLOADS[name](P, random.Random(f"{name}/{seed}"), tr)
    return P, workload, clock.scaled(start, clock.now())


def measure(name, seed, seconds, traced):
    clock = RefClock()
    tracer = Tracer(clock.now) if traced else None
    null = NullTracer()
    setups = []
    ops = []   # (start, end, vectors, traced, completed)
    failed = 0
    problems = []
    with clock:
        if traced:
            P, workload, _ = setup(name, seed, clock, tracer)
        else:
            began = clock.now()
            while (len(setups) < SETUP_REPEATS
                   or clock.now() - began < SETUP_SECONDS):
                P = workload = None
                gc.collect()
                P, workload, took = setup(name, seed, clock, null)
                setups.append(took)
        deadline = clock.now() + seconds
        rounds = 0
        while True:
            tr = tracer if traced and rounds % 2 else null
            for spec in workload.round():
                if tracer:
                    tracer.group = f"op{len(ops)}"
                start = clock.now()
                try:
                    result = workload.run(spec, tr)
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    ops.append((start, clock.now(), 0, tr.on, False))
                    continue
                end = clock.now()
                ops.append((start, end, workload.vectors(spec), tr.on, True))
                try:
                    workload.check(spec, result, tr)
                    if tr.on:
                        workload.extras(spec, result, tr)
                except CheckFailed as exc:
                    problems.append(f"op {len(ops) - 1}: {exc}")
                # Holding one operation's outputs while the next runs
                # fragments the heap: later operations then slow steadily.
                result = None
            rounds += 1
            if clock.now() >= deadline and rounds >= (2 if traced else 1):
                break
        if traced:
            tracer.group = "probe"
            probe(P, tracer)
    return clock, tracer, setups, ops, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (program.SRC / "marblesim" / "__init__.py").is_file():
        print(f"bench: no marblesim sources under {program.SRC}",
              file=sys.stderr)
        return 2

    clock, tracer, setups, ops, failed, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    def op_ms(traced):
        return statistics.median(clock.scaled(a, b) * 1e3
                                 for a, b, _, t, ok in ops
                                 if ok and t == traced)

    if args.trace:
        metrics = layer_metrics(tracer.spans, clock, op_ms(False),
                                op_ms(True))
    else:
        rates = [v / clock.scaled(a, b) for a, b, v, _, ok in ops if ok]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_ms_p50": {"value": op_ms(False), "unit": "ms"},
            "vectors_per_s": {"value": statistics.median(rates),
                              "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(ops),
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setups_s=setups,
                  ops=[{"raw_ms": (b - a) * 1e3,
                        "scaled_ms": clock.scaled(a, b) * 1e3,
                        "vectors": v, "traced": t, "ok": ok}
                       for a, b, v, t, ok in ops],
                  kernel_us_median=statistics.median(clock.kernel_us),
                  samples=len(clock.kernel_us))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl", clock.scaled)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
