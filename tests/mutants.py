"""Rule mutants: does the test suite catch a wrong node rule?

The simulator and the truth table's mask pass each state node behaviour
once, and the differential tests compare them; this script measures how
well the suite catches a wrong rule.  Each mutant changes one rule in a
copy of ``src/`` and ``tests/`` and runs the tier-1 suite there, stopping
at the first failure.  A mutant is killed when a test fails and survives
when all pass.

    python tests/mutants.py

It prints ``killed`` (with the first failing test) or ``survived`` per
mutant and exits non-zero if any survives.  An unmutated copy runs first
and must pass.  Each mutant's ``old`` text must occur exactly once in its
file, so a mutant that no longer applies fails loudly.  pytest does not
collect this file; the whole list takes a few minutes on its two
workers.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM = "src/marblesim/sim.py"
ANALYSIS = "src/marblesim/analysis.py"
NETLIST = "src/marblesim/netlist.py"
CLI = "src/marblesim/cli.py"
WORKERS = 2

# (file, old, new, reason)
MUTANTS = [
    # The simulator's rules, sim._Run.
    (SIM, 'self.emit(node, "O5", a[0], phase)',
     'self.emit(node, "O1", a[0], phase)',
     "junction: a lone A marble leaves on O1"),
    (SIM, 'self.emit(node, "O1", b[0], phase)',
     'self.emit(node, "O5", b[0], phase)',
     "junction: a lone B marble leaves on O5"),
    (SIM, 'self.emit(node, "O2", a[0], phase)\n'
          '                    self.emit(node, "O4", b[0], phase)',
     'self.emit(node, "O4", a[0], phase)\n'
     '                    self.emit(node, "O2", b[0], phase)',
     "junction: bounced marbles swap sides"),
    (SIM, "if self.config.mode is CollisionMode.BOUNCE:",
     "if self.config.mode is not CollisionMode.BOUNCE:",
     "junction: the two collision modes swapped"),
    (SIM, "\n" + " " * 34 + "+ self.created[b[0]][2], phase)", ", phase)",
     "merge: the merged marble has only A's mass"),
    (SIM, "half = self.created[marble][2] / 2",
     "half = self.created[marble][2]",
     "scalpel: the halves keep the whole mass"),
    (SIM, 'self.emit_new(node, "copy", _UNIT, phase)', "pass",
     "tap: no copy is made"),
    (SIM, 'if ports.pop("in", None) is None:',
     'if ports.pop("in", None) is not None:',
     "syringe: injects where a marble arrived"),
    (SIM, 'self.final[marble] = (node, "waste")', "pass",
     "syringe: a sensed marble is not moved to its pocket"),
    (SIM, "if key in self.placed:", "if key in ():",
     "contention: two marbles on one port pass"),
    (SIM, "if phase != expected:", "if phase > expected:",
     "hazards: an early arrival is no hazard"),
    (SIM, "if self.config.strict_timing:",
     "if not self.config.strict_timing:",
     "hazards: strict timing inverted"),
    (SIM, "for node in sorted(nodes) if len(nodes) > 1 else nodes:",
     "for node in nodes:",
     "fire order: the nodes due in a phase fire in arrival order"),
    (SIM, "*_, contended, _, text = min(faults)",
     "*_, contended, _, text = max(faults)",
     "fault order: the greatest fault of a phase is raised"),
    (SIM, "self.last_phase = circuit.max_phase + 2",
     "self.last_phase = circuit.max_phase + 1",
     "end of run: one phase too few for a late marble"),
    (SIM, "if self.stuck:", "if False:",
     "end of run: marbles parked for good pass"),
    # The mask pass, analysis.
    (ANALYSIS, "return ((b & ~a, 0), ", "return ((b, 0), ",
     "_presence_route: O1 also takes B when A is present"),
    (ANALYSIS, "(a & ~b, 0))", "(a, 0))",
     "_presence_route: O5 also takes A when B is present"),
    (ANALYSIS, "bounce = both if mode is _BOUNCE else 0",
     "bounce = both if mode is not _BOUNCE else 0",
     "_presence_route: the two collision modes swapped"),
    (ANALYSIS, "(both ^ bounce, 0)", "(both, 0)",
     "_presence_route: O3 takes a bounce too"),
    (ANALYSIS, "return ((full ^ ins[0][0], 0),)", "return ((ins[0][0], 0),)",
     "_presence_route: a syringe passes its input"),
    (ANALYSIS, "return ((full, 0),)", "return ((0, 0),)",
     "_presence_route: a const injects nothing"),
    (ANALYSIS, "two |= in_two | (one & in_one)", "two |= in_two",
     "_presence_route: a join never puts two marbles on its out"),
    (ANALYSIS, "        if kind.single:\n            for _, two in got:",
     "        if False:\n            for _, two in got:",
     "_route: contention is never flagged"),
    (ANALYSIS, "_count(merges, slots[outs[2]][0])",
     "_count(merges, slots[outs[1]][0])",
     "_spoiled: a bounce counts as a merge"),
    (ANALYSIS, "spoiled |= slots[ins[0]][0]", "spoiled |= 0",
     "_spoiled: a firing tap spoils nothing"),
    (ANALYSIS, "return (1 << (1 << len(circuit.inputs))) - 1", "return 0",
     "_spoiled: a syringe spoils nothing"),
    (ANALYSIS, "spoiled |= slots[slot][0]", "spoiled |= 0",
     "_spoiled: waste spoils nothing"),
    (ANALYSIS, "        if (dst, port) in into:\n            return None\n",
     "",
     "_compile: two channels into one port are compiled"),
    (ANALYSIS, "    if next(_off_schedule(circuit.nodes, channels, phases), "
               "None) is not None:\n        return None\n",
     "",
     "_compile: an off-schedule circuit is compiled"),
    # The schedule rule and hold repair, netlist.
    (NETLIST, "if (kind is _JUNCTION or kind is _SYRINGE\n",
     "if (kind is _JUNCTION\n",
     "_off_schedule: a skewed syringe is on schedule"),
    (NETLIST, "or (early < 0 and kind.outs)):",
     "or (early > 0 and kind.outs)):",
     "_off_schedule: early, not late, arrivals at a parking node count"),
    (NETLIST, "(hold_name, _HOLD, early, line)",
     "(hold_name, _HOLD, early + 1, line)",
     "hold repair: an inserted hold is one phase too long"),
    (NETLIST, "phases[hold_name] = phases[jname] - 1",
     "phases[hold_name] = phases[jname]",
     "hold repair: an inserted hold fires with its junction"),
    # What validate reports, netlist.
    (NETLIST, "if not pattern.fullmatch(name):\n            err(",
     "if False:\n            err(",
     "validate: names parse refuses pass"),
    (NETLIST, 'diags.append(Diagnostic("error", message, line or None))',
     'diags.append(Diagnostic("error", message, line))',
     "validate: a code-built declaration's line 0 is reported"),
    # Built-in bodies validated and flattened once per process, netlist.
    (NETLIST, "bodies = _BUILTIN_BODIES if lib is builtin else {}",
     "bodies = _BUILTIN_BODIES",
     "elaborate: every library shares the built-in templates"),
    (NETLIST, "if shared and _VALIDATED.get(id(ast)) is ast:",
     "if shared:",
     "elaborate: nothing is validated with the built-in library"),
    # A command line parsed once, by its subcommand's parser, cli.main.
    (CLI, "if args is None or rest:", "if args is None:",
     "dispatch: arguments the subcommand leaves over are ignored"),
    (CLI, "args = parser.parse_args(argv)", "args = parser.parse_args(argv[1:])",
     "dispatch: the fallback parses the line without its first argument"),
    # Which errors `table` reports as an unknown target, cli._cmd_table.
    (CLI, "except UnknownGateError:", "except MarblesimError:",
     "table: an elaboration error is reported as an unknown target"),
]


def mutated(mutant: tuple[str, str, str, str]) -> str:
    """The text of the mutant's file with its one change applied."""
    path, old, new, reason = mutant
    text = (ROOT / path).read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        raise SystemExit(f"stale mutant ({reason}): {old!r} occurs {found} "
                         f"times in {path}")
    text = text.replace(old, new)
    compile(text, path, "exec")
    return text


def run_suite(change: tuple[str, str] | None) -> tuple[int, str]:
    """Tier-1 in a fresh copy with ``change`` (path, text) written, stopping
    at the first failure: pytest's exit code and first failing test."""
    with tempfile.TemporaryDirectory(prefix="marblesim-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if change is not None:
            path, text = change
            (Path(tmp) / path).write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src",
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--continue-on-collection-errors", "tests"],
            cwd=tmp, env=env, capture_output=True, text=True)
    first = next((line for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return done.returncode, first.split(" - ")[0]


def main() -> int:
    texts = [mutated(m) for m in MUTANTS]
    start = time.monotonic()
    code, first = run_suite(None)
    if code != 0:
        print(f"the unmutated suite fails: {first}")
        return 2
    survived = errors = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        results = pool.map(run_suite, [(m[0], text)
                                       for m, text in zip(MUTANTS, texts)])
        for (path, _, _, reason), (code, first) in zip(MUTANTS, results):
            if code == 0:
                survived += 1
                print(f"survived  {path}: {reason}", flush=True)
            elif code == 1:
                print(f"killed    {path}: {reason}\n          by {first}",
                      flush=True)
            else:
                errors += 1
                print(f"error {code}  {path}: {reason}", flush=True)
    print(f"{len(MUTANTS) - survived - errors} killed, {survived} survived, "
          f"{errors} errors of {len(MUTANTS)} mutants in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
