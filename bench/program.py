"""Loads the program under test from the ``src`` directory of this checkout.

Each call imports marblesim afresh, so a workload can time its whole set-up,
import included, more than once in one process.  An installed copy of
marblesim elsewhere is never used.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(Exception):
    """The checkout holds no marblesim sources."""


def load() -> SimpleNamespace:
    """Import marblesim from ``src`` and return the names the benchmark
    calls."""
    if not (SRC / "marblesim" / "__init__.py").is_file():
        raise ProgramMissing(f"no marblesim package under {SRC}")
    for name in [n for n in sys.modules
                 if n == "marblesim" or n.startswith("marblesim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ms = importlib.import_module("marblesim")
    cli = importlib.import_module("marblesim.cli")
    gates = importlib.import_module("marblesim.gates")
    if Path(ms.__file__).resolve().parent != SRC / "marblesim":
        raise ProgramMissing(f"marblesim imported from {ms.__file__}, "
                             f"not from {SRC}")
    return SimpleNamespace(
        parse=ms.parse,
        validate=ms.validate,
        elaborate=ms.elaborate,
        circuit_to_ast=ms.circuit_to_ast,
        simulate=ms.simulate,
        run_ledger=ms.run_ledger,
        truth_table=ms.truth_table,
        verify_gate=ms.verify_gate,
        timing_lint=ms.timing_lint,
        library_map=gates.library_map,
        main=cli.main,
        SimConfig=ms.SimConfig,
        BOUNCE=ms.CollisionMode.BOUNCE,
        MERGE=ms.CollisionMode.MERGE,
        HOLD=ms.NodeKind.HOLD,
    )
