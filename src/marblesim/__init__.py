"""Collision-based marble logic: netlist compiler, simulator, analysis.

Typical use::

    from marblesim import CollisionMode, SimConfig, elaborate, parse, simulate

    circuit = elaborate(parse(source))
    outputs, trace, ledger = simulate(
        circuit, (1, 0), SimConfig(mode=CollisionMode.BOUNCE))

The per-kind node records live in :mod:`marblesim.primitives`; what each
kind does to marbles is stated in :mod:`marblesim.sim`, and to the
presence masks of a truth table in :mod:`marblesim.analysis`.
"""

from .analysis import (GateReport, TruthTable, check_conservative,
                       check_reversible, physically_conservative,
                       timing_lint, truth_table, verify_gate)
from .errors import MarblesimError
from .gates import GateMacro, UnknownGateError, boolean_spec, get_macro, library
from .netlist import (Channel, Circuit, CircuitAst, Diagnostic,
                      ElaborationError, GateDecl, NodeDecl, ParseError,
                      circuit_to_ast, elaborate, parse, print_canonical,
                      validate)
from .physics import (AmbiguousRegimeError, CollisionMode, CollisionPolicy,
                      MidbandRule, MidbandWarning, PhysicsConfigError,
                      PhysicsParams, PolicyKind, collision_mode,
                      kinetic_energy, load_physics_config,
                      parse_physics_config, surface_energy, weber_number)
from .primitives import NodeKind
from .sim import (Event, Hazard, InjectionRecord, Ledger, SimConfig,
                  SimulationError, TimingViolationError, Trace, format_trace,
                  run_ledger, simulate)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRegimeError",
    "Channel",
    "Circuit",
    "CircuitAst",
    "CollisionMode",
    "CollisionPolicy",
    "Diagnostic",
    "ElaborationError",
    "Event",
    "GateDecl",
    "GateMacro",
    "GateReport",
    "Hazard",
    "InjectionRecord",
    "Ledger",
    "MarblesimError",
    "MidbandRule",
    "MidbandWarning",
    "NodeDecl",
    "NodeKind",
    "ParseError",
    "PhysicsConfigError",
    "PhysicsParams",
    "PolicyKind",
    "SimConfig",
    "SimulationError",
    "TimingViolationError",
    "Trace",
    "TruthTable",
    "UnknownGateError",
    "boolean_spec",
    "check_conservative",
    "check_reversible",
    "circuit_to_ast",
    "collision_mode",
    "elaborate",
    "format_trace",
    "get_macro",
    "kinetic_energy",
    "library",
    "load_physics_config",
    "parse",
    "parse_physics_config",
    "physically_conservative",
    "print_canonical",
    "run_ledger",
    "simulate",
    "surface_energy",
    "timing_lint",
    "truth_table",
    "validate",
    "verify_gate",
    "weber_number",
]
