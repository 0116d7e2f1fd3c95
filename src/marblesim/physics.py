"""Collision physics for rolling-marble logic.

Two marbles that meet at a junction either bounce apart elastically or
coalesce into a single marble of combined mass.  Which of the two happens is
decided here, by one of two interchangeable policies:

* ``THRESHOLD``: compare the rolling speed against two empirical switching
  speeds.  At or below ``v_bounce`` the marbles bounce; at or above
  ``v_merge`` they coalesce.  Speeds strictly between the two fall in an
  ambiguous midband and are resolved by the policy's midband rule.
* ``ENERGY``: coalescence happens when the kinetic energy of the incoming
  marble reaches a fixed fraction (default 60 percent) of the surface energy
  binding its coating.

The dimensionless Weber number (inertia over surface tension,
``rho * D * v**2 / sigma``) is exposed for diagnostics; both policies are kept
deliberately independent of it.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import MarblesimError

__all__ = [
    "CollisionMode",
    "CollisionPolicy",
    "MidbandRule",
    "MidbandWarning",
    "AmbiguousRegimeError",
    "PhysicsConfigError",
    "PhysicsParams",
    "PolicyKind",
    "collision_mode",
    "kinetic_energy",
    "load_physics_config",
    "parse_physics_config",
    "surface_energy",
    "weber_number",
]


class CollisionMode(enum.Enum):
    """Outcome of a two-marble collision."""

    BOUNCE = "bounce"
    MERGE = "merge"


class PolicyKind(enum.Enum):
    THRESHOLD = "threshold"
    ENERGY = "energy"


class MidbandRule(enum.Enum):
    """What to do when the speed falls strictly between the two thresholds."""

    FORCE_BOUNCE = "bounce"
    FORCE_MERGE = "merge"
    REJECT = "reject"


class MidbandWarning(UserWarning):
    """Speed fell in the ambiguous band and a forced resolution was applied."""


class AmbiguousRegimeError(MarblesimError):
    """Speed fell in the ambiguous band and the policy rejects it."""


class PhysicsConfigError(MarblesimError):
    """A physics config file could not be parsed or was incomplete."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


# A dataclass, not a NamedTuple: it validates its fields when built, and a
# NamedTuple may not override ``__new__``.
@dataclass(frozen=True)
class PhysicsParams:
    """Physical description of the marbles and their operating speed.

    density is the bulk liquid density in kg/m^3, diameter the marble
    diameter in m, surface_tension the effective coating tension in N/m and
    velocity the rolling speed in m/s.  energy_ratio is the fraction of the
    surface energy the kinetic energy must reach for coalescence under the
    energy policy.  v_bounce and v_merge are the empirical switching speeds
    for the threshold policy.
    """

    density: float
    diameter: float
    surface_tension: float
    velocity: float
    energy_ratio: float = 0.6
    v_bounce: float = 0.21
    v_merge: float = 0.29

    def __post_init__(self) -> None:
        for name in ("density", "diameter", "surface_tension", "velocity",
                     "energy_ratio", "v_bounce", "v_merge"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not self.energy_ratio <= 1.0:
            raise ValueError(
                f"energy_ratio must lie in (0, 1], got {self.energy_ratio!r}")
        if not self.v_bounce < self.v_merge:
            raise ValueError(
                f"v_bounce ({self.v_bounce!r}) must be below "
                f"v_merge ({self.v_merge!r})")


class CollisionPolicy(NamedTuple):
    """Regime selection rule plus the resolution for the ambiguous midband."""

    kind: PolicyKind
    midband_rule: MidbandRule = MidbandRule.FORCE_BOUNCE


def weber_number(density: float, diameter: float, velocity: float,
                 surface_tension: float) -> float:
    """Dimensionless ratio of impact inertia to surface tension.

    Computed as ``density * diameter * velocity**2 / surface_tension``.
    Raises ValueError on non-finite input, negative input, or zero surface
    tension.
    """
    for name, value in (("density", density), ("diameter", diameter),
                        ("velocity", velocity),
                        ("surface_tension", surface_tension)):
        _require_finite(name, value)
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if surface_tension == 0:
        raise ValueError("surface_tension must be non-zero")
    return density * diameter * velocity ** 2 / surface_tension


def surface_energy(surface_tension: float, diameter: float) -> float:
    """Surface energy of a spherical marble, ``sigma * pi * D**2``."""
    for name, value in (("surface_tension", surface_tension),
                        ("diameter", diameter)):
        _require_finite(name, value)
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    return surface_tension * math.pi * diameter ** 2


def kinetic_energy(params: PhysicsParams) -> float:
    """Kinetic energy of one marble at the operating speed.

    The marble is modelled as a liquid sphere: mass ``rho * (pi/6) * D**3``,
    energy ``m * v**2 / 2``.
    """
    mass = params.density * math.pi / 6.0 * params.diameter ** 3
    return 0.5 * mass * params.velocity ** 2


def collision_mode(policy: CollisionPolicy,
                   params: PhysicsParams) -> CollisionMode:
    """Decide whether two colliding marbles bounce or merge.

    Threshold policy: speeds at or below v_bounce bounce, at or above
    v_merge merge.  Inside the open midband the policy's midband rule
    applies: a forced resolution also emits a :class:`MidbandWarning`, and
    ``REJECT`` raises :class:`AmbiguousRegimeError`.

    Energy policy: merge exactly when the kinetic energy reaches
    ``energy_ratio`` times the surface energy (boundary inclusive).
    """
    if policy.kind is PolicyKind.THRESHOLD:
        v = params.velocity
        if v <= params.v_bounce:
            return CollisionMode.BOUNCE
        if v >= params.v_merge:
            return CollisionMode.MERGE
        if policy.midband_rule is MidbandRule.REJECT:
            raise AmbiguousRegimeError(
                f"velocity {v!r} lies in the ambiguous band "
                f"({params.v_bounce!r}, {params.v_merge!r})")
        mode = (CollisionMode.BOUNCE
                if policy.midband_rule is MidbandRule.FORCE_BOUNCE
                else CollisionMode.MERGE)
        warnings.warn(
            f"velocity {v!r} lies in the ambiguous band; forcing {mode.value}",
            MidbandWarning, stacklevel=2)
        return mode
    if kinetic_energy(params) >= params.energy_ratio * surface_energy(
            params.surface_tension, params.diameter):
        return CollisionMode.MERGE
    return CollisionMode.BOUNCE


# Config files are plain key=value lines; '#' starts a comment.
_REQUIRED_KEYS = ("density", "diameter", "surface_tension", "velocity")
_FLOAT_KEYS = _REQUIRED_KEYS + ("energy_ratio", "v_bounce", "v_merge")
_POLICY_KINDS = {k.value: k for k in PolicyKind}
_MIDBAND_RULES = {r.value: r for r in MidbandRule}


def parse_physics_config(text: str,
                         source: str = "<config>") -> tuple[PhysicsParams,
                                                            CollisionPolicy]:
    """Parse a key=value physics config into params and a policy.

    Recognised keys: density, diameter, surface_tension, velocity (required),
    energy_ratio, v_bounce, v_merge, policy (threshold|energy) and midband
    (bounce|merge|reject).  Unknown keys are errors.
    """
    values: dict[str, float] = {}
    policy_kind = PolicyKind.THRESHOLD
    midband = MidbandRule.FORCE_BOUNCE
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PhysicsConfigError(
                f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "policy":
            if value not in _POLICY_KINDS:
                raise PhysicsConfigError(
                    f"{source}:{lineno}: unknown policy {value!r}")
            policy_kind = _POLICY_KINDS[value]
        elif key == "midband":
            if value not in _MIDBAND_RULES:
                raise PhysicsConfigError(
                    f"{source}:{lineno}: unknown midband rule {value!r}")
            midband = _MIDBAND_RULES[value]
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise PhysicsConfigError(
                    f"{source}:{lineno}: {key} must be a number, "
                    f"got {value!r}") from None
        else:
            raise PhysicsConfigError(
                f"{source}:{lineno}: unknown key {key!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise PhysicsConfigError(
            f"{source}: missing required keys: {', '.join(missing)}")
    try:
        params = PhysicsParams(**values)
    except ValueError as exc:
        raise PhysicsConfigError(f"{source}: {exc}") from None
    return params, CollisionPolicy(policy_kind, midband)


def load_physics_config(path: str | Path) -> tuple[PhysicsParams,
                                                   CollisionPolicy]:
    """Read and parse a physics config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PhysicsConfigError(f"cannot read {path}: {exc}") from None
    return parse_physics_config(text, source=str(path))
