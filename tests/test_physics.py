import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marblesim import (AmbiguousRegimeError, CollisionMode, CollisionPolicy,
                       MidbandRule, MidbandWarning, PhysicsConfigError,
                       PhysicsParams, PolicyKind, collision_mode,
                       kinetic_energy, load_physics_config,
                       parse_physics_config, surface_energy, weber_number)

WATER = dict(density=1000.0, diameter=0.002, surface_tension=0.072)

finite = st.floats(min_value=1e-6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def test_weber_number_reference_value():
    assert weber_number(1000.0, 0.002, 0.21, 0.072) == pytest.approx(
        1.225, rel=1e-12)


def test_weber_number_formula():
    assert weber_number(2.0, 3.0, 4.0, 5.0) == pytest.approx(
        2.0 * 3.0 * 16.0 / 5.0, rel=1e-15)


@given(density=finite, diameter=finite, velocity=finite,
       surface_tension=finite)
def test_weber_number_scales_linearly_in_density(density, diameter, velocity,
                                                 surface_tension):
    one = weber_number(density, diameter, velocity, surface_tension)
    two = weber_number(2.0 * density, diameter, velocity, surface_tension)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


@given(density=finite, diameter=finite, velocity=finite,
       surface_tension=finite)
def test_weber_number_quadratic_in_velocity(density, diameter, velocity,
                                            surface_tension):
    one = weber_number(density, diameter, velocity, surface_tension)
    two = weber_number(density, diameter, 2.0 * velocity, surface_tension)
    assert two == pytest.approx(4.0 * one, rel=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(density=-1.0, diameter=1.0, velocity=1.0, surface_tension=1.0),
    dict(density=1.0, diameter=-2.0, velocity=1.0, surface_tension=1.0),
    dict(density=1.0, diameter=1.0, velocity=-0.1, surface_tension=1.0),
    dict(density=1.0, diameter=1.0, velocity=1.0, surface_tension=0.0),
    dict(density=math.nan, diameter=1.0, velocity=1.0, surface_tension=1.0),
    dict(density=1.0, diameter=math.inf, velocity=1.0, surface_tension=1.0),
])
def test_weber_number_rejects_bad_domains(kwargs):
    with pytest.raises(ValueError):
        weber_number(**kwargs)


@pytest.mark.parametrize("args, name", [((-0.072, 0.002), "surface_tension"),
                                        ((0.072, -0.002), "diameter")])
def test_surface_energy_rejects_negative_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
        surface_energy(*args)


def _params(velocity: float, **extra) -> PhysicsParams:
    return PhysicsParams(velocity=velocity, **WATER, **extra)


class TestThresholdPolicy:
    policy = CollisionPolicy(PolicyKind.THRESHOLD)

    @pytest.mark.parametrize("velocity,expected", [
        (0.05, CollisionMode.BOUNCE),
        (0.2099999, CollisionMode.BOUNCE),
        (0.21, CollisionMode.BOUNCE),
        (0.29, CollisionMode.MERGE),
        (0.2900001, CollisionMode.MERGE),
        (1.5, CollisionMode.MERGE),
    ])
    def test_boundaries_are_inclusive(self, velocity, expected):
        assert collision_mode(self.policy, _params(velocity)) is expected

    def test_midband_defaults_to_bounce_with_warning(self):
        with pytest.warns(MidbandWarning):
            mode = collision_mode(self.policy, _params(0.25))
        assert mode is CollisionMode.BOUNCE

    def test_midband_can_force_merge(self):
        policy = CollisionPolicy(PolicyKind.THRESHOLD,
                                 MidbandRule.FORCE_MERGE)
        with pytest.warns(MidbandWarning):
            mode = collision_mode(policy, _params(0.25))
        assert mode is CollisionMode.MERGE

    def test_midband_reject_raises(self):
        policy = CollisionPolicy(PolicyKind.THRESHOLD, MidbandRule.REJECT)
        with pytest.raises(AmbiguousRegimeError):
            collision_mode(policy, _params(0.25))

    def test_custom_band(self):
        params = _params(0.25, v_bounce=0.26, v_merge=0.27)
        assert collision_mode(self.policy, params) is CollisionMode.BOUNCE


class TestEnergyPolicy:
    policy = CollisionPolicy(PolicyKind.ENERGY)

    def test_energy_identity_with_weber(self):
        # KE / Es reduces to We / 12, so the mode flips at
        # v* = sqrt(12 * ratio * sigma / (rho * D)).
        params = _params(0.4, energy_ratio=0.6)
        we = weber_number(params.density, params.diameter, params.velocity,
                          params.surface_tension)
        ratio = kinetic_energy(params) / surface_energy(
            params.surface_tension, params.diameter)
        assert ratio == pytest.approx(we / 12.0, rel=1e-12)

    @given(velocity=st.floats(min_value=0.01, max_value=10.0,
                              allow_nan=False))
    def test_mode_matches_switching_velocity(self, velocity):
        params = _params(velocity, energy_ratio=0.6)
        v_star = math.sqrt(12.0 * 0.6 * params.surface_tension
                           / (params.density * params.diameter))
        expected = (CollisionMode.MERGE if velocity >= v_star * (1 + 1e-12)
                    else CollisionMode.BOUNCE
                    if velocity <= v_star * (1 - 1e-12) else None)
        mode = collision_mode(self.policy, params)
        if expected is not None:
            assert mode is expected

    def test_exact_boundary_counts_as_merge(self):
        # With rho=12, D=1, sigma=1, v=1 both sides equal pi exactly in
        # floats, and the boundary belongs to merge.
        params = PhysicsParams(density=12.0, diameter=1.0,
                               surface_tension=1.0, velocity=1.0,
                               energy_ratio=1.0)
        assert kinetic_energy(params) == surface_energy(1.0, 1.0)
        assert collision_mode(self.policy, params) is CollisionMode.MERGE


class TestParams:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            _params(0.0)
        with pytest.raises(ValueError):
            PhysicsParams(density=-1.0, diameter=0.002,
                          surface_tension=0.072, velocity=0.2)

    def test_rejects_bad_energy_ratio(self):
        with pytest.raises(ValueError):
            _params(0.2, energy_ratio=0.0)
        with pytest.raises(ValueError):
            _params(0.2, energy_ratio=1.5)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            _params(0.2, v_bounce=0.3, v_merge=0.2)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _params(0.2).velocity = 0.5


class TestConfigParsing:
    GOOD = """\
# water marbles
density = 1000
diameter = 0.002
surface_tension = 0.072
velocity = 0.35   # fast
policy = threshold
midband = reject
"""

    def test_parses_values_comments_and_policy(self):
        params, policy = parse_physics_config(self.GOOD)
        assert params.density == 1000.0
        assert params.velocity == 0.35
        assert policy.kind is PolicyKind.THRESHOLD
        assert policy.midband_rule is MidbandRule.REJECT

    def test_defaults(self):
        params, policy = parse_physics_config(
            "density=1\ndiameter=1\nsurface_tension=1\nvelocity=1\n")
        assert params.energy_ratio == 0.6
        assert (params.v_bounce, params.v_merge) == (0.21, 0.29)
        assert policy.kind is PolicyKind.THRESHOLD
        assert policy.midband_rule is MidbandRule.FORCE_BOUNCE

    @pytest.mark.parametrize("text,fragment", [
        ("density = 1\nbogus = 2\n", "cfg:2"),
        ("density\n", "cfg:1"),
        ("density = fast\n", "must be a number"),
        ("policy = wishful\n", "unknown policy"),
        ("midband = coin_flip\n", "unknown midband"),
        ("density = 1\n", "missing required"),
        ("density=1\ndiameter=1\nsurface_tension=1\nvelocity=-2\n",
         "velocity"),
    ])
    def test_errors_carry_positions(self, text, fragment):
        with pytest.raises(PhysicsConfigError) as err:
            parse_physics_config(text, source="cfg")
        message = str(err.value)
        assert "cfg" in message
        assert fragment in message

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "marbles.phys"
        path.write_text(self.GOOD)
        params, policy = load_physics_config(path)
        assert params.diameter == 0.002
        assert policy.midband_rule is MidbandRule.REJECT

    def test_file_is_read_as_utf8_and_names_itself(self, tmp_path):
        path = tmp_path / "marbles.phys"
        path.write_bytes(b"# \xc2\xb5m marbles\n" + self.GOOD.encode())
        assert load_physics_config(path)[0].diameter == 0.002
        path.write_bytes(self.GOOD.encode() + b"# \xff\n")
        with pytest.raises(PhysicsConfigError,
                           match=f"^cannot read {re.escape(str(path))}: "
                                 f"'utf-8' codec can't decode byte 0xff"):
            load_physics_config(path)
