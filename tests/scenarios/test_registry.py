"""The scenario registry: registration, validation, lookup, filters."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ScenarioDescriptor,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.sim.scenario import ScenarioConfig


@pytest.fixture
def scratch_name():
    name = "registry-test-scratch"
    unregister_scenario(name)
    yield name
    unregister_scenario(name)


class TestRegistration:
    def test_decorator_registers_and_returns_builder(self, scratch_name):
        @register_scenario(name=scratch_name, tier="T1", seeds=(3,))
        def build():
            return ScenarioConfig(protocol="dap", intervals=4)

        assert build().protocol == "dap"  # builder still usable
        descriptor = get_scenario(scratch_name)
        assert descriptor.tier == "T1"
        assert descriptor.seeds == (3,)
        assert descriptor.family == "crowdsensing"  # derived from config
        assert descriptor.engines == ("des", "vectorized")
        assert descriptor.generated is False

    def test_descriptor_is_immutable(self, scratch_name):
        @register_scenario(name=scratch_name, tier="T0", seeds=(1,))
        def build():
            return ScenarioConfig()

        descriptor = get_scenario(scratch_name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            descriptor.tier = "T3"

    @pytest.mark.parametrize(
        "declared", [{"seeds": (7,)}, {"tier": "T1"}, {}]
    )
    def test_tier_and_seeds_are_required_keywords(self, scratch_name, declared):
        """A registration that omits ``tier`` or ``seeds`` fails at
        import time: both are keyword-only with no default."""
        with pytest.raises(TypeError):
            register_scenario(name=scratch_name, **declared)
        with pytest.raises(TypeError):
            register_scenario(scratch_name, "T1", (7,))

    def test_reregistration_identical_is_idempotent(self, scratch_name):
        def build():
            return ScenarioConfig()

        decorate = register_scenario(
            name=scratch_name, tier="T0", seeds=(1,)
        )
        decorate(build)
        decorate(build)  # same definition: no error
        assert get_scenario(scratch_name).tier == "T0"

    def test_reregistration_conflicting_rejected(self, scratch_name):
        register_scenario(name=scratch_name, tier="T0", seeds=(1,))(
            ScenarioConfig
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(name=scratch_name, tier="T1", seeds=(1,))(
                ScenarioConfig
            )


class TestValidation:
    def _attempt(self, **kwargs):
        defaults = {
            "name": "registry-test-scratch",
            "tier": "T0",
            "seeds": (1,),
        }
        defaults.update(kwargs)
        return register_scenario(**defaults)(ScenarioConfig)

    def test_name_must_be_kebab_case(self):
        for bad in ("CamelCase", "under_score", "-leading", "double--dash"):
            with pytest.raises(ConfigurationError, match="kebab-case"):
                register_scenario(name=bad, tier="T0", seeds=(1,))(
                    ScenarioConfig
                )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError, match="tier"):
            self._attempt(tier="T7")

    def test_empty_or_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            self._attempt(seeds=())
        with pytest.raises(ConfigurationError, match="duplicate"):
            self._attempt(seeds=(5, 5))

    def test_des_engine_is_mandatory(self):
        with pytest.raises(ConfigurationError, match="'des'"):
            self._attempt(engines=("vectorized",))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            self._attempt(engines=("des", "quantum"))

    def test_every_family_registers_on_the_fast_path(self, scratch_name):
        # The vectorized engine is catalog-complete: a dual-engine
        # declaration is accepted for every protocol family (the
        # registry's off-fast-path guard stays as a seam for future
        # protocols).
        register_scenario(name=scratch_name, tier="T0", seeds=(1,))(
            lambda: ScenarioConfig(protocol="tesla")
        )
        assert get_scenario(scratch_name).supports_engine("vectorized")

    def test_des_only_requires_exclusion_reason(self):
        with pytest.raises(ConfigurationError, match="engine_exclusion"):
            self._attempt(engines=("des",))

    def test_exclusion_with_vectorized_rejected(self):
        with pytest.raises(ConfigurationError, match="pick one"):
            self._attempt(
                engines=("des", "vectorized"), engine_exclusion="why not"
            )

    def test_des_only_with_reason_accepted(self, scratch_name):
        register_scenario(
            name=scratch_name,
            tier="T0",
            seeds=(1,),
            engines=("des",),
            engine_exclusion="single-level protocols walk per-receiver",
        )(lambda: ScenarioConfig(protocol="tesla"))
        descriptor = get_scenario(scratch_name)
        assert not descriptor.supports_engine("vectorized")
        assert descriptor.engine_exclusion


class TestLookup:
    def test_unknown_scenario_lists_names(self):
        with pytest.raises(ConfigurationError, match="smoke-t2"):
            get_scenario("no-such-scenario")

    def test_scenario_names_sorted(self):
        names = scenario_names()
        assert list(names) == sorted(names)
        assert "fig5-t2" in names

    def test_list_scenarios_filters(self):
        assert all(
            d.family == "remote-id" for d in list_scenarios(family="remote-id")
        )
        assert all(d.tier == "T3" for d in list_scenarios(tier="T3"))
        assert all(
            d.supports_engine("vectorized")
            for d in list_scenarios(engine="vectorized")
        )
        assert all(
            d.config.protocol == "tesla_pp"
            for d in list_scenarios(protocol="tesla_pp")
        )

    def test_filters_compose(self):
        rows = list_scenarios(family="crowdsensing", tier="T2")
        assert rows
        for d in rows:
            assert (d.family, d.tier) == ("crowdsensing", "T2")

    def test_supports_engine(self):
        descriptor = get_scenario("smoke-t2")
        assert descriptor.supports_engine("des")
        assert descriptor.supports_engine("vectorized")
        assert not descriptor.supports_engine("quantum")


def test_descriptor_direct_construction_validates_family():
    with pytest.raises(ConfigurationError, match="family"):
        from repro.scenarios.registry import _register

        _register(
            ScenarioDescriptor(
                name="registry-test-scratch",
                family="carrier-pigeon",
                tier="T0",
                engines=("des", "vectorized"),
                seeds=(1,),
                config=ScenarioConfig(),
            )
        )
