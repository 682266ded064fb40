"""Power plug-in tests."""

import pytest

from repro import ChipDesign, ParameterSet
from repro.core.resolve import resolve_design
from repro.errors import ParameterError, UnknownTechnologyError
from repro.power.dnn import AnalyticalDnnPlugin
from repro.power.plugin import CallablePlugin, PluginRegistry
from repro.power.surveyed import SurveyedEfficiencyPlugin

PARAMS = ParameterSet.default()


def resolved_die(name="ORIN_2D", node="7nm", efficiency=None):
    design = ChipDesign.planar_2d(
        f"{name}", node, gate_count=1e9, efficiency_tops_per_w=efficiency
    )
    return resolve_design(design, PARAMS).dies[0]


class TestSurveyedPlugin:
    def test_die_override_wins(self):
        plugin = SurveyedEfficiencyPlugin()
        die = resolved_die(efficiency=5.0)
        assert plugin.efficiency_tops_per_w(die) == 5.0

    def test_device_name_match(self):
        plugin = SurveyedEfficiencyPlugin()
        die = resolved_die(name="THOR_2D", node="5nm")
        assert plugin.efficiency_tops_per_w(die) == 12.5

    def test_node_fallback(self):
        plugin = SurveyedEfficiencyPlugin()
        die = resolved_die(name="anon", node="28nm")
        assert plugin.efficiency_tops_per_w(die) == pytest.approx(0.4)


class TestDnnPlugin:
    def test_energy_scales_with_feature_size(self):
        plugin = AnalyticalDnnPlugin()
        assert plugin.energy_per_op_pj(14.0) == pytest.approx(
            4.0 * plugin.energy_per_op_pj(7.0)
        )

    def test_efficiency_improves_with_scaling(self):
        plugin = AnalyticalDnnPlugin()
        old = plugin.efficiency_tops_per_w(resolved_die(name="a", node="28nm"))
        new = plugin.efficiency_tops_per_w(resolved_die(name="b", node="7nm"))
        assert new > old

    def test_memory_intensity_costs_energy(self):
        light = AnalyticalDnnPlugin(bytes_per_op=0.0)
        heavy = AnalyticalDnnPlugin(bytes_per_op=0.5)
        die = resolved_die(name="c")
        assert (heavy.efficiency_tops_per_w(die)
                < light.efficiency_tops_per_w(die))

    def test_7nm_in_survey_ballpark(self):
        """The analytical model lands near the surveyed 7 nm TOPS/W."""
        plugin = AnalyticalDnnPlugin()
        eff = plugin.efficiency_tops_per_w(resolved_die(name="d"))
        assert 1.0 < eff < 10.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            AnalyticalDnnPlugin(bytes_per_op=-1.0)
        with pytest.raises(ParameterError):
            AnalyticalDnnPlugin().energy_per_op_pj(0.0)


class TestRegistry:
    def test_register_and_get(self):
        registry = PluginRegistry()
        registry.register(SurveyedEfficiencyPlugin())
        assert registry.get("surveyed").name == "surveyed"
        assert "surveyed" in registry.names()

    def test_duplicate_rejected(self):
        registry = PluginRegistry()
        registry.register(SurveyedEfficiencyPlugin())
        with pytest.raises(ParameterError):
            registry.register(SurveyedEfficiencyPlugin())

    def test_unknown_raises(self):
        with pytest.raises(UnknownTechnologyError):
            PluginRegistry().get("mcpat")

    def test_callable_adapter(self):
        plugin = CallablePlugin("fixed", lambda die: 3.0)
        assert plugin.efficiency_tops_per_w(resolved_die(name="e")) == 3.0

    def test_callable_rejects_non_positive(self):
        plugin = CallablePlugin("broken", lambda die: 0.0)
        with pytest.raises(ParameterError):
            plugin.efficiency_tops_per_w(resolved_die(name="f"))

