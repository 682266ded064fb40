"""Multi-application workload suites (Eq. 16's Σ_k) and plug-in wiring."""

import pytest

from repro import (
    CarbonModel,
    DesignError,
    ParameterSet,
    Workload,
    WorkloadSuite,
)

PARAMS = ParameterSet.default()


class FixedPlugin:
    """A power plug-in that rates every die at one efficiency (TOPS/W)."""

    def __init__(self, name, tops_per_w):
        self.name = name
        self.tops_per_w = tops_per_w

    def efficiency_tops_per_w(self, die):
        return self.tops_per_w


@pytest.fixture(scope="module")
def model(orin_2d):
    return CarbonModel(orin_2d, PARAMS)


def make_suite():
    perception = Workload.from_activity(
        "perception", 200.0, 0.5, 10.0, use_location="renewable_charging"
    )
    planning = Workload.from_activity(
        "planning", 54.0, 0.5, 10.0, use_location="usa"
    )
    return WorkloadSuite("av_suite", (perception, planning))


class TestWorkloadSuite:
    def test_rejects_empty(self):
        with pytest.raises(DesignError):
            WorkloadSuite("empty", ())

    def test_lifetime_is_max(self):
        suite = WorkloadSuite(
            "mixed",
            (Workload("a", 1e6, lifetime_years=3.0),
             Workload("b", 1e6, lifetime_years=8.0)),
        )
        assert suite.lifetime_years == 8.0

    def test_sum_over_applications(self, model):
        """Σ_k: the suite total equals the sum of per-app evaluations."""
        suite = make_suite()
        combined = model.operational_suite(suite)
        individual = sum(
            model.operational(w).total_kg for w in suite.workloads
        )
        assert combined.total_kg == pytest.approx(individual)
        assert len(combined.per_workload) == 2

    def test_per_application_grids_respected(self, model):
        suite = make_suite()
        report = model.operational_suite(suite)
        cis = {r.workload_name: r.use_ci_kg_per_kwh
               for r in report.per_workload}
        assert cis["perception"] == pytest.approx(0.05)
        assert cis["planning"] == pytest.approx(0.38)

    def test_annual_rate(self, model):
        report = model.operational_suite(make_suite())
        assert report.annual_kg == pytest.approx(report.total_kg / 10.0)

    def test_energy_aggregates(self, model):
        report = model.operational_suite(make_suite())
        assert report.total_energy_kwh == pytest.approx(
            sum(r.total_energy_kwh for r in report.per_workload)
        )

    def test_suite_equivalent_to_merged_workload_on_one_grid(self, model):
        """Two same-grid apps behave like one app with the summed work."""
        a = Workload("a", 4e8, use_location="usa")
        b = Workload("b", 6e8, use_location="usa")
        merged = Workload("ab", 1e9, use_location="usa")
        suite_kg = model.operational_suite(
            WorkloadSuite("s", (a, b))
        ).total_kg
        assert suite_kg == pytest.approx(model.operational(merged).total_kg)


class TestPluginWiring:
    def test_plugin_overrides_survey(self, orin_2d):
        """An injected power plug-in replaces the surveyed efficiency."""
        doubled = FixedPlugin("double", 2.0 * 2.74)
        wl = Workload.autonomous_vehicle()
        plain = CarbonModel(orin_2d, PARAMS).operational(wl)
        plugged = CarbonModel(
            orin_2d, PARAMS, efficiency_plugin=doubled
        ).operational(wl)
        assert plugged.compute_energy_kwh == pytest.approx(
            plain.compute_energy_kwh / 2.0
        )

    def test_plugin_applies_to_suites(self, orin_2d):
        fixed = FixedPlugin("fixed", 10.0)
        suite = make_suite()
        report = CarbonModel(
            orin_2d, PARAMS, efficiency_plugin=fixed
        ).operational_suite(suite)
        for sub in report.per_workload:
            for record in sub.per_die:
                if record.workload_share > 0:
                    assert record.efficiency_tops_per_w == 10.0
