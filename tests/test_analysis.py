"""Analysis-extension tests: tornado, Monte Carlo, configuration search."""

import pytest

from repro import ChipDesign, ParameterSet, Workload
from repro.analysis import (
    comparison_robustness,
    format_tornado,
    monte_carlo,
    search_designs,
    tornado,
)
from repro.api import Session, StudySpec
from repro.core.report import render_points
from repro.errors import ParameterError, ReferenceDesignError
from repro.studies.drive import drive_2d_design
from repro.uncertainty import FactorSpec, FactorTarget, table2_factor_set

PARAMS = ParameterSet.default()
WL = Workload.autonomous_vehicle()


@pytest.fixture(scope="module")
def hybrid_orin():
    return ChipDesign.homogeneous_split(drive_2d_design("ORIN"), "hybrid_3d")


class TestSensitivity:
    def test_factor_validation(self):
        with pytest.raises(ParameterError):
            FactorSpec(
                "bad", 1.5, 2.0,
                FactorTarget("node", ("7nm",), "epa_kwh_per_cm2"),
            )

    def test_default_factors_cover_table2_knobs(self):
        names = {f.name.split("[")[0] for f in table2_factor_set()}
        assert {"defect_density", "fab_energy_epa", "packaging_cpa",
                "bonding_epa"} <= names

    def test_2d_has_no_bonding_factor(self):
        names = [f.name for f in table2_factor_set(integration="2d")]
        assert not any("bonding" in n for n in names)

    def test_tornado_sorted_by_swing(self, hybrid_orin):
        results = tornado(hybrid_orin, workload=WL)
        swings = [abs(r.swing_kg) for r in results]
        assert swings == sorted(swings, reverse=True)

    def test_tornado_base_consistent(self, hybrid_orin):
        results = tornado(hybrid_orin, workload=WL)
        bases = {round(r.base_kg, 9) for r in results}
        assert len(bases) == 1

    def test_defect_density_dominates(self, hybrid_orin):
        """Yield is the paper's largest embodied lever for big 7 nm dies."""
        results = tornado(hybrid_orin, workload=WL)
        assert results[0].factor.startswith("defect_density")

    def test_monotone_factors_have_positive_swing(self, hybrid_orin):
        results = tornado(hybrid_orin, workload=WL)
        for r in results:
            if r.factor.startswith(("defect_density", "fab_energy",
                                    "packaging")):
                assert r.swing_kg > 0, r.factor

    def test_bond_yield_swing_negative(self, hybrid_orin):
        """Raising the bond yield lowers carbon: high multiplier, low kg."""
        results = tornado(hybrid_orin, workload=WL)
        bond = next(r for r in results if r.factor.startswith("bond_yield"))
        assert bond.swing_kg < 0

    def test_elasticity_sign_matches_swing(self, hybrid_orin):
        for r in tornado(hybrid_orin, workload=WL):
            if r.swing_kg != 0:
                assert (r.elasticity > 0) == (r.swing_kg > 0)

    def test_format(self, hybrid_orin):
        text = format_tornado(tornado(hybrid_orin, workload=WL))
        assert "base total" in text and "#" in text

    def test_format_empty(self):
        assert format_tornado([]) == "(no factors)"


class TestMonteCarlo:
    def test_reproducible(self, hybrid_orin):
        a = monte_carlo(hybrid_orin, workload=WL, samples=20, seed=7)
        b = monte_carlo(hybrid_orin, workload=WL, samples=20, seed=7)
        assert a.samples_kg == b.samples_kg

    def test_seed_changes_samples(self, hybrid_orin):
        a = monte_carlo(hybrid_orin, workload=WL, samples=20, seed=1)
        b = monte_carlo(hybrid_orin, workload=WL, samples=20, seed=2)
        assert a.samples_kg != b.samples_kg

    def test_distribution_brackets_base(self, hybrid_orin):
        result = monte_carlo(hybrid_orin, workload=WL, samples=60)
        assert result.p05 < result.base_kg * 1.25
        assert result.p95 > result.base_kg * 0.85
        assert result.p05 <= result.p50 <= result.p95

    def test_std_positive(self, hybrid_orin):
        assert monte_carlo(hybrid_orin, workload=WL, samples=30).std_kg > 0

    def test_summary_text(self, hybrid_orin):
        text = monte_carlo(hybrid_orin, workload=WL, samples=10).summary()
        assert "p95" in text

    def test_rejects_tiny_sample_count(self, hybrid_orin):
        with pytest.raises(ParameterError):
            monte_carlo(hybrid_orin, samples=1)

    def test_robustness_hybrid_beats_2d(self, hybrid_orin):
        """Hybrid's savings survive parameter uncertainty (common draws)."""
        probability = comparison_robustness(
            drive_2d_design("ORIN"), hybrid_orin, workload=WL, samples=40
        )
        assert probability > 0.9


def search_points(reference, fab_location="taiwan") -> "list[dict]":
    """``carbon3d search``'s batch: every search design, one point each."""
    spec = StudySpec.batch([
        StudySpec.evaluate(design, fab_location=fab_location, label=label)
        for label, design in search_designs(reference)
    ])
    with Session() as session:
        return session.run(spec).to_payload()


def entry(label: str, total_kg: float, valid: bool = True) -> dict:
    return {"label": label, "cache": "computed", "report": {
        "valid": valid, "embodied_kg": total_kg, "total_kg": total_kg,
    }}


class TestSearch:
    @pytest.fixture(scope="class")
    def points(self):
        return search_points(drive_2d_design("ORIN"))

    @pytest.fixture(scope="class")
    def best(self, points):
        line = render_points(points).splitlines()[-1]
        label = line.removeprefix("best valid configuration: ")
        label = label.rsplit(" (", 1)[0]
        return next(point for point in points if point["label"] == label)

    def test_best_is_m3d_homogeneous(self, best):
        assert best["label"].startswith("m3d/homog")

    def test_best_is_valid_and_minimal(self, points, best):
        assert best["report"]["valid"]
        for point in points:
            if point["report"]["valid"]:
                assert best["report"]["total_kg"] <= (
                    point["report"]["total_kg"] + 1e-9
                )

    def test_includes_2d_baseline(self, points):
        assert points[0]["label"] == "2d"

    def test_invalid_candidates_excluded_from_best(self, points, best):
        invalid = [p for p in points if not p["report"]["valid"]]
        assert invalid  # MCM/InFO @ ORIN at least
        assert all(p["label"] != best["label"] for p in invalid)

    def test_format_table(self, points):
        text = render_points(points)
        assert text.count("<== best") == 1
        assert "NO" in text

    def test_best_is_the_first_valid_minimum(self):
        """Ranked by total in stable input order; of equal valid minima
        the first in input order is best, and an invalid entry never is."""
        text = render_points([
            entry("b", 2.0), entry("lower-but-invalid", 1.0, valid=False),
            entry("a", 2.0), entry("c", 3.0),
        ])
        rows = text.splitlines()[2:6]
        assert [row.split()[0] for row in rows] == [
            "lower-but-invalid", "b", "a", "c",
        ]
        assert [row.endswith("<== best") for row in rows] == [
            False, True, False, False,
        ]
        assert text.splitlines()[-1] == (
            "best valid configuration: b (2.00 kg CO2e)"
        )

    def test_no_valid_entry_has_no_best(self):
        text = render_points([entry("x", 1.0, valid=False)])
        assert "best" not in text

    def test_multi_die_reference_rejected(self, hybrid_orin):
        with pytest.raises(ReferenceDesignError, match="single-die"):
            search_designs(hybrid_orin)


class TestNonDefaultFactorSets:
    """Tornado and robustness under a backend's own (non-Table 2) factors."""

    def test_tornado_under_act_factor_set(self, hybrid_orin):
        from repro.pipeline.registry import get_backend

        results = tornado(hybrid_orin, backend="act")
        expected = {
            factor.name
            for factor in get_backend("act").factor_set(hybrid_orin, PARAMS)
        }
        assert {entry.factor for entry in results} == expected
        # The intensity factors scale ACT's die term directly: every
        # swing is real and positive (bigger multiplier, more carbon).
        assert all(entry.swing_kg > 0 for entry in results)

    def test_tornado_prices_model_scoped_factors(self, hybrid_orin):
        results = tornado(hybrid_orin, backend="lca")
        by_name = {entry.factor: entry for entry in results}
        cpa = by_name["gabi_cpa_scale"]
        assert cpa.low_kg < cpa.base_kg < cpa.high_kg
        # cpa_scale multiplies only the die term, linearly: the swing
        # above base vs below base must sit in the bounds' ratio.
        above = cpa.high_kg - cpa.base_kg
        below = cpa.base_kg - cpa.low_kg
        assert above / below == pytest.approx(
            (cpa.high_multiplier - 1.0) / (1.0 - cpa.low_multiplier),
            rel=1e-9,
        )

    def test_tornado_explicit_factor_set_object(self, hybrid_orin):
        from repro.uncertainty import FactorSet, FactorSpec, FactorTarget

        only_epa = FactorSet("just_epa", (
            FactorSpec(
                "epa", 0.5, 2.0,
                FactorTarget("node", ("7nm",), "epa_kwh_per_cm2"),
            ),
        ))
        results = tornado(hybrid_orin, factors=only_epa)
        assert [entry.factor for entry in results] == ["epa"]

    def test_robustness_under_backend_factor_set(self, hybrid_orin):
        probability = comparison_robustness(
            drive_2d_design("ORIN"), hybrid_orin, workload=WL, samples=30,
            backend="act",
        )
        assert 0.0 <= probability <= 1.0

    def test_robustness_model_scoped_draws(self, hybrid_orin):
        """LCA's cpa_scale perturbs both designs per draw (common draws)."""
        probability = comparison_robustness(
            drive_2d_design("ORIN"), hybrid_orin, samples=30, backend="lca"
        )
        assert 0.0 <= probability <= 1.0

    def test_robustness_reproducible_per_backend(self, hybrid_orin):
        kwargs = dict(samples=25, seed=99, backend="first_order")
        first = comparison_robustness(
            drive_2d_design("ORIN"), hybrid_orin, **kwargs
        )
        second = comparison_robustness(
            drive_2d_design("ORIN"), hybrid_orin, **kwargs
        )
        assert first == second
