"""Service wire schema: strict parsing, typed error payloads."""

from __future__ import annotations

import pytest

from repro.core.operational import Workload
from repro.errors import DesignError
from repro.service import schema
from repro.service.schema import (
    MAX_GRID_POINTS,
    SCHEMA_VERSION,
    SchemaError,
    error_envelope,
    error_payload,
    ok_envelope,
    parse_batch_request,
    parse_evaluate_request,
    parse_montecarlo_request,
    parse_optimize_request,
    parse_request,
    parse_sweep_request,
    workload_from_value,
    workload_to_value,
)


def design_payload(name="chip", integration="hybrid_3d") -> dict:
    return {
        "name": name,
        "integration": integration,
        "stacking": "f2f",
        "assembly": "d2w",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [
            {"name": "top", "node": "7nm", "gate_count": 8.5e9,
             "workload_share": 0.5},
            {"name": "bottom", "node": "7nm", "gate_count": 8.5e9,
             "workload_share": 0.5},
        ],
    }


def evaluate_payload(**overrides) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "type": "evaluate",
        "design": design_payload(),
    }
    payload.update(overrides)
    return payload


class TestEnvelope:
    def test_ok_envelope(self):
        envelope = ok_envelope({"total_kg": 1.0}, cache="store")
        assert envelope["ok"] is True
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["cache"] == "store"
        assert envelope["result"] == {"total_kg": 1.0}

    def test_error_envelope_is_typed(self):
        envelope = error_envelope(SchemaError("bad", field="points"))
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "SchemaError"
        assert envelope["error"]["field"] == "points"
        assert "bad" in envelope["error"]["message"]

    def test_error_payload_for_library_errors(self):
        payload = error_payload(DesignError("no dies"))
        assert payload == {"type": "DesignError", "message": "no dies"}


class TestEvaluateParsing:
    def test_roundtrip(self):
        request = parse_evaluate_request(evaluate_payload())
        assert request.design.name == "chip"
        assert request.design.die_count == 2
        assert request.workload == Workload.autonomous_vehicle()
        assert request.fab_location is None

    def test_fab_location_name_or_number(self):
        assert parse_evaluate_request(
            evaluate_payload(fab_location="iceland")
        ).fab_location == "iceland"
        assert parse_evaluate_request(
            evaluate_payload(fab_location=450)
        ).fab_location == 450.0

    def test_missing_schema_rejected(self):
        payload = evaluate_payload()
        del payload["schema"]
        with pytest.raises(SchemaError, match="schema"):
            parse_evaluate_request(payload)

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema"):
            parse_evaluate_request(evaluate_payload(schema=99))

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown key"):
            parse_evaluate_request(evaluate_payload(surprise=1))

    def test_wrong_type_for_endpoint_rejected(self):
        with pytest.raises(SchemaError, match="expects"):
            parse_evaluate_request(evaluate_payload(type="batch"))

    def test_missing_design_rejected(self):
        payload = evaluate_payload()
        del payload["design"]
        with pytest.raises(SchemaError, match="design"):
            parse_evaluate_request(payload)

    def test_non_object_request_rejected(self):
        with pytest.raises(SchemaError, match="object"):
            parse_evaluate_request([1, 2, 3])

    def test_bad_design_values_are_typed_not_tracebacks(self):
        bad = design_payload()
        bad["stacking"] = "sideways"
        with pytest.raises(DesignError, match="stacking"):
            parse_evaluate_request(evaluate_payload(design=bad))

    def test_bad_fab_location_rejected(self):
        with pytest.raises(SchemaError, match="fab_location"):
            parse_evaluate_request(evaluate_payload(fab_location=[1]))


class TestWorkloadField:
    def test_av_shorthand(self):
        assert workload_from_value("av") == Workload.autonomous_vehicle()

    def test_none_spellings(self):
        assert workload_from_value(None) is None
        assert workload_from_value("none") is None

    def test_record(self):
        workload = workload_from_value({
            "name": "dc", "total_tera_ops": 1e9,
            "use_location": "usa", "lifetime_years": 4.0,
        })
        assert workload.name == "dc"
        assert workload.lifetime_years == 4.0

    def test_record_roundtrip(self):
        value = {"name": "dc", "total_tera_ops": 1e9,
                 "use_location": "usa", "lifetime_years": 4.0}
        assert workload_to_value(workload_from_value(value)) == value
        assert workload_to_value(Workload.autonomous_vehicle()) == "av"
        assert workload_to_value(None) is None

    def test_bad_records_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            workload_from_value({"name": "x"})
        with pytest.raises(SchemaError, match="unknown key"):
            workload_from_value(
                {"name": "x", "total_tera_ops": 1.0, "extra": 2}
            )
        with pytest.raises(SchemaError, match="number"):
            workload_from_value({"name": "x", "total_tera_ops": "lots"})
        with pytest.raises(SchemaError, match="> 0"):
            workload_from_value({"name": "x", "total_tera_ops": -1.0})


class TestBatchParsing:
    def test_points_parsed_in_order(self):
        request = parse_batch_request({
            "schema": SCHEMA_VERSION, "type": "batch",
            "points": [
                {"design": design_payload("a"), "label": "first"},
                {"design": design_payload("b"), "workload": "none",
                 "fab_location": "usa"},
            ],
        })
        assert [p.design.name for p in request.points] == ["a", "b"]
        assert request.points[0].label == "first"
        assert request.points[1].workload is None

    def test_empty_batch_rejected(self):
        with pytest.raises(SchemaError, match="points"):
            parse_batch_request(
                {"schema": SCHEMA_VERSION, "type": "batch", "points": []}
            )

    def test_batch_limit_enforced(self):
        points = [{"design": design_payload()}] * (schema.MAX_BATCH_POINTS + 1)
        with pytest.raises(SchemaError, match="limited"):
            parse_batch_request(
                {"schema": SCHEMA_VERSION, "type": "batch", "points": points}
            )

    def test_point_errors_name_the_point(self):
        with pytest.raises(SchemaError, match=r"points\[1\]"):
            parse_batch_request({
                "schema": SCHEMA_VERSION, "type": "batch",
                "points": [{"design": design_payload()}, {"oops": 1}],
            })


class TestSweepParsing:
    def test_defaults_fill_in(self):
        request = parse_sweep_request({
            "schema": SCHEMA_VERSION, "type": "sweep",
            "design": {"name": "ref", "throughput_tops": 254.0,
                       "dies": [{"name": "d", "node": "7nm",
                                 "gate_count": 17e9}]},
        })
        assert "hybrid_3d" in request.integrations
        assert request.fab_locations == (None,)

    def test_explicit_axes(self):
        request = parse_sweep_request({
            "schema": SCHEMA_VERSION, "type": "sweep",
            "design": {"name": "ref",
                       "dies": [{"name": "d", "node": "7nm",
                                 "gate_count": 17e9}]},
            "integrations": ["2d", "m3d"],
            "fab_locations": ["taiwan", 30],
            "workload": "none",
        })
        assert request.integrations == ("2d", "m3d")
        assert request.fab_locations == ("taiwan", 30.0)
        assert request.workload is None

    def test_bad_axes_rejected(self):
        base = {
            "schema": SCHEMA_VERSION, "type": "sweep",
            "design": {"name": "ref",
                       "dies": [{"name": "d", "node": "7nm",
                                 "gate_count": 17e9}]},
        }
        with pytest.raises(SchemaError, match="integrations"):
            parse_sweep_request({**base, "integrations": []})
        with pytest.raises(SchemaError, match="fab_locations"):
            parse_sweep_request({**base, "fab_locations": "taiwan"})


class TestOptimizeParsing:
    @staticmethod
    def base(**overrides) -> dict:
        payload = {
            "schema": SCHEMA_VERSION, "type": "optimize",
            "design": {"name": "ref", "throughput_tops": 254.0,
                       "dies": [{"name": "d", "node": "7nm",
                                 "gate_count": 17e9}]},
        }
        payload.update(overrides)
        return payload

    def test_defaults(self):
        request = parse_optimize_request(self.base())
        assert request.integrations is None  # dispatcher fills the axes
        assert request.die_counts is None
        assert request.wafer_diameters_mm is None
        assert request.fab_locations is None
        assert request.max_configs is None
        assert request.chunk is None
        assert request.seed == 20240623
        assert request.stream is False
        assert isinstance(request.workload, Workload)

    def test_explicit_axes(self):
        request = parse_optimize_request(self.base(
            integrations=["hybrid_3d", "mcm"],
            die_counts=[2, 3],
            wafer_diameters_mm=[300, 450.0],
            fab_locations=["taiwan", 30],
            max_configs=1000, chunk=100, seed=7, stream=True,
            workload="none",
        ))
        assert request.integrations == ("hybrid_3d", "mcm")
        assert request.die_counts == (2, 3)
        assert request.wafer_diameters_mm == (300.0, 450.0)
        assert request.fab_locations == ("taiwan", 30.0)
        assert request.max_configs == 1000
        assert request.chunk == 100
        assert request.seed == 7
        assert request.stream is True
        assert request.workload is None

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            parse_optimize_request(self.base(objectives=["total_kg"]))

    def test_missing_design_rejected(self):
        payload = self.base()
        del payload["design"]
        with pytest.raises(SchemaError, match="design"):
            parse_optimize_request(payload)

    def test_bad_axes_rejected(self):
        with pytest.raises(SchemaError, match="integrations"):
            parse_optimize_request(self.base(integrations=[]))
        with pytest.raises(SchemaError, match="die_counts"):
            parse_optimize_request(self.base(die_counts=[1]))
        with pytest.raises(SchemaError, match="wafer_diameters_mm"):
            parse_optimize_request(self.base(wafer_diameters_mm=[-300.0]))
        with pytest.raises(SchemaError, match="max_configs"):
            parse_optimize_request(self.base(max_configs=0))
        with pytest.raises(SchemaError, match="chunk"):
            parse_optimize_request(self.base(chunk=0))
        with pytest.raises(SchemaError, match="seed"):
            parse_optimize_request(self.base(seed=-1))

    def test_parse_request_dispatches(self):
        request = parse_request(self.base())
        assert request.__class__.__name__ == "OptimizeRequest"

    def test_dispatcher_rejects_oversized_grids(self):
        """The expansion bound runs *before* the grid materializes."""
        from repro.service.dispatcher import Dispatcher

        request = parse_optimize_request(self.base(
            wafer_diameters_mm=[float(d) for d in range(150, 500)],
            fab_locations=[float(ci) for ci in range(30, 700, 3)],
        ))
        with pytest.raises(SchemaError, match="narrow an axis"):
            Dispatcher().optimize(request)


class _Expanded(Exception):
    """Raised in place of expanding a grid: the bound let it through."""


class TestOptimizeExpansionBound:
    """``/optimize`` refuses a grid that may expand past
    ``MAX_GRID_POINTS`` before expanding it, and admits one at the limit.

    The grid's expansion is replaced by :class:`_Expanded`, so reaching
    it proves admission without building a million points.
    """

    @pytest.fixture(autouse=True)
    def no_expansion(self, monkeypatch):
        from repro.vec.grid import DesignGrid

        def expand(*args, **kwargs):
            raise _Expanded

        monkeypatch.setattr(DesignGrid, "from_axes", expand)

    @staticmethod
    def request(integrations, die_counts, wafers, locations):
        return parse_optimize_request(TestOptimizeParsing.base(
            integrations=list(integrations),
            die_counts=list(die_counts),
            wafer_diameters_mm=[float(d) for d in wafers],
            fab_locations=[float(ci) for ci in locations],
        ))

    def test_one_point_past_the_limit_is_a_schema_error(self):
        from repro.service.dispatcher import Dispatcher

        # (1 + 5 × 2 × (9 + 1)) variants × 1 wafer × 9,901 locations.
        request = self.request(
            ("micro_3d", "hybrid_3d", "m3d", "mcm", "info"),
            range(2, 11), [300], range(9_901),
        )
        dispatcher = Dispatcher()
        for run in (dispatcher.optimize, dispatcher.stream_optimize):
            with pytest.raises(SchemaError) as caught:
                run(request)
            assert str(caught.value) == (
                f"optimize grid may expand to {MAX_GRID_POINTS + 1} points, "
                f"past the {MAX_GRID_POINTS}-point limit; narrow an axis"
            )

    def test_a_grid_at_the_limit_is_admitted(self):
        from repro.service.dispatcher import Dispatcher

        # (1 + 1 × 2 × (1 + 1)) variants × 400 wafers × 500 locations.
        request = self.request(
            ["mcm"], [2], [100 + d / 4 for d in range(400)], range(500),
        )
        with pytest.raises(_Expanded):
            Dispatcher().stream_optimize(request)


class TestMonteCarloParsing:
    def test_defaults(self):
        request = parse_montecarlo_request({
            "schema": SCHEMA_VERSION, "type": "montecarlo",
            "design": design_payload(),
        })
        assert request.samples == 200
        assert request.seed == 20240623

    def test_sample_bounds(self):
        # The engine needs >= 2 draws for a distribution summary.
        for samples in (0, 1):
            with pytest.raises(SchemaError, match="samples"):
                parse_montecarlo_request({
                    "schema": SCHEMA_VERSION, "type": "montecarlo",
                    "design": design_payload(), "samples": samples,
                })
        with pytest.raises(SchemaError, match="samples"):
            parse_montecarlo_request({
                "schema": SCHEMA_VERSION, "type": "montecarlo",
                "design": design_payload(),
                "samples": schema.MAX_MC_SAMPLES + 1,
            })

    def test_negative_seed_rejected(self):
        # numpy's default_rng refuses negative seeds — reject at the wire.
        with pytest.raises(SchemaError, match="seed"):
            parse_montecarlo_request({
                "schema": SCHEMA_VERSION, "type": "montecarlo",
                "design": design_payload(), "seed": -1,
            })

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError, match="samples"):
            parse_montecarlo_request({
                "schema": SCHEMA_VERSION, "type": "montecarlo",
                "design": design_payload(), "samples": True,
            })


class TestParseRequestDispatch:
    def test_dispatches_on_type(self):
        parsed = parse_request(evaluate_payload())
        assert parsed.design.name == "chip"

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="type"):
            parse_request({"schema": SCHEMA_VERSION, "type": "divine"})


class TestBackendField:
    def test_defaults_to_repro3d(self):
        parsed = parse_request(evaluate_payload())
        assert parsed.backend == "repro3d"

    def test_accepts_registered_names(self):
        for name in ("repro3d", "act", "act_plus", "lca", "first_order"):
            parsed = parse_request(evaluate_payload(backend=name))
            assert parsed.backend == name

    def test_unknown_backend_is_typed_backend_error(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError) as excinfo:
            parse_request(evaluate_payload(backend="gabi"))
        payload = schema.error_payload(excinfo.value)
        assert payload["type"] == "BackendError"
        assert payload["field"] == "backend"

    def test_backend_must_be_a_string(self):
        with pytest.raises(SchemaError, match="backend"):
            parse_request(evaluate_payload(backend=3))

    def test_batch_points_carry_backends(self):
        parsed = parse_request({
            "schema": SCHEMA_VERSION, "type": "batch",
            "points": [
                {"design": design_payload(), "backend": "act"},
                {"design": design_payload()},
            ],
        })
        assert [p.backend for p in parsed.points] == ["act", "repro3d"]

    def test_sweep_and_montecarlo_accept_backend(self):
        sweep = parse_request({
            "schema": SCHEMA_VERSION, "type": "sweep",
            "design": design_payload(integration="2d"), "backend": "lca",
        })
        assert sweep.backend == "lca"
        mc = parse_request({
            "schema": SCHEMA_VERSION, "type": "montecarlo",
            "design": design_payload(), "backend": "first_order",
        })
        assert mc.backend == "first_order"


class TestReturnSamplesField:
    def test_defaults_false(self):
        parsed = parse_request({
            "schema": SCHEMA_VERSION, "type": "montecarlo",
            "design": design_payload(),
        })
        assert parsed.return_samples is False

    def test_accepts_true(self):
        parsed = parse_request({
            "schema": SCHEMA_VERSION, "type": "montecarlo",
            "design": design_payload(), "return_samples": True,
        })
        assert parsed.return_samples is True

    def test_rejects_non_boolean(self):
        with pytest.raises(SchemaError, match="return_samples"):
            parse_request({
                "schema": SCHEMA_VERSION, "type": "montecarlo",
                "design": design_payload(), "return_samples": 1,
            })
