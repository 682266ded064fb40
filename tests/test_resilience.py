"""Fault-injection framework + the recovery machinery it exercises.

Covers the resilience layer itself (plans, injector determinism,
deadlines, circuit breaker) and the in-process recovery paths:
evaluator point budgets, store quarantine-and-rebuild
and busy retries, client argument hygiene, dispatcher deadlines, and
StudyHandle failure surfacing. The HTTP-level chaos scenarios live in
``test_chaos.py``.
"""

import json
import sqlite3

import pytest

from repro import ChipDesign
from repro.engine import BatchEvaluator, EvalPoint
from repro.errors import EvaluationTimeout, ParameterError
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    injected,
    resolve_injector,
)
from repro.resilience.faults import GLOBAL_INJECTOR

@pytest.fixture()
def small_design():
    return ChipDesign.planar_2d("resil", "14nm", area_mm2=100.0)


# -- FaultPlan: validation, round-trips, coercion ----------------------------


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule("store.get", action="error", error="busy",
                          after=2, times=3),
                FaultRule("store.put", action="delay", after=1, times=4,
                          probability=0.5, delay_s=0.01, error="oserror",
                          message="slow disk"),
                FaultRule("engine.point", action="delay", delay_s=0.5,
                          probability=0.25, times=None),
            ),
            seed=42,
            name="round-trip",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_site_rejected(self):
        for site in ("store.vanish", "worker.item"):
            with pytest.raises(ParameterError, match="unknown fault site"):
                FaultRule(site)

    def test_unknown_action_rejected(self):
        for action in ("explode", "crash"):
            with pytest.raises(ParameterError, match="error/delay"):
                FaultRule("store.get", action=action)

    def test_probability_bounds(self):
        with pytest.raises(ParameterError, match="probability"):
            FaultRule("store.get", probability=0.0)
        with pytest.raises(ParameterError, match="probability"):
            FaultRule("store.get", probability=1.5)

    def test_unknown_plan_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown key"):
            FaultPlan.from_dict({"rules": [], "sites": []})
        for key in ("when", "worker", "exit_code"):
            with pytest.raises(ParameterError, match="unknown key"):
                FaultPlan.from_dict({"rules": [{"site": "store.get",
                                                key: 1}]})

    def test_coerce_spellings(self, tmp_path):
        data = {"rules": [{"site": "store.get"}], "seed": 7}
        from_dict = FaultPlan.coerce(data)
        from_text = FaultPlan.coerce(json.dumps(data))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        from_file = FaultPlan.coerce(str(path))
        assert from_dict == from_text == from_file
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(from_dict) is from_dict
        with pytest.raises(ParameterError, match="cannot build"):
            FaultPlan.coerce(42)
        with pytest.raises(ParameterError, match="not valid JSON"):
            FaultPlan.coerce("{nope")

    @pytest.mark.parametrize("rule, refusal", [
        ({"site": "worker.item"}, "unknown fault site"),
        ({"site": "store.get", "action": "crash"}, "error/delay"),
        ({"site": "store.get", "worker": 1}, "unknown key"),
        ({"site": "store.get", "exit_code": 9}, "unknown key"),
    ], ids=["worker.item", "crash", "worker", "exit_code"])
    def test_serve_refuses_a_forked_worker_fault_plan(
        self, tmp_path, capsys, monkeypatch, rule, refusal
    ):
        """The forked-worker fault entries went with the fork path, so
        ``carbon3d serve --fault-plan`` refuses a plan file naming one
        before it arms the global injector or starts a server."""
        from repro.cli import main
        from repro.service import fleet, server

        def no_server(*args, **kwargs):
            raise AssertionError("a refused plan must not start a server")

        monkeypatch.setattr(server, "make_server", no_server)
        monkeypatch.setattr(fleet, "ServiceFleet", no_server)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rules": [rule]}), encoding="utf-8")
        armed = GLOBAL_INJECTOR.plan
        assert main(["serve", "--fault-plan", str(path)]) == 1
        assert refusal in capsys.readouterr().err
        assert GLOBAL_INJECTOR.plan is armed


# -- the injector ------------------------------------------------------------


class TestFaultInjector:
    def test_after_and_times_window(self):
        injector = FaultInjector(FaultPlan(
            rules=(FaultRule("store.get", after=1, times=2),)
        ))
        injector.hit("store.get")  # skipped: after=1
        with pytest.raises(FaultError):
            injector.hit("store.get")
        with pytest.raises(FaultError):
            injector.hit("store.get")
        injector.hit("store.get")  # exhausted: times=2
        assert injector.fired_sites() == ["store.get", "store.get"]

    def test_other_sites_untouched(self):
        injector = FaultInjector(FaultPlan(
            rules=(FaultRule("store.get"),)
        ))
        injector.hit("store.put")
        injector.hit("engine.point")
        assert injector.fired == []

    def test_probabilistic_rules_are_deterministic(self):
        plan = FaultPlan(
            rules=(FaultRule("engine.point", probability=0.4, times=None),),
            seed=99,
        )

        def firing_pattern():
            injector = FaultInjector(plan)
            pattern = []
            for _ in range(40):
                try:
                    injector.hit("engine.point")
                    pattern.append(False)
                except FaultError:
                    pattern.append(True)
            return pattern

        first = firing_pattern()
        assert first == firing_pattern()  # same seed, same sequence
        assert any(first) and not all(first)

    def test_error_kinds_map_to_real_exception_families(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule("store.get", error="sqlite"),
            FaultRule("store.put", error="busy"),
            FaultRule("transport.request", error="connection"),
        )))
        with pytest.raises(sqlite3.DatabaseError):
            injector.hit("store.get")
        with pytest.raises(sqlite3.OperationalError, match="busy"):
            injector.hit("store.put")
        with pytest.raises(ConnectionError):
            injector.hit("transport.request")

    def test_inactive_injector_is_a_noop(self):
        injector = FaultInjector(None)
        assert injector.active is False
        injector.hit("store.get")  # no plan, no effect
        assert injector.fired == []

    def test_describe(self):
        assert FaultInjector(None).describe() == "inactive"
        injector = FaultInjector(FaultPlan(
            rules=(FaultRule("store.get"),), seed=3, name="demo"
        ))
        text = injector.describe()
        assert "demo" in text and "store.get" in text and "seed 3" in text

    def test_injected_context_arms_and_disarms_global(self):
        assert GLOBAL_INJECTOR.active is False
        with injected({"rules": [{"site": "dispatcher.compute"}]}):
            assert GLOBAL_INJECTOR.active is True
            with pytest.raises(FaultError):
                GLOBAL_INJECTOR.hit("dispatcher.compute")
        assert GLOBAL_INJECTOR.active is False

    def test_resolve_injector_spellings(self):
        assert resolve_injector(None) is GLOBAL_INJECTOR
        mine = FaultInjector(None)
        assert resolve_injector(mine) is mine
        private = resolve_injector(FaultPlan(
            rules=(FaultRule("store.get"),)
        ))
        assert private is not GLOBAL_INJECTOR
        assert private.active is True


# -- Deadline ----------------------------------------------------------------


class TestDeadline:
    def test_budget_must_be_positive(self):
        # nan and inf never expire; 1e297 s overflows a future's wait.
        for budget_s in (0.0, -1.0, float("nan"), float("inf"), 1e297):
            with pytest.raises(ValueError, match="budget"):
                Deadline(budget_s)

    def test_check_raises_typed_timeout_after_budget(self):
        now = [100.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        deadline.check("warm-up")  # within budget
        assert deadline.remaining_s() == pytest.approx(2.0)
        now[0] = 103.0
        assert deadline.expired() is True
        assert deadline.remaining_s() == 0.0
        with pytest.raises(EvaluationTimeout) as exc:
            deadline.check("the batch")
        assert exc.value.budget_s == pytest.approx(2.0)
        assert exc.value.elapsed_s == pytest.approx(3.0)
        assert "the batch" in str(exc.value)

    def test_after_ms_converts(self):
        deadline = Deadline.after_ms(1500.0)
        assert deadline.budget_s == pytest.approx(1.5)


# -- CircuitBreaker ----------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown_s=cooldown,
            clock=lambda: now[0],
        )
        return breaker, now

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed under the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as exc:
            breaker.check()
        assert exc.value.retry_after_s > 0
        assert breaker.rejected == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_retry_after_extends_cooldown(self):
        breaker, now = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(retry_after_s=30.0)
        now[0] = 5.0  # past the base cooldown, inside Retry-After
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.check()
        now[0] = 31.0
        assert breaker.state == "half_open"

    def test_half_open_probe_success_closes(self):
        breaker, now = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        now[0] = 2.0
        breaker.check()  # the single half-open probe is admitted
        with pytest.raises(CircuitOpenError):
            breaker.check()  # a second concurrent probe is not
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.check()

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        now[0] = 2.0
        breaker.check()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened == 2


# -- evaluator budgets and stage faults --------------------------------------


class TestEvaluatorResilience:
    def test_point_timeout_raises_typed_error(self, small_design):
        evaluator = BatchEvaluator(
            faults=FaultPlan(rules=(
                FaultRule("engine.point", action="delay", delay_s=0.2),
            )),
            point_timeout_s=0.05,
        )
        point = EvalPoint(design=small_design)
        with pytest.raises(EvaluationTimeout) as exc:
            evaluator.evaluate(point)
        assert exc.value.budget_s == pytest.approx(0.05)
        assert exc.value.elapsed_s >= 0.05

    def test_budget_knobs_validated(self):
        with pytest.raises(ParameterError, match="point_timeout_s"):
            BatchEvaluator(point_timeout_s=0.0)

    def test_stage_faults_surface_from_the_stage(self, small_design):
        evaluator = BatchEvaluator(faults=FaultPlan(rules=(
            FaultRule("stage.embodied", message="embodied stage down"),
        )))
        with pytest.raises(FaultError, match="embodied stage down"):
            evaluator.evaluate(EvalPoint(design=small_design))
        # The rule is spent; the same evaluator recovers on retry.
        report = evaluator.evaluate(EvalPoint(design=small_design))
        assert report.total_kg > 0


# -- store self-healing ------------------------------------------------------


class TestStoreSelfHealing:
    def make(self, tmp_path, rules, **kwargs):
        from repro.service.store import ResultStore

        return ResultStore(
            str(tmp_path / "store.sqlite3"),
            faults=FaultPlan(rules=rules),
            **kwargs,
        )

    def test_open_corruption_quarantines_and_rebuilds(self, tmp_path):
        store = self.make(tmp_path, (
            FaultRule("store.open", error="sqlite"),
        ))
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.quarantined == 1
        store.close()

    def test_busy_get_retries_until_clear(self, tmp_path):
        store = self.make(tmp_path, (
            FaultRule("store.get", error="busy", times=2),
        ), busy_backoff_s=0.001)
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.busy_retried == 2
        assert store.quarantined == 0
        store.close()

    def test_busy_beyond_retries_is_typed(self, tmp_path):
        from repro.service.store import StoreError

        store = self.make(tmp_path, (
            FaultRule("store.get", error="busy", times=None),
        ), busy_retries=2, busy_backoff_s=0.001)
        with pytest.raises(StoreError, match="store.get"):
            store.get("k")

    def test_put_corruption_heals_and_lands_the_write(self, tmp_path):
        store = self.make(tmp_path, (
            FaultRule("store.put", error="sqlite", after=1),
        ))
        store.put("first", "1")
        store.put("second", "2")  # corrupts mid-write, heals, re-inserts
        assert store.quarantined == 1
        assert store.get("second") == "2"
        # The quarantined file (with the pre-corruption content) is kept.
        assert (tmp_path / "store.sqlite3.corrupt").exists()
        store.close()

    def test_close_fault_still_closes(self, tmp_path, capsys):
        store = self.make(tmp_path, (
            FaultRule("store.close", error="sqlite"),
        ))
        store.put("k", "v")
        store.close()
        assert "lifetime counter" in capsys.readouterr().err

    def test_real_on_disk_corruption_recovers_across_restart(self, tmp_path):
        from repro.service.store import ResultStore

        path = tmp_path / "store.sqlite3"
        with ResultStore(str(path)) as store:
            store.put("k", "precious")
        path.write_bytes(b"not a database at all" * 64)
        with ResultStore(str(path)) as store:
            assert store.get("k") is None  # rebuilt empty — recompute
            store.put("k", "recomputed")
            assert store.get("k") == "recomputed"
            assert store.quarantined == 1
        corpses = list(tmp_path.glob("*.corrupt*"))
        assert corpses and b"not a database" in corpses[0].read_bytes()


# -- client hygiene ----------------------------------------------------------


class TestClientValidation:
    def make(self, **kwargs):
        from repro.service.client import ServiceClient

        return ServiceClient("http://127.0.0.1:9", **kwargs)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            self.make(timeout=-1.0)
        with pytest.raises(ValueError, match="timeout"):
            self.make(timeout=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            self.make(retries=-1)
        with pytest.raises(ValueError, match="retries"):
            self.make(retries=1.5)
        with pytest.raises(ValueError, match="retries"):
            self.make(retries=True)

    def test_bad_deadline_rejected(self):
        for budget_ms in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline_ms"):
                self.make(deadline_ms=budget_ms)

    def test_nonpositive_backoff_clamps_to_no_sleep(self, monkeypatch):
        client = self.make(backoff_s=-3.0)
        assert client.backoff_s == 0.0
        slept = []
        monkeypatch.setattr("time.sleep", lambda s: slept.append(s))
        client._sleep_before_retry(0)
        client._sleep_before_retry(5)
        assert slept == []  # zero backoff means retry immediately


# -- dispatcher deadlines ----------------------------------------------------


class TestDispatcherDeadline:
    def make_dispatcher(self):
        from repro.service.dispatcher import Dispatcher
        from repro.service.store import ResultStore

        return Dispatcher(store=ResultStore(":memory:"))

    def request(self):
        from repro.service.schema import parse_evaluate_request

        return parse_evaluate_request({
            "schema": 1, "type": "evaluate",
            "design": {
                "name": "deadline_chip", "integration": "2d",
                "dies": [{"name": "die0", "node": "14nm",
                          "area_mm2": 100.0}],
            },
            "workload": "none",
        })

    def test_deadline_overrun_mid_compute_raises_but_publishes(self):
        from repro.service.dispatcher import Dispatcher
        from repro.service.store import ResultStore

        # The injected delay makes the compute overrun its budget, so
        # the deadline trips on the post-compute check — after publish.
        dispatcher = Dispatcher(
            store=ResultStore(":memory:"),
            faults=FaultPlan(rules=(
                FaultRule("dispatcher.compute", action="delay",
                          delay_s=0.1),
            )),
        )
        with pytest.raises(EvaluationTimeout):
            dispatcher.evaluate(self.request(), deadline=Deadline(0.05))
        # The timeout answered 504 to its caller only; the computed
        # result was published first, so the next request is a hit.
        result, source = dispatcher.evaluate(self.request())
        assert source == "store"
        assert result["total_kg"] > 0

    def test_generous_deadline_is_invisible(self):
        dispatcher = self.make_dispatcher()
        with_deadline, _ = dispatcher.evaluate(
            self.request(), deadline=Deadline(60.0)
        )
        bare, _ = dispatcher.evaluate(self.request())
        assert with_deadline == bare


# -- the facade: session faults, deadlines, handle surfacing -----------------


class TestSessionResilience:
    def test_faults_reject_service_sessions(self):
        from repro.api import Session

        with pytest.raises(ParameterError, match="fault-plan"):
            Session(executor="service",
                    faults=FaultPlan(rules=(FaultRule("store.get"),)))

    def test_deadline_ms_validated(self):
        from repro.api import Session

        for budget_ms in (0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="deadline_ms"):
                Session(deadline_ms=budget_ms)

    def test_session_threads_faults_into_the_engine(self, small_design):
        from repro.api import Session

        plan = FaultPlan(rules=(
            FaultRule("dispatcher.compute", message="compute down"),
        ))
        with Session(faults=plan) as session:
            with pytest.raises(FaultError, match="compute down"):
                session.evaluate(small_design, workload="none")
            # The rule fired once; the session heals on retry.
            result = session.evaluate(small_design, workload="none")
            assert result.payload["total_kg"] > 0

    def test_handle_result_raises_study_error_with_cause(self, small_design):
        from repro.api import Session, StudySpec
        from repro.api.handle import StudyError

        plan = FaultPlan(rules=(
            FaultRule("dispatcher.compute", message="mid-study fault",
                      times=None),
        ))
        with Session(faults=plan) as session:
            handle = session.submit(
                StudySpec.evaluate(small_design, workload="none")
            )
            with pytest.raises(StudyError, match="mid-study fault") as exc:
                handle.result(timeout=30)
            assert isinstance(exc.value.__cause__, FaultError)
            # exception() hands back the original typed error, unwrapped.
            assert isinstance(handle.exception(timeout=30), FaultError)

    def test_partial_iterator_surfaces_failures_too(self, small_design):
        from repro.api import Session, StudySpec
        from repro.api.handle import StudyError

        # Batch points stream through the engine, not _compute_through,
        # so the fault rides a stage site (fires on every memo miss).
        plan = FaultPlan(rules=(
            FaultRule("stage.embodied", times=None),
        ))
        with Session(faults=plan) as session:
            handle = session.submit(StudySpec.batch([small_design]))
            with pytest.raises(StudyError):
                list(handle.partial())

    def test_healthy_handle_exception_returns_none(self, small_design):
        from repro.api import Session, StudySpec

        with Session() as session:
            handle = session.submit(
                StudySpec.evaluate(small_design, workload="none")
            )
            assert handle.exception(timeout=30) is None
            assert handle.result(timeout=1).payload["total_kg"] > 0

    def test_session_deadline_is_typed(self, small_design):
        from repro.api import Session

        plan = FaultPlan(rules=(
            FaultRule("dispatcher.compute", action="delay", delay_s=0.3),
        ))
        with Session(faults=plan, deadline_ms=50) as session:
            with pytest.raises(EvaluationTimeout):
                session.evaluate(small_design, workload="none")
