"""Differential property: every evaluation path prices a design the same.

Generated designs span integration kind × die count × node × package ×
fab location × workload. The scalar ``CarbonModel``, a long-lived
``BatchEvaluator`` (its memo shared across every example) and the
store-backed ``Dispatcher.batch`` (request-scoped engine memo) must
agree bit for bit — the dispatcher twice: once as computed, once as
served from the store. So must a served ``/evaluate``, computed and
then, for the same bytes again, served from the store through the
remembered parse and key, and the in-process ``LocalExecutor``.
Store keys of one design never agree across tenants, and the anonymous
tenant's key is the unsalted content key.
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.parameters import DEFAULT_PARAMETERS
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.engine import BatchEvaluator
from repro.api.executors import LocalExecutor
from repro.errors import DesignError
from repro.io.designs import design_to_dict
from repro.service import make_server
from repro.service.dispatcher import Dispatcher, evaluate_fingerprint
from repro.service.schema import (
    PARSE_MEMO_BODY_MAX,
    BatchRequest,
    EvaluateRequest,
    workload_to_value,
)
from repro.service.store import ResultStore, content_key
from repro.studies.sweep import DEFAULT_INTEGRATIONS
from repro.tenancy import ANONYMOUS_TENANT, namespace_key

NODES = ("5nm", "7nm", "10nm", "14nm", "28nm")
PACKAGES = ("fcbga", "server_mcm", "pop_mobile", "fowlp")
LOCATIONS = ("taiwan", "usa", "iceland", "germany", "world", 30.0, 480.0)
WORKLOADS = (
    None,
    Workload.autonomous_vehicle(),
    Workload(name="edge", total_tera_ops=3.0e9, use_location="usa",
             lifetime_years=4.0),
)


def split_counts(integration: str) -> "tuple[int, ...]":
    """The 2–4 die counts a homogeneous split of this kind validates."""
    probe = ChipDesign.planar_2d("probe", "7nm", gate_count=1e9)
    counts = []
    for n_dies in (2, 3, 4):
        try:
            ChipDesign.homogeneous_split(probe, integration, n_dies).validate(
                DEFAULT_PARAMETERS
            )
        except DesignError:
            continue
        counts.append(n_dies)
    return tuple(counts)


DIE_COUNTS = {
    name: split_counts(name) for name in DEFAULT_INTEGRATIONS if name != "2d"
}


@st.composite
def designs(draw) -> ChipDesign:
    integration = draw(st.sampled_from(DEFAULT_INTEGRATIONS))
    reference = ChipDesign.planar_2d(
        f"gen_{draw(st.integers(0, 10**6))}",
        draw(st.sampled_from(NODES)),
        # Below ~1,000 mm² at every node: the 2D reference (and a 2.5D
        # interposer) still fits the wafer.
        gate_count=draw(st.integers(500, 12_000)) * 1e6,
        package_class=draw(st.sampled_from(PACKAGES)),
        throughput_tops=254.0,
    )
    if integration == "2d":
        return reference
    return ChipDesign.homogeneous_split(
        reference, integration,
        n_dies=draw(st.sampled_from(DIE_COUNTS[integration])),
    )


points = st.builds(
    EvaluateRequest,
    design=designs(),
    workload=st.sampled_from(WORKLOADS),
    fab_location=st.sampled_from(LOCATIONS),
)

#: Long-lived across examples, as a service's or a study's engine is.
ENGINE = BatchEvaluator()


@given(batch=st.lists(points, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scalar_engine_and_store_backed_batch_agree(batch):
    expected = [
        CarbonModel(p.design, fab_location=p.fab_location)
        .evaluate(p.workload).to_dict()
        for p in batch
    ]
    assert [
        ENGINE.report(p.design, workload=p.workload,
                      fab_location=p.fab_location).to_dict()
        for p in batch
    ] == expected

    request = BatchRequest(points=tuple(batch))
    with ResultStore() as store:
        dispatcher = Dispatcher(store=store)
        computed = dispatcher.batch(request)
        served = dispatcher.batch(request)
    assert [entry["report"] for entry in computed] == expected
    assert {entry["cache"] for entry in served} == {"store"}
    # Stored rows are JSON text: floats round-trip exactly.
    assert [entry["report"] for entry in served] == [
        json.loads(json.dumps(report)) for report in expected
    ]


def served(body: bytes) -> "list[tuple[str, bytes]]":
    """``body`` POSTed twice to ``/evaluate`` on a fresh store →
    (cache tag, raw response) per answer."""
    with tempfile.TemporaryDirectory() as tmp:
        service = make_server(store_path=f"{tmp}/store.sqlite3")
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            answers = []
            for _ in range(2):
                conn = http.client.HTTPConnection(*service.server_address[:2],
                                                  timeout=60)
                try:
                    conn.request("POST", "/evaluate", body=body)
                    response = conn.getresponse()
                    raw = response.read()
                finally:
                    conn.close()
                assert response.status == 200, raw
                answers.append((json.loads(raw)["cache"], raw))
            return answers
        finally:
            service.close()
            thread.join(timeout=5.0)


@given(point=points)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_served_evaluate_and_local_executor_agree(point):
    expected = CarbonModel(
        point.design, fab_location=point.fab_location
    ).evaluate(point.workload).to_dict()
    text = json.dumps(expected)
    payload = {
        "schema": 1,
        "type": "evaluate",
        "design": design_to_dict(point.design),
        "workload": workload_to_value(point.workload),
        "fab_location": point.fab_location,
    }
    body = json.dumps(payload).encode("utf-8")
    # Small enough to be remembered: the repeat takes the memo path.
    assert len(body) <= PARSE_MEMO_BODY_MAX
    answers = served(body)
    assert [cache for cache, _ in answers] == ["computed", "store"]
    for _, raw in answers:
        assert json.loads(raw)["result"] == json.loads(text)
        assert f'"result": {text}'.encode("utf-8") in raw

    executor = LocalExecutor(Dispatcher(store=ResultStore()))
    try:
        result, cache = executor.run(payload)
    finally:
        executor.close()
    assert cache == "computed"
    assert result == json.loads(text)


#: Non-empty tenant ids (``issue`` rejects an empty one): the anonymous
#: id, free text, and ids built around ``namespace_key``'s ``\x1f``
#: separator and ``tenant:`` prefix.
tenant_ids = st.one_of(
    st.just(ANONYMOUS_TENANT),
    st.text(min_size=1, max_size=16),
    st.text(alphabet="a\x1f:tenant", min_size=1, max_size=12),
)


@given(design=designs(), a=tenant_ids, b=tenant_ids)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tenant_store_keys_are_disjoint(design, a, b):
    fingerprint = evaluate_fingerprint(
        design, DEFAULT_PARAMETERS, "taiwan", None
    )
    key_a = namespace_key(fingerprint, a)
    assert namespace_key(fingerprint, a) == key_a
    assert (namespace_key(fingerprint, b) == key_a) == (a == b)
    assert namespace_key(fingerprint, ANONYMOUS_TENANT) == content_key(
        fingerprint
    )
