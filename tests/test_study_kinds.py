"""Every study kind, driven by the one study-kind table.

Each test loops over :data:`repro.service.schema.STUDY_KINDS`, so a kind
added to the table is covered here without new test code: its route
rejects other kinds' bodies, a non-streaming kind refuses to stream on
every path, its parser's defaults agree with the table's, its envelope
carries a ``cache`` tag exactly when the table says so, and generated
specs of it round-trip through the wire payload. The remaining tests pin
that a payload dict is judged by the server's own validator on every
entry point, and that the streamed optimize result renders its workload
as the enveloped one does.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session, StudySpec
from repro.api.executors import LocalExecutor, ServiceExecutor
from repro.core.design import ChipDesign
from repro.errors import ParameterError
from repro.io.designs import design_to_dict
from repro.pipeline.registry import backend_names
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.dispatcher import Dispatcher
from repro.service.schema import (
    REQUIRED,
    SCHEMA_VERSION,
    STUDY_KINDS,
    SchemaError,
    parse_request,
)
from repro.studies.sweep import DEFAULT_INTEGRATIONS

from tests.test_path_agreement import LOCATIONS, WORKLOADS, designs

REFERENCE = design_to_dict(ChipDesign.planar_2d(
    "kinds_ref", "7nm", gate_count=17e9, throughput_tops=254.0,
))

#: A value for every field the table marks as required.
REQUIRED_VALUES = {"design": REFERENCE, "points": [{"design": REFERENCE}]}

#: Knobs that keep a kind's default study small, where it has them.
SMALL = {"samples": 8, "draws": 0, "max_configs": 12, "chunk": 6,
         "integrations": ["2d", "hybrid_3d"], "die_counts": [2],
         "wafer_diameters_mm": [300.0], "backends": ["repro3d", "act"]}

NON_STREAMING = [kind for kind in STUDY_KINDS.values() if not kind.streams]


def minimal_payload(kind) -> dict:
    """The smallest valid request of ``kind``: its required fields."""
    payload = {"schema": SCHEMA_VERSION, "type": kind.wire}
    for name, default in kind.fields:
        if default is REQUIRED:
            payload[name] = REQUIRED_VALUES[name]
    return payload


def small_payload(kind) -> dict:
    payload = minimal_payload(kind)
    payload.update({
        name: value for name, value in SMALL.items() if name in kind.names
    })
    return payload


@pytest.fixture(scope="module")
def server():
    service = make_server()
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        yield service
    finally:
        service.close()
        thread.join(timeout=5.0)


def post(url: str, route: str, payload: dict) -> "tuple[int, dict]":
    request = urllib.request.Request(
        url + route, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


# -- routes ------------------------------------------------------------------


def test_every_route_rejects_another_kinds_body(server):
    for route_kind in STUDY_KINDS.values():
        for body_kind in STUDY_KINDS.values():
            if body_kind is route_kind:
                continue
            status, envelope = post(
                server.url, route_kind.route, minimal_payload(body_kind)
            )
            assert status == 400, (route_kind.wire, body_kind.wire)
            error = envelope["error"]
            assert error["type"] == "SchemaError"
            assert error["field"] == "type"
            assert error["message"] == (
                f"endpoint expects a {route_kind.wire!r} request, got "
                f"{body_kind.wire!r}"
            )


def test_stream_flag_on_a_non_streaming_kind_is_400(server):
    for kind in NON_STREAMING:
        payload = {**minimal_payload(kind), "stream": True}
        status, envelope = post(server.url, kind.route, payload)
        assert status == 400, kind.wire
        assert envelope["error"]["type"] == "SchemaError"
        assert envelope["error"]["field"] == "request.stream"


def test_envelope_carries_a_cache_tag_exactly_when_the_table_says(server):
    client = ServiceClient(server.url)
    for kind in STUDY_KINDS.values():
        envelope = client.submit_payload(small_payload(kind))
        assert ("cache" in envelope) is kind.cached, kind.wire


# -- streaming ---------------------------------------------------------------


def test_both_executors_refuse_to_stream_a_non_streaming_kind():
    local = LocalExecutor(Dispatcher())
    # The check precedes any request, so no server need listen here.
    remote = ServiceExecutor(ServiceClient("http://127.0.0.1:9", retries=0))
    for kind in NON_STREAMING:
        payload = minimal_payload(kind)
        with pytest.raises(ParameterError) as local_error:
            local.stream(payload)
        with pytest.raises(ParameterError) as remote_error:
            remote.stream(payload)
        assert str(local_error.value) == str(remote_error.value)
        assert str(local_error.value) == (
            f"only batch/sweep/optimize studies stream, got {kind.wire!r}"
        )


# -- the table agrees with the parsers ---------------------------------------


def test_parser_defaults_match_the_table():
    for kind in STUDY_KINDS.values():
        minimal = minimal_payload(kind)
        spelled_out = {
            **minimal,
            **{name: default for name, default in kind.fields
               if default is not REQUIRED},
        }
        assert parse_request(minimal) == parse_request(spelled_out), kind.wire


def test_parse_request_sees_every_kind_on_every_path(monkeypatch, server):
    """The tracer wraps ``schema.parse_request``; a request of any kind
    reaches the wrapper on every path: raw bytes on the kind's route (a
    remembered ``/evaluate`` body too), a dict through the kind's route
    parser, the local executor and ``StudySpec.from_payload``."""
    import repro.service.schema as schema

    original = schema.parse_request
    seen = []
    requests = []

    def traced(data, expected=None):
        request = original(data, expected)
        seen.append((type(data).__name__, expected))
        requests.append(request)
        return request

    monkeypatch.setattr(schema, "parse_request", traced)
    wires = list(STUDY_KINDS)

    client = ServiceClient(server.url)
    for kind in STUDY_KINDS.values():
        client.submit_payload(small_payload(kind))
    client.submit_payload(small_payload(STUDY_KINDS["evaluate"]))
    assert seen == [("bytes", wire) for wire in wires + ["evaluate"]]
    # The repeated body is answered by the remembered parse.
    assert requests[-1] is requests[wires.index("evaluate")]
    assert schema.remembered(requests[-1])

    paths = {
        "route parser": lambda payload: getattr(
            schema, f"parse_{payload['type']}_request"
        )(payload),
        "local executor": LocalExecutor(Dispatcher()).run,
        "from_payload": StudySpec.from_payload,
    }
    for path, run in paths.items():
        seen.clear()
        for kind in STUDY_KINDS.values():
            run(small_payload(kind))
        expected = wires if path == "route parser" else [None] * len(wires)
        assert seen == [("dict", wire) for wire in expected], path


# -- generated specs round-trip ----------------------------------------------

names = st.sampled_from(DEFAULT_INTEGRATIONS)
backends = st.one_of(st.none(), st.sampled_from(backend_names()))
locations = st.one_of(st.none(), st.sampled_from(LOCATIONS))
workloads = st.sampled_from(("av",) + WORKLOADS)
seeds = st.integers(0, 2**40)


def some(values, max_size: int = 3):
    return st.one_of(
        st.none(), st.lists(values, min_size=1, max_size=max_size)
    )


evaluate_specs = st.builds(
    StudySpec.evaluate, designs(), workload=workloads,
    fab_location=locations, label=st.one_of(st.none(), st.text(max_size=8)),
    backend=backends,
)

#: One strategy per API kind name; the test below fails for a table
#: kind that has none.
SPECS = {
    "evaluate": evaluate_specs,
    "batch": st.builds(
        StudySpec.batch, st.lists(evaluate_specs, min_size=1, max_size=3),
        backend=backends,
    ),
    "sweep": st.builds(
        StudySpec.sweep, designs(), integrations=some(names),
        fab_locations=some(st.sampled_from(LOCATIONS)), workload=workloads,
        backend=backends,
    ),
    "monte_carlo": st.builds(
        StudySpec.monte_carlo, designs(), samples=st.integers(2, 10_000),
        seed=seeds, workload=workloads, fab_location=locations,
        backend=backends, return_samples=st.booleans(),
    ),
    "compare": st.builds(
        StudySpec.compare, designs(),
        backends=some(st.sampled_from(backend_names())), workload=workloads,
        fab_location=locations,
        draws=st.one_of(st.just(0), st.integers(2, 64)), seed=seeds,
    ),
    "tornado": st.builds(
        StudySpec.tornado, designs(), workload=workloads,
        fab_location=locations, backend=backends,
    ),
    "optimize": st.builds(
        StudySpec.optimize, designs(), workload=workloads,
        integrations=some(names), die_counts=some(st.integers(2, 64)),
        wafer_diameters_mm=some(st.sampled_from((200.0, 300.0, 450.0))),
        fab_locations=some(st.sampled_from(LOCATIONS)),
        max_configs=st.one_of(st.none(), st.integers(1, 1000)),
        chunk=st.one_of(st.none(), st.integers(1, 1000)), seed=seeds,
    ),
}


def test_every_kind_has_a_spec_strategy():
    assert set(SPECS) == {kind.name for kind in STUDY_KINDS.values()}


@st.composite
def study_specs(draw) -> StudySpec:
    spec = draw(st.one_of(*SPECS.values()))
    if spec.info.streams:
        spec = replace(spec, stream=draw(st.booleans()))
    return spec


@given(spec=study_specs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_specs_round_trip_the_wire(spec):
    payload = spec.to_payload()
    assert json.loads(json.dumps(payload)) == payload
    assert parse_request(payload) is not None
    assert StudySpec.from_payload(payload) == spec


# -- one validator on every entry point --------------------------------------

MALFORMED = [
    ({"type": "sweep", "design": REFERENCE, "integrations": "m3d"},
     "integrations"),
    ({"type": "compare", "design": REFERENCE, "backends": "act"}, "backends"),
    ({"type": "evaluate", "design": REFERENCE, "colour": "red"},
     "request.colour"),
    ({"schema": 2, "type": "evaluate", "design": REFERENCE}, "schema"),
    ({"type": "batch", "points": [{"design": REFERENCE}], "stream": "yes"},
     "stream"),
    ({"type": "batch", "points": "ab"}, "points"),
    ({"type": "batch", "points": [1]}, "points[0]"),
]


@pytest.mark.parametrize("payload,field", MALFORMED)
def test_malformed_payload_fails_alike_everywhere(server, payload, field):
    with pytest.raises(SchemaError) as local:
        Session().run(payload)
    assert local.value.field == field

    with pytest.raises(ServiceError) as served:
        Session(executor="service", url=server.url).run(payload)
    assert served.value.error_type == "SchemaError"
    assert served.value.payload["field"] == field

    status, envelope = post(
        server.url, f"/{payload['type']}",
        {"schema": SCHEMA_VERSION, **payload},
    )
    assert status == 400
    assert envelope["error"]["type"] == "SchemaError"
    assert envelope["error"]["field"] == field

    with pytest.raises(SchemaError) as spec_error:
        StudySpec.from_payload(payload)
    assert spec_error.value.field == field


@pytest.mark.parametrize("payload,field", MALFORMED)
def test_submitted_malformed_payload_fails_the_handle(server, payload, field):
    local = Session().submit(payload).exception(timeout=60)
    assert isinstance(local, SchemaError)
    assert local.field == field
    served = Session(executor="service", url=server.url).submit(
        payload
    ).exception(timeout=60)
    assert isinstance(served, ServiceError)
    assert served.error_type == "SchemaError"
    assert served.payload["field"] == field


def test_trace_cli_rejects_a_malformed_study(tmp_path, capsys):
    from repro.cli import main

    study = tmp_path / "study.json"
    study.write_text(json.dumps(MALFORMED[0][0]))
    assert main(["trace", str(study)]) != 0
    assert '"integrations" must be a non-empty array' in capsys.readouterr().err


# -- the streamed optimize result --------------------------------------------


@pytest.mark.parametrize("workload", [
    "av", None, {"name": "w", "total_tera_ops": 5.0},
])
def test_streamed_optimize_renders_the_workload_as_enveloped(
    server, workload
):
    spec = StudySpec.optimize(
        REFERENCE, workload=workload, integrations=["hybrid_3d"],
        die_counts=[2], wafer_diameters_mm=[300.0], max_configs=8, chunk=4,
    )
    expected = Session().run(spec).to_payload()
    if isinstance(workload, dict):
        # The parsed record, defaults filled in, not the record as sent.
        assert expected["workload"] == {
            **workload, "use_location": "renewable_charging",
            "lifetime_years": 10.0,
        }
    else:
        assert expected["workload"] == workload
    for session in (Session(), Session(executor="service", url=server.url)):
        assert session.run(spec).to_payload() == expected
        assert session.submit(spec).result().to_payload() == expected
