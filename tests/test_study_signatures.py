"""Every per-kind Python entry point sends its StudySpec's payload.

The :class:`~repro.api.spec.StudySpec` constructors are the one Python
signature of each study kind; ``Session.<name>``,
``ServiceClient.<wire>`` and ``ServiceClient.stream_<wire>`` forward
their fields to them. These tests loop over
:data:`repro.service.schema.STUDY_KINDS`, so they hold for a kind added
to the table: a spec built from the required fields alone renders the
table's defaults, each forward sends exactly the spec's payload, and a
field passed by position is a ``TypeError``, never a silent rebinding.
"""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.api import Session, StudySpec
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.schema import REQUIRED, SCHEMA_VERSION, STUDY_KINDS

from tests.test_study_kinds import REFERENCE, REQUIRED_VALUES, minimal_payload

#: A value other than the table default for every optional field a
#: constructor takes (``stream`` only shapes the transport).
FIELD_VALUES = {
    "workload": {"name": "w", "total_tera_ops": 5.0},
    "fab_location": "iceland",
    "label": "tagged",
    "backend": "act",
    "integrations": ["2d", "hybrid_3d"],
    "fab_locations": ["usa", 30.0],
    "samples": 8,
    "seed": 7,
    "return_samples": True,
    "backends": ["repro3d", "act"],
    "draws": 2,
    "die_counts": [2],
    "wafer_diameters_mm": [300.0],
    "max_configs": 5,
    "chunk": 3,
}


def constructor(kind):
    return getattr(StudySpec, kind.name)


def required_args(kind) -> list:
    return [REQUIRED_VALUES[name] for name, default in kind.fields
            if default is REQUIRED]


def keywords(kind) -> "list[str]":
    """The keyword-only parameters of the kind's constructor."""
    return [
        name for name, parameter
        in inspect.signature(constructor(kind)).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]


def field_values(kind) -> dict:
    return {name: FIELD_VALUES[name] for name in keywords(kind)
            if name != "stream"}


class Recorder(ServiceClient):
    """A client that records each payload instead of sending it."""

    def __init__(self) -> None:
        super().__init__("http://127.0.0.1:9", retries=0)
        self.sent: "list[tuple[str, dict]]" = []

    def submit_payload(self, payload: dict) -> dict:
        self.sent.append(("submit", payload))
        kind = STUDY_KINDS[payload["type"]]
        return {"result": [] if kind.result == "points" else {}}

    def stream_payload(self, payload: dict):
        self.sent.append(("stream", payload))
        return iter(())


def test_each_constructor_takes_every_optional_field_of_its_kind():
    for kind in STUDY_KINDS.values():
        optional = [name for name, default in kind.fields
                    if default is not REQUIRED]
        assert set(optional) <= set(keywords(kind)), kind.name


def test_required_fields_alone_render_the_table_defaults():
    for kind in STUDY_KINDS.values():
        payload = constructor(kind)(*required_args(kind)).to_payload()
        expected = minimal_payload(kind)
        expected.update({
            name: default for name, default in kind.fields
            if not any(default is unset for unset in (REQUIRED, None, False))
        })
        assert payload == expected, kind.name
        assert list(payload) == list(expected), kind.name


def test_session_methods_send_the_spec_payload():
    for kind in STUDY_KINDS.values():
        recorder = Recorder()
        session = Session(executor="service", client=recorder)
        fields = field_values(kind)
        getattr(session, kind.name)(*required_args(kind), **fields)
        expected = constructor(kind)(*required_args(kind), **fields)
        assert recorder.sent == [("submit", expected.to_payload())], kind.name


def test_client_methods_send_the_spec_payload():
    for kind in STUDY_KINDS.values():
        recorder = Recorder()
        fields = field_values(kind)
        getattr(recorder, kind.wire)(*required_args(kind), **fields)
        if kind.streams:
            getattr(recorder, f"stream_{kind.wire}")(
                *required_args(kind), **fields
            )
        payload = constructor(kind)(
            *required_args(kind), **fields
        ).to_payload()
        expected = [("submit", payload)]
        if kind.streams:
            expected.append(("stream", payload))
        assert recorder.sent == expected, kind.name


def test_a_field_passed_by_position_is_a_type_error():
    recorder = Recorder()
    session = Session(executor="service", client=recorder)
    for kind in STUDY_KINDS.values():
        methods = [constructor(kind), getattr(session, kind.name),
                   getattr(recorder, kind.wire)]
        if kind.streams:
            methods.append(getattr(recorder, f"stream_{kind.wire}"))
        for method in methods:
            with pytest.raises(TypeError):
                method(*required_args(kind), "av")
    assert recorder.sent == []


# -- a streamed request is not one envelope ----------------------------------


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


def test_submitting_a_stream_request_names_stream_payload(server):
    client = ServiceClient(server.url)
    payload = {"schema": SCHEMA_VERSION, "type": "batch",
               "points": [{"design": REFERENCE}], "stream": True}
    with pytest.raises(ServiceError, match="stream_payload"):
        client.submit_payload(payload)
    with pytest.raises(ServiceError, match="stream_payload"):
        client.optimize(REFERENCE, integrations=["hybrid_3d"],
                        max_configs=4, stream=True)
    entries = list(client.stream_payload(payload))
    assert [entry["index"] for entry in entries] == [0]
    assert "result" in client.batch([{"design": REFERENCE}])
