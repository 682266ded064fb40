"""A study kind is its table entry plus its handler.

Each kind's spec class, record class, ``StudySpec``/``Session``/
``ServiceClient`` method and route come from its
:data:`repro.service.schema.STUDY_KINDS` entry. These tests pin what
that gives: a spec carries only its kind's fields, a request ``type`` is
checked by one function everywhere, and a kind added to the table with a
``Dispatcher.<wire>`` handler runs locally and over HTTP alike.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading

import pytest

from repro.api import Session, StudySpec
from repro.errors import ParameterError
from repro.service import make_server, schema
from repro.service.dispatcher import Dispatcher
from repro.service.schema import (
    REQUIRED,
    STUDY_KINDS,
    SchemaError,
    StudyKind,
    workload_to_value,
)

from tests.test_study_kinds import REFERENCE, minimal_payload
from tests.test_study_signatures import Recorder, required_args


@pytest.fixture()
def server():
    service = make_server()
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        yield service
    finally:
        service.close()
        thread.join(timeout=5.0)


# -- one spec class per kind -------------------------------------------------


def test_a_spec_holds_only_its_kinds_fields():
    for kind in STUDY_KINDS.values():
        spec = getattr(StudySpec, kind.name)(*required_args(kind))
        assert type(spec).info is kind
        assert isinstance(spec, StudySpec)
        assert [field.name for field in dataclasses.fields(spec)] == [
            "kind", *kind.names
        ], kind.name


def test_a_field_the_kind_does_not_carry_is_a_type_error():
    with pytest.raises(TypeError, match="keyword argument 'samples'"):
        StudySpec("evaluate", design=REFERENCE, samples=5)
    with pytest.raises(TypeError):
        StudySpec.evaluate(REFERENCE, samples=5)


def test_the_generic_constructor_renders_the_table_defaults():
    for kind in STUDY_KINDS.values():
        required = {
            name: value for (name, default), value
            in zip(kind.fields, required_args(kind)) if default is REQUIRED
        }
        spec = StudySpec(kind.name, **required)
        assert spec == getattr(StudySpec, kind.name)(*required_args(kind))
    payload = StudySpec("evaluate", design=REFERENCE).to_payload()
    assert payload["workload"] == "av"


def test_replace_keeps_the_kind():
    spec = StudySpec.sweep(REFERENCE)
    streamed = dataclasses.replace(spec, stream=True)
    assert streamed.to_payload() == {**spec.to_payload(), "stream": True}
    with pytest.raises(ParameterError, match="cannot be of kind"):
        dataclasses.replace(spec, kind="batch")


def test_methods_name_themselves_in_a_misuse():
    recorder = Recorder()
    session = Session(executor="service", client=recorder)
    for kind in STUDY_KINDS.values():
        constructor = getattr(StudySpec, kind.name)
        expected = list(inspect.signature(constructor).parameters)
        assert expected == [name for name, _ in kind.arguments]
        methods = {
            f"StudySpec.{kind.name}": constructor,
            f"Session.{kind.name}": getattr(session, kind.name),
            f"ServiceClient.{kind.wire}": getattr(recorder, kind.wire),
        }
        if kind.streams:
            methods[f"ServiceClient.stream_{kind.wire}"] = getattr(
                recorder, f"stream_{kind.wire}"
            )
        for qualname, method in methods.items():
            assert list(inspect.signature(method).parameters) == expected
            with pytest.raises(TypeError) as error:
                method(*required_args(kind), colour="red")
            assert str(error.value) == (
                f"{qualname}() got an unexpected keyword argument 'colour'"
            )
    assert recorder.sent == []


# -- one ``type`` check ------------------------------------------------------

BAD_TYPES = {
    "unknown": {"type": "nope"},
    "missing": {},
    "not a string": {"type": 5},
}


@pytest.mark.parametrize("case", sorted(BAD_TYPES))
def test_a_bad_type_fails_alike_everywhere(case):
    payload = {**BAD_TYPES[case], "design": REFERENCE}
    wire = BAD_TYPES[case].get("type")
    message = (
        f"request \"type\" must be one of {', '.join(STUDY_KINDS)}, "
        f"got {wire!r}"
    )
    recorder = Recorder()
    calls = [
        lambda: Session().run(payload),
        lambda: Session(executor="service", client=recorder).run(payload),
        lambda: Session().submit(payload),
        lambda: Session(executor="service", client=recorder).submit(payload),
        lambda: StudySpec.from_payload(payload),
        lambda: schema.parse_request({"schema": 1, **payload}),
    ]
    for call in calls:
        with pytest.raises(SchemaError) as error:
            call()
        assert str(error.value) == message
        assert error.value.field == "type"
    # The service session failed before sending anything.
    assert recorder.sent == []


# -- a new kind: one table entry plus its handler ----------------------------


def _toy(self, request, *, deadline=None):
    return {
        "design": request.design.name,
        "label": request.label,
        "workload": workload_to_value(request.workload),
    }


def test_a_new_kind_needs_its_entry_and_its_handler(monkeypatch, server):
    toy = StudyKind(
        "toy", "toy_study", "echo", "a design's name, label and workload",
        (("design", REQUIRED), ("workload", "av"), ("label", None)),
        cached=False, default_backend=False,
    )
    monkeypatch.setitem(STUDY_KINDS, "toy", toy)
    monkeypatch.setattr(Dispatcher, "toy", _toy, raising=False)

    spec = StudySpec("toy_study", design=REFERENCE, label="t")
    assert spec.to_payload() == {
        **minimal_payload(toy), "workload": "av", "label": "t",
    }
    local = Session().run(spec)
    served = Session(executor="service", url=server.url).run(spec)
    assert local.to_payload() == served.to_payload() == {
        "design": REFERENCE["name"], "label": "t", "workload": "av",
    }
    assert Session().run(spec.to_payload()).to_payload() == local.to_payload()
    assert type(schema.parse_request(spec.to_payload())).__name__ == (
        "ToyStudyRequest"
    )
    # An unknown field is refused by the generated parse, as for any kind.
    with pytest.raises(SchemaError) as error:
        schema.parse_request({**spec.to_payload(), "samples": 3})
    assert error.value.field == "request.samples"
