"""Malformed request bodies never answer 500.

Whatever bytes a client sends — random bytes, a valid body cut short,
nesting deeper than the JSON decoder's stack guard, a non-object top
level, a field of the wrong type — ``/evaluate`` and ``/batch`` answer
a typed 4xx envelope, the same on a repeat (``/evaluate`` bodies are
remembered once they parse; these never do). A valid body sent after
them still answers 200 with the scalar model's report.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.io.designs import design_from_dict
from repro.service import make_server, schema

DEPTH = 100_000


def design() -> dict:
    return {
        "name": "malformed_chip",
        "integration": "hybrid_3d",
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


def evaluate_payload() -> dict:
    return {"schema": 1, "type": "evaluate", "design": design()}


def batch_payload(point: dict) -> dict:
    return {"schema": 1, "type": "batch", "points": [point]}


def encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    path = tmp_path_factory.mktemp("malformed") / "store.sqlite3"
    service = make_server(store_path=str(path))
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        yield service
    finally:
        service.close()
        thread.join(timeout=5.0)


def post(service, path: str, body: bytes) -> "tuple[int, dict]":
    """One POST on a fresh connection → (status, decoded envelope)."""
    host, port = service.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def assert_typed_4xx(status: int, envelope: dict) -> None:
    assert 400 <= status < 500, (status, envelope)
    assert envelope["schema"] == 1 and envelope["ok"] is False
    assert isinstance(envelope["error"]["type"], str)
    assert isinstance(envelope["error"]["message"], str)


class TestDeepNesting:
    """``json.loads`` raises RecursionError past its nesting guard."""

    def test_nested_evaluate_body_is_a_schema_400(self, server):
        body = b"[" * DEPTH + b"]" * DEPTH
        for _ in range(2):
            status, envelope = post(server, "/evaluate", body)
            assert status == 400
            assert envelope["error"]["type"] == "SchemaError"
            assert envelope["error"]["message"].startswith(
                "request body is not valid JSON: "
            )

    def test_nested_batch_points_are_a_schema_400(self, server):
        body = (b'{"schema": 1, "type": "batch", "points": '
                + b"[" * DEPTH + b"]" * DEPTH + b"}")
        status, envelope = post(server, "/batch", body)
        assert status == 400
        assert envelope["error"]["type"] == "SchemaError"
        assert "not valid JSON" in envelope["error"]["message"]

    def test_unreadable_body_is_a_400_before_an_unknown_route_404(
        self, server
    ):
        for body in (b"{not json", b"[" * DEPTH + b"]" * DEPTH):
            status, envelope = post(server, "/nope", body)
            assert status == 400, body[:16]
            assert envelope["error"]["type"] == "SchemaError"
        status, envelope = post(server, "/nope", encode(evaluate_payload()))
        assert status == 404
        assert envelope["error"]["message"] == "no such route: /nope"


def test_decode_error_messages_are_the_json_decoder_messages():
    for body in (b"{not json", b'{"schema": 1', b"\xff\xfe"):
        with pytest.raises(schema.SchemaError) as info:
            schema.decode_body(body)
        try:
            json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            expected = f"request body is not valid JSON: {error}"
        assert str(info.value) == expected


# -- generated malformed bodies ----------------------------------------------

#: (field path, wrong value) pairs for an evaluate point.
WRONG_FIELDS = [
    (("design",), 3),
    (("design",), []),
    (("design", "dies"), "dies"),
    (("design", "dies"), [7]),
    (("design", "dies"), []),
    (("design", "integration"), 4.5),
    (("design", "stacking"), "sideways"),
    (("design", "package"), "fcbga"),
    (("design", "package", "class"), 9),
    (("design", "package", "area_mm2"), "big"),
    (("design", "throughput_tops"), "fast"),
    (("design", "throughput_tops"), -1),
    (("design", "dies", 0, "node"), True),
    (("design", "dies", 0, "gate_count"), "many"),
    (("design", "dies", 0, "gate_count"), [1]),
    (("design", "dies", 0, "workload_share"), {}),
    (("design", "dies", 0, "kind"), "quantum"),
    (("design", "dies", 0, "name"), None),
    (("design", "dies", 0, "node"), [1]),
    (("design", "dies", 0, "workload_share"), None),
    (("design", "name"), ["x"]),
    (("design", "package", "class"), {"name": "fcbga"}),
    (("design", "package", "area_mm2"), [900]),
    (("workload",), 5),
    (("workload",), {"name": "w"}),
    (("workload",), {"name": "w", "total_tera_ops": "lots"}),
    (("workload",), {"name": "w", "total_tera_ops": float("nan")}),
    (("workload",), {"name": "w", "total_tera_ops": float("inf")}),
    (("workload",), {"name": "w", "total_tera_ops": 1.0,
                     "lifetime_years": float("inf")}),
    (("design", "throughput_tops"), float("inf")),
    (("design", "package", "area_mm2"), float("nan")),
    (("design", "dies", 0, "efficiency_tops_per_w"), float("inf")),
    (("design", "dies", 0, "gate_count"), 1e300),
    (("fab_location",), []),
    (("fab_location",), True),
    (("label",), 7),
    (("backend",), 1),
    (("backend",), "no_such_backend"),
    (("extra",), 1),
]


@pytest.mark.parametrize(
    "literal", [b"1e400", b"-1e400", b"1" + b"0" * 400],
    ids=["1e400", "-1e400", "401-digit-int"],
)
def test_out_of_range_number_literals_are_a_typed_4xx(server, literal):
    """``1e400`` decodes to inf and a 401-digit int overflows a float."""
    for workload in (
        b'{"name": "w", "total_tera_ops": %s}',
        b'{"name": "w", "total_tera_ops": 1.0, "lifetime_years": %s}',
    ):
        body = (b'{"schema": 1, "type": "evaluate", "design": '
                + encode(design()) + b', "workload": '
                + workload % literal + b"}")
        assert_typed_4xx(*post(server, "/evaluate", body))


def with_field(point: dict, path: tuple, value) -> dict:
    point = json.loads(json.dumps(point))
    target = point
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return point


def valid_prefixes() -> "st.SearchStrategy[bytes]":
    whole = encode(evaluate_payload())
    return st.integers(0, len(whole) - 1).map(lambda end: whole[:end])


def nested() -> "st.SearchStrategy[bytes]":
    return st.tuples(
        st.sampled_from([b"[", b'{"a": ']), st.integers(1_000, DEPTH)
    ).map(lambda pair: pair[0] * pair[1])


def non_objects() -> "st.SearchStrategy[bytes]":
    values = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.text(max_size=20), st.lists(st.integers(), max_size=4),
    )
    return values.map(encode)


def both(body: bytes) -> "tuple[bytes, bytes]":
    return body, body


#: (``/evaluate`` body, ``/batch`` body) pairs.
BODIES = st.one_of(
    st.binary(min_size=1, max_size=200).map(both),
    valid_prefixes().map(both),
    nested().map(both),
    non_objects().map(both),
    st.sampled_from(WRONG_FIELDS).map(
        lambda wrong: (
            encode(with_field(evaluate_payload(), *wrong)),
            encode(batch_payload(
                with_field({"design": design()}, *wrong)
            )),
        )
    ),
    st.sampled_from([
        {"schema": 2, "type": "evaluate", "design": design()},
        {"schema": 1, "type": "nope", "design": design()},
        {"schema": 1, "design": design()},
        {"schema": 1, "type": "batch", "points": "all"},
        {"schema": 1, "type": "batch", "points": [3]},
        {"schema": 1, "type": "batch", "points": []},
    ]).map(lambda payload: both(encode(payload))),
)


@functools.cache
def scalar_report() -> dict:
    report = CarbonModel(
        design_from_dict(design()), fab_location="taiwan"
    ).evaluate(Workload.autonomous_vehicle()).to_dict()
    return json.loads(json.dumps(report))


@given(bodies=BODIES)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_malformed_bodies_answer_typed_4xx(server, bodies):
    evaluate_body, batch_body = bodies
    for path, body in (("/evaluate", evaluate_body), ("/batch", batch_body)):
        for _ in range(2):
            status, envelope = post(server, path, body)
            assert_typed_4xx(status, envelope)
    status, envelope = post(server, "/evaluate", encode(evaluate_payload()))
    assert status == 200
    assert envelope["result"] == scalar_report()


@pytest.mark.parametrize("wrong", WRONG_FIELDS, ids=lambda wrong: repr(wrong))
def test_each_wrong_field_type_is_a_typed_4xx(server, wrong):
    for path, body in (
        ("/evaluate", encode(with_field(evaluate_payload(), *wrong))),
        ("/batch", encode(batch_payload(with_field({"design": design()},
                                                   *wrong)))),
    ):
        for _ in range(2):
            assert_typed_4xx(*post(server, path, body))
