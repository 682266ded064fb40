"""The warm serving path: interned key text, verbatim store hits, one write.

A repeated query — a store hit — is the request an architect comparing
integration choices sends most. These tests pin what its three savings
must never change: the store keys (byte-identical to the keys the store
has always used), the response bytes (byte-identical to encoding the
decoded result), and the self-healing of a corrupt stored row. They
also pin the work counts behind the savings: the interned table holds
parameter records only, a verified hit is not decoded again, and every
non-stream response leaves in one socket write.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import http.client
import json
import socketserver
import sqlite3
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import DEFAULT_PARAMETERS, ParameterSet
from repro.core.design import ChipDesign, Die, PackageSpec
from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.errors import DesignError
from repro.pipeline.registry import backend_names
from repro.service import dispatcher as dispatcher_module
from repro.service import make_server, schema
from repro.service import store as store_module
from repro.service.dispatcher import Dispatcher, evaluate_fingerprint
from repro.service.schema import EvaluateRequest
from repro.service.store import (
    ResultStore,
    canonical_text,
    content_key,
    record_texts,
)
from repro.studies.sweep import DEFAULT_INTEGRATIONS
from repro.tenancy import TenantContext, namespace_key, tenant_scope

NODES = ("7nm", "10nm", "14nm")
LOCATIONS = ("taiwan", "usa", "iceland")
TENANTS = ("anonymous", "acme", "globex")


def key_corpus() -> "list[EvaluateRequest]":
    """Every Table 1 integration × 7/10/14 nm × 2–4 dies (the 2D
    reference itself for ``2d``), with and without a workload, under
    every registered backend."""
    workload = Workload.autonomous_vehicle()
    points = []
    for i, integration in enumerate(DEFAULT_INTEGRATIONS):
        for j, node in enumerate(NODES):
            reference = ChipDesign.planar_2d(
                f"ref_{integration}_{node}", node,
                gate_count=(4.0 + 3.0 * j + 0.5 * i) * 1e9,
                throughput_tops=254.0,
            )
            designs = []
            if integration == "2d":
                designs.append(reference)
            for n_dies in (2, 3, 4) if integration != "2d" else ():
                try:
                    design = ChipDesign.homogeneous_split(
                        reference, integration, n_dies
                    )
                    design.validate(DEFAULT_PARAMETERS)
                except DesignError:
                    continue
                designs.append(design)
            for k, design in enumerate(designs):
                for backend in backend_names():
                    for wl in (workload, None):
                        points.append(EvaluateRequest(
                            design=design,
                            workload=wl,
                            fab_location=LOCATIONS[(i + j + k) % 3],
                            backend=backend,
                        ))
    return points


def corpus_digest(tenant: str) -> "tuple[int, str, str]":
    """(point count, first key, SHA-256 over every key in order)."""
    dispatcher = Dispatcher()
    with tenant_scope(TenantContext(tenant=tenant)):
        keys = [dispatcher._point_key(point) for point in key_corpus()]
    joined = "\n".join(keys).encode("ascii")
    return len(keys), keys[0], hashlib.sha256(joined).hexdigest()


#: The same corpus keyed by the store before key-text interning: a
#: store filled then must keep serving hits, so these never change.
PINNED_KEYS = {
    "anonymous": (
        540,
        "389a426ec521d9368822b95089053cfa7e89f03404c9e2a28a68f575c395f5f5",
        "2d0d18ffb50a9ae013877e12724f262e5a30fa4f4d0cec05f07b69f0c8d77ee6",
    ),
    "acme": (
        540,
        "f9ce5462152a3953ea0bc4031d12a2c60b5b1cf2a3b023f2021b3565a871d4ed",
        "485c4c0eaa8f2a3a54a36c48de21e98c4fab3a89930c18b3d7cc32b7e43918a7",
    ),
    "globex": (
        540,
        "ffdd37225b63c91d71d5cdd3f82cce83a2d6dabfee6e4b89e5f25fee7b820a23",
        "3cb32cebd03bdd1801ddde3d5229da64b9d99467da1f9c10f1d0b5a7a09d8051",
    ),
}

#: Store keys of a Monte-Carlo and a tornado study (see
#: ``study_keys``), pinned the same way.
PINNED_STUDY_KEYS = {
    "anonymous": [
        "58cc718f6e7fbd04b2ac30fbadfa58bc82c75bb0a2fa26200b24ebbd05b997cc",
        "92bcf1ee2107328bc7505e29dfb7e21f4aa96b3f38cbac8eaa9e944c21035ea3",
    ],
    "acme": [
        "1c9bdf847772c3f8c08caebf1ff4b09d0a9d7f028305d782a5f4728d996c3c47",
        "d9dfc9681b9e789471015be428bad18f48c9e35bb6b35f9ea3ed3234058c85a4",
    ],
}


def study_keys(tenant: str) -> "list[str]":
    """The store keys a small Monte-Carlo and a tornado study write."""
    design = ChipDesign.homogeneous_split(
        ChipDesign.planar_2d(
            "ref", "7nm", gate_count=17e9, throughput_tops=254.0
        ),
        "hybrid_3d",
    )
    store = ResultStore()
    dispatcher = Dispatcher(store=store)
    with tenant_scope(TenantContext(tenant=tenant)):
        dispatcher.montecarlo(schema.MonteCarloRequest(
            design=design, workload=Workload.autonomous_vehicle(),
            fab_location=None, samples=16, seed=3, backend="repro3d",
        ))
        dispatcher.tornado(schema.TornadoRequest(
            design=design, workload=None, fab_location="usa",
            backend="act",
        ))
    rows = store._conn.execute("SELECT key FROM results").fetchall()
    return sorted(row[0] for row in rows)


#: ``/optimize`` requests whose store keys are pinned: (server default
#: fab location, request axes). The first takes every grid default, the
#: second sets every axis and knob, the third takes the defaults on a
#: server whose own fab location is not ``taiwan``.
OPTIMIZE_CASES = {
    "default-axes": ("taiwan", {}),
    "explicit-axes": ("taiwan", {
        "integrations": ("hybrid_3d", "mcm"),
        "die_counts": (2, 3),
        "wafer_diameters_mm": (300.0, 450.0),
        "fab_locations": ("taiwan", 250.0),
        "max_configs": 24,
        "chunk": 10,
        "seed": 11,
    }),
    "iceland-server": ("iceland", {}),
}

#: Store keys of :data:`OPTIMIZE_CASES`: a search stored once keeps
#: being served, so these never change.
PINNED_OPTIMIZE_KEYS = {
    "default-axes":
        "b057948622969936a0b2c9c6b9aa488b42ef55badacd9e824866c5ae9b94d350",
    "explicit-axes":
        "5358b85081994a2cd7de72057713d439e3f36d2105639efcb5d0758dec9cd559",
    "iceland-server":
        "8ac20a3c91966d47c7829965b432a0cc02f2bf1d80f8978e051f237e40d6c063",
}


def optimize_request(
    case: str, store: "ResultStore | None" = None
) -> "tuple[Dispatcher, schema.OptimizeRequest]":
    location, axes = OPTIMIZE_CASES[case]
    dispatcher = Dispatcher(store=store, fab_location=location)
    return dispatcher, schema.OptimizeRequest(
        design=ChipDesign.planar_2d(
            "opt_ref", "7nm", gate_count=17e9, throughput_tops=254.0
        ),
        workload=Workload.autonomous_vehicle(),
        **axes,
    )


def optimize_key(case: str) -> str:
    """The store key ``Dispatcher.optimize`` looks up for one case."""
    dispatcher, request = optimize_request(case)
    return dispatcher._optimize_key(
        request, dispatcher._optimize_axes(request)
    )


#: A second copy of the default set: equal values, no shared records,
#: so every key computed against it is a cold rendering.
COLD_PARAMS = copy.deepcopy(DEFAULT_PARAMETERS)

NON_2D = tuple(name for name in DEFAULT_INTEGRATIONS if name != "2d")


class TestKeysUnchanged:
    @pytest.mark.parametrize("tenant", TENANTS)
    def test_corpus_keys_match_the_pinned_store_keys(self, tenant):
        assert corpus_digest(tenant) == PINNED_KEYS[tenant]

    @pytest.mark.parametrize("tenant", sorted(PINNED_STUDY_KEYS))
    def test_study_keys_match_the_pinned_store_keys(self, tenant):
        assert study_keys(tenant) == PINNED_STUDY_KEYS[tenant]

    @pytest.mark.parametrize("case", sorted(OPTIMIZE_CASES))
    def test_optimize_keys_match_the_pinned_store_keys(self, case):
        assert optimize_key(case) == PINNED_OPTIMIZE_KEYS[case]

    def test_optimize_stores_its_front_under_that_key(self):
        dispatcher, request = optimize_request("explicit-axes", ResultStore())
        dispatcher.optimize(request)
        rows = dispatcher.store._conn.execute(
            "SELECT key FROM results"
        ).fetchall()
        assert [row[0] for row in rows] == [
            PINNED_OPTIMIZE_KEYS["explicit-axes"]
        ]

    def test_store_format_version_is_unchanged(self):
        assert store_module.STORE_FORMAT_VERSION == 4

    def test_cold_params_share_no_record(self):
        warm = record_texts(DEFAULT_PARAMETERS)
        cold = record_texts(COLD_PARAMS)
        assert len(warm) == len(cold) > 0
        assert not set(warm) & set(cold)
        assert sorted(text for _, text in warm.values()) == sorted(
            text for _, text in cold.values()
        )

    @given(
        integration=st.sampled_from(DEFAULT_INTEGRATIONS),
        node=st.sampled_from(NODES),
        n_dies=st.integers(min_value=2, max_value=4),
        gates=st.floats(min_value=1e9, max_value=3e10),
        location=st.one_of(
            st.sampled_from(LOCATIONS + (None,)),
            st.floats(min_value=30.0, max_value=700.0),
        ),
        workload=st.sampled_from(["av", None]),
        backend=st.sampled_from(sorted(backend_names())),
        tenant=st.sampled_from(TENANTS),
    )
    @settings(max_examples=60, deadline=None)
    def test_interned_key_equals_cold_key_and_survives_json(
        self, integration, node, n_dies, gates, location, workload,
        backend, tenant,
    ):
        from repro.io.designs import design_to_dict

        design = ChipDesign.planar_2d(
            "prop", node, gate_count=gates, throughput_tops=254.0
        )
        if integration != "2d":
            try:
                design = ChipDesign.homogeneous_split(
                    design, integration, n_dies
                )
            except DesignError:
                return
        payload = {
            "schema": 1, "type": "evaluate",
            "design": design_to_dict(design),
            "fab_location": location, "workload": workload,
            "backend": backend,
        }
        request = schema.parse_evaluate_request(payload)
        dispatcher = Dispatcher()
        with tenant_scope(TenantContext(tenant=tenant)):
            interned = dispatcher._point_key(request)
            round_trip = dispatcher._point_key(
                schema.parse_evaluate_request(
                    json.loads(json.dumps(payload))
                )
            )
        fingerprint = evaluate_fingerprint(
            request.design, COLD_PARAMS,
            location if location is not None else "taiwan",
            request.workload, backend,
        )
        assert interned == namespace_key(fingerprint, tenant=tenant)
        assert round_trip == interned
        if tenant == "anonymous":
            assert interned == content_key(fingerprint)

    def test_equal_records_that_render_differently_are_not_shared(self):
        """Interning is by identity: an ``int`` field that compares equal
        to the default ``float`` keeps its own text and its own key."""
        node = DEFAULT_PARAMETERS.node("7nm")
        as_int = ParameterSet(
            technology=DEFAULT_PARAMETERS.technology.with_record(
                node.with_overrides(alpha=int(node.alpha))
            ),
        )
        assert as_int.node("7nm") == node
        assert canonical_text(as_int.node("7nm")) != canonical_text(node)
        design = ChipDesign.planar_2d(
            "p", "7nm", gate_count=5e9, throughput_tops=254.0
        )
        keys = {}
        for params in (DEFAULT_PARAMETERS, as_int):
            fingerprint = evaluate_fingerprint(design, params, "taiwan", None)
            keys[id(params)] = content_key(fingerprint)
            assert keys[id(params)] == content_key(
                fingerprint, record_texts(params)
            )
        assert len(set(keys.values())) == 2


#: The record types a parameter set is made of; nothing else may be
#: interned.
PARAMETER_RECORD_TYPES = {
    "ProcessNode", "IntegrationSpec", "BondingProcess", "PackageClass",
    "GridProfile", "SubstrateParameters", "M3DParameters",
    "BandwidthConstraintParameters",
}


def distinct_requests(count: int) -> "list[EvaluateRequest]":
    return [
        EvaluateRequest(
            design=ChipDesign.homogeneous_split(
                ChipDesign.planar_2d(
                    f"bounded_{i}", NODES[i % 3],
                    gate_count=(2.0 + i) * 1e9, throughput_tops=254.0,
                ),
                NON_2D[i % len(NON_2D)],
            ),
            workload=Workload.autonomous_vehicle() if i % 2 else None,
            fab_location=LOCATIONS[i % 3],
        )
        for i in range(count)
    ]


class TestInterningBounded:
    @pytest.mark.parametrize("count", [3, 12])
    def test_table_holds_parameter_records_only(self, count):
        dispatcher = Dispatcher(store=ResultStore())
        table = dispatcher._records
        before = dict(table)
        for request in distinct_requests(count):
            dispatcher.evaluate(request)
            dispatcher.evaluate(request, encoded=True)
        assert table == before
        assert len(table) == len(record_texts(DEFAULT_PARAMETERS))
        kinds = {type(record).__name__ for record, _ in table.values()}
        assert kinds <= PARAMETER_RECORD_TYPES
        assert not any(
            isinstance(record, (ChipDesign, Die, PackageSpec, Workload))
            for record, _ in table.values()
        )

    def test_table_does_not_keep_its_parameter_set_alive(self):
        params = copy.deepcopy(DEFAULT_PARAMETERS)
        alive = weakref.ref(params)
        dispatcher = Dispatcher(params=params, store=ResultStore())
        dispatcher.evaluate(distinct_requests(1)[0])
        table = dispatcher._records
        del dispatcher, params
        gc.collect()
        assert alive() is None
        assert table

    def test_verified_hits_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "_VERIFIED_MAX", 4)
        dispatcher = Dispatcher(store=ResultStore())
        requests = distinct_requests(10)
        for request in requests:
            dispatcher.evaluate(request)
        for request in requests:
            result, source = dispatcher.evaluate(request, encoded=True)
            assert source == "store"
            assert len(dispatcher._verified) <= 4


# -- the HTTP face -----------------------------------------------------------


def design_payload(name: str = "warm_chip") -> dict:
    return {
        "name": name,
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


def scalar_result(payload: dict) -> dict:
    from repro.io.designs import design_from_dict

    return CarbonModel(
        design_from_dict(payload), fab_location="taiwan"
    ).evaluate(Workload.autonomous_vehicle()).to_dict()


@pytest.fixture()
def server(tmp_path):
    service = make_server(store_path=str(tmp_path / "store.sqlite3"))
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        yield service
    finally:
        service.close()
        thread.join(timeout=5.0)


def exchange(
    service, method: str, path: str, body: "dict | bytes | None" = None
) -> "tuple[int, bytes]":
    """One request on a fresh connection → (status, raw body bytes)."""
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    host, port = service.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def evaluate_body(name: str = "warm_chip") -> dict:
    return {"schema": 1, "type": "evaluate", "design": design_payload(name)}


def result_bytes(body: bytes) -> bytes:
    """The raw ``result`` value of an ok envelope (key order pinned)."""
    head, rest = body.split(b'"result": ', 1)
    result, tail = rest.rsplit(b', "trace_id": ', 1)
    assert head.startswith(b'{"schema": 1, "ok": true, "cache": ')
    return result


class TestWireBytes:
    def test_computed_and_hit_bytes_equal_the_scalar_dump(self, server):
        status, computed = exchange(server, "POST", "/evaluate",
                                    evaluate_body())
        assert status == 200
        status, hit = exchange(server, "POST", "/evaluate", evaluate_body())
        assert status == 200
        first, second = json.loads(computed), json.loads(hit)
        assert (first["cache"], second["cache"]) == ("computed", "store")
        expected = json.dumps(scalar_result(design_payload())).encode()
        assert result_bytes(computed) == result_bytes(hit) == expected
        for body, envelope in ((computed, first), (hit, second)):
            # Byte-identical to encoding the decoded envelope, in the
            # documented key order.
            assert list(envelope) == [
                "schema", "ok", "cache", "result", "trace_id"
            ]
            assert body == json.dumps(envelope).encode()

    def test_verified_hits_are_not_decoded_again(self, server, monkeypatch):
        class CountingJSON:
            loads_calls = 0
            dumps = staticmethod(json.dumps)

            def loads(self, text):
                CountingJSON.loads_calls += 1
                return json.loads(text)

        monkeypatch.setattr(dispatcher_module, "json", CountingJSON())
        exchange(server, "POST", "/evaluate", evaluate_body())
        assert CountingJSON.loads_calls == 0
        exchange(server, "POST", "/evaluate", evaluate_body())
        assert CountingJSON.loads_calls == 1
        for _ in range(3):
            status, body = exchange(server, "POST", "/evaluate",
                                    evaluate_body())
            assert status == 200 and json.loads(body)["cache"] == "store"
        assert CountingJSON.loads_calls == 1
        # The /batch route splices hits too, through the same memo.
        batch = {"schema": 1, "type": "batch",
                 "points": [{"design": design_payload()}]}
        for _ in range(2):
            status, body = exchange(server, "POST", "/batch", batch)
            assert json.loads(body)["result"][0]["cache"] == "store"
        assert CountingJSON.loads_calls == 1

    def test_each_response_is_one_socket_write(self, server, monkeypatch):
        writes = []
        original = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(len(data))
            return original(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            counting_write)
        cases = [
            ("POST", "/evaluate", evaluate_body(), 200),
            ("POST", "/evaluate", evaluate_body(), 200),
            ("POST", "/evaluate", b"{not json", 400),
            ("POST", "/nowhere", evaluate_body(), 404),
            ("GET", "/nowhere", None, 404),
            ("GET", "/metrics", None, 200),
            ("GET", "/healthz", None, 200),
        ]
        for method, path, body, expected_status in cases:
            writes.clear()
            status, data = exchange(server, method, path, body)
            assert status == expected_status, (path, data)
            assert len(writes) == 1, (path, writes)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestEnvelopeSplice:
    @given(
        result=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6),
        cache=st.sampled_from(["store", "computed"]),
        trace_id=st.text(alphabet="0123456789abcdef", min_size=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_spliced_envelope_equals_dumps_of_the_decoded_one(
        self, result, cache, trace_id
    ):
        stored = json.dumps(result)
        spliced = schema.ok_envelope(
            schema.EncodedJSON(stored), cache=cache
        )
        spliced["trace_id"] = trace_id
        decoded = schema.ok_envelope(json.loads(stored), cache=cache)
        decoded["trace_id"] = trace_id
        assert schema.dumps_envelope(spliced) == json.dumps(decoded)
        assert schema.dumps_envelope(decoded) == json.dumps(decoded)


# -- self-healing of a corrupt stored row ------------------------------------


CORRUPT_PAYLOADS = ['{"total_kg": 1.', "not json", "[]", "null", ""]


def corrupt_every_row(service, payload: str) -> None:
    conn = sqlite3.connect(service.store.path)
    try:
        conn.execute("UPDATE results SET payload = ?", (payload,))
        conn.commit()
    finally:
        conn.close()


def stored_rows(service) -> "list[str]":
    conn = sqlite3.connect(service.store.path)
    try:
        return [row[0] for row in conn.execute("SELECT payload FROM results")]
    finally:
        conn.close()


class TestCorruptRowSelfHeals:
    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS)
    @pytest.mark.parametrize("served_before", [False, True])
    @pytest.mark.parametrize("route", ["/evaluate", "/batch"])
    def test_corrupt_row_is_recomputed_and_repaired(
        self, server, payload, served_before, route
    ):
        expected = scalar_result(design_payload())
        exchange(server, "POST", "/evaluate", evaluate_body())
        if served_before:
            # The hit path has now verified (and remembered) this row's
            # text; the corruption must still be noticed.
            status, body = exchange(server, "POST", "/evaluate",
                                    evaluate_body())
            assert json.loads(body)["cache"] == "store"
        corrupt_every_row(server, payload)

        if route == "/evaluate":
            request = evaluate_body()
        else:
            request = {"schema": 1, "type": "batch",
                       "points": [{"design": design_payload()}]}
        status, body = exchange(server, "POST", route, request)
        assert status == 200, body
        envelope = json.loads(body)
        answer = (
            envelope if route == "/evaluate" else envelope["result"][0]
        )
        result = answer["result" if route == "/evaluate" else "report"]
        assert answer["cache"] == "computed"
        assert result == json.loads(json.dumps(expected))
        assert stored_rows(server) == [json.dumps(expected)]

        status, body = exchange(server, "POST", "/evaluate", evaluate_body())
        assert status == 200
        assert json.loads(body)["cache"] == "store"
        assert result_bytes(body) == json.dumps(expected).encode()
