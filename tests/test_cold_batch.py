"""The cold batch path: one store read, one write, one encode per report.

An enveloped ``/batch`` (and ``/sweep``, which runs through it) reads
every distinct key in one store call, writes every computed report in
one transaction, and encodes each computed report once: that text is the
stored row and the response bytes. These tests pin what that must never
change — the response bytes (``json.dumps`` of the decoded envelope,
reports equal to the scalar model and the local executor), the stored
row text, the self-healing of a corrupt row, the store's hit/miss/
eviction accounting — and the work counts behind the saving, counted as
SQL statements rather than timed.
"""

from __future__ import annotations

import http.client
import json
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.executors import LocalExecutor
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.io.designs import design_from_dict
from repro.obs import trace as obs_trace
from repro.service import make_server, schema
from repro.service.dispatcher import Dispatcher
from repro.service.store import ResultStore
from repro.tenancy import TokenRegistry


def chip(name: str, gates: float = 8.5e9) -> dict:
    return {
        "name": name,
        "integration": "hybrid_3d",
        "stacking": "f2f",
        "assembly": "d2w",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [
            {"name": "top", "node": "7nm", "gate_count": gates,
             "workload_share": 0.5},
            {"name": "bottom", "node": "7nm", "gate_count": gates,
             "workload_share": 0.5},
        ],
    }


def reference() -> dict:
    """A single-die 2D reference (sweeps need one to split)."""
    return {
        "name": "sweep_ref",
        "integration": "2d",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [{"name": "die", "node": "7nm", "gate_count": 17e9,
                  "workload_share": 1.0}],
    }


def scalar(design: ChipDesign, fab_location: str = "taiwan") -> dict:
    """The scalar model's report, as it reads after a JSON round trip."""
    report = CarbonModel(design, fab_location=fab_location).evaluate(
        Workload.autonomous_vehicle()
    )
    return json.loads(json.dumps(report.to_dict()))


class Service:
    """A served store, optionally behind one named tenant's token."""

    def __init__(self, tmp_path, tenant: "str | None") -> None:
        self.registry = None
        self.token = None
        kwargs = {}
        if tenant is not None:
            self.registry = TokenRegistry(str(tmp_path / "tokens.sqlite3"))
            self.token, _ = self.registry.issue(f"{tenant}-ci", tenant)
            kwargs["token_registry"] = self.registry
        self.server = make_server(
            store_path=str(tmp_path / "store.sqlite3"), **kwargs
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    @property
    def store(self) -> ResultStore:
        return self.server.store

    def post(self, path: str, payload: dict) -> "tuple[int, bytes]":
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["X-Carbon3D-Token"] = self.token
        try:
            conn.request("POST", path, body=json.dumps(
                dict(payload, schema=1)
            ).encode(), headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def ok(self, path: str, payload: dict) -> "tuple[bytes, dict]":
        status, body = self.post(path, payload)
        assert status == 200, body
        return body, json.loads(body)

    def rows(self) -> "dict[str, str]":
        conn = sqlite3.connect(self.store.path)
        try:
            return dict(conn.execute("SELECT key, payload FROM results"))
        finally:
            conn.close()

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=5.0)
        if self.registry is not None:
            self.registry.close()


@pytest.fixture(params=[None, "acme"], ids=["anonymous", "acme"])
def service(request, tmp_path):
    served = Service(tmp_path, request.param)
    try:
        yield served
    finally:
        served.close()


def batch_payload(designs: "list[dict]") -> dict:
    return {"type": "batch", "points": [
        {"design": design, "label": f"p{i}"}
        for i, design in enumerate(designs)
    ]}


def local_result(payload: dict):
    """The same payload through the in-process executor (dict reports)."""
    return LocalExecutor(Dispatcher()).run(dict(payload, schema=1))[0]


# -- wire bytes and parity ----------------------------------------------------


class TestWireBytesAndParity:
    def test_batch_mixing_computed_store_and_duplicate_entries(
        self, service
    ):
        stored, fresh = chip("stored_chip"), chip("fresh_chip", 6e9)
        service.ok("/evaluate", {"type": "evaluate", "design": stored})
        payload = batch_payload([fresh, stored, fresh, stored, chip("x", 5e9)])
        body, envelope = service.ok("/batch", payload)

        assert body == json.dumps(envelope).encode()
        assert [entry["cache"] for entry in envelope["result"]] == [
            "computed", "store", "computed", "store", "computed"
        ]
        expected = [scalar(design_from_dict(point["design"]))
                    for point in payload["points"]]
        assert [entry["report"] for entry in envelope["result"]] == expected
        local = local_result(payload)
        assert [entry["report"] for entry in local] == expected
        # Every row the batch wrote or served is exactly the text spliced
        # into the response.
        rows = service.rows()
        assert len(rows) == 3
        for text in rows.values():
            assert json.dumps(json.loads(text)) == text
            assert b'"report": ' + text.encode() in body

    def test_sweep_mixing_computed_store_and_duplicate_entries(
        self, service
    ):
        # The repeated location repeats every key of its integration.
        payload = {"type": "sweep", "design": reference(),
                   "integrations": ["2d", "hybrid_3d", "mcm"],
                   "fab_locations": ["taiwan", "taiwan", "usa"]}
        service.ok("/sweep", dict(payload, integrations=["hybrid_3d"],
                                  fab_locations=["usa"]))
        body, envelope = service.ok("/sweep", payload)

        assert body == json.dumps(envelope).encode()
        entries = envelope["result"]
        assert [entry["label"] for entry in entries] == [
            f"{name}@{location}"
            for name in ("2d", "hybrid_3d", "mcm")
            for location in ("taiwan", "taiwan", "usa")
        ]
        assert [entry["cache"] for entry in entries] == [
            "computed", "computed", "computed",
            "computed", "computed", "store",
            "computed", "computed", "computed",
        ]
        ref = design_from_dict(reference())
        expected = []
        for name in ("2d", "hybrid_3d", "mcm"):
            design = (ref if name == "2d"
                      else ChipDesign.homogeneous_split(ref, name))
            expected += [scalar(design, location)
                         for location in ("taiwan", "taiwan", "usa")]
        assert [entry["report"] for entry in entries] == expected
        assert [entry["report"] for entry in local_result(payload)] == \
            expected
        rows = service.rows()
        assert len(rows) == 6
        for text in rows.values():
            assert b'"report": ' + text.encode() in body

    def test_corrupt_row_among_hits_is_recomputed_the_rest_served(
        self, service
    ):
        designs = [chip(f"chip{i}", (5 + i) * 1e9) for i in range(3)]
        service.ok("/batch", batch_payload(designs))
        good = service.rows()
        conn = sqlite3.connect(service.store.path)
        try:
            conn.execute(
                "UPDATE results SET payload = '[]' WHERE payload LIKE ?",
                ('%"chip1"%',),
            )
            conn.commit()
        finally:
            conn.close()

        body, envelope = service.ok("/batch", batch_payload(designs))
        assert [entry["cache"] for entry in envelope["result"]] == [
            "store", "computed", "store"
        ]
        assert body == json.dumps(envelope).encode()
        assert [entry["report"] for entry in envelope["result"]] == [
            scalar(design_from_dict(design)) for design in designs
        ]
        assert service.rows() == good
        _, again = service.ok("/batch", batch_payload(designs))
        assert [entry["cache"] for entry in again["result"]] == ["store"] * 3

    def test_local_callers_still_get_dicts(self):
        dispatcher = Dispatcher(store=ResultStore())
        request = schema.parse_batch_request(
            dict(batch_payload([chip("a"), chip("a")]), schema=1)
        )
        for cache in ("computed", "store"):
            entries = dispatcher.batch(request)
            assert [entry["cache"] for entry in entries] == [cache] * 2
            assert all(type(entry["report"]) is dict for entry in entries)


ENTRY_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


class TestEnvelopeSplice:
    @given(
        reports=st.lists(
            st.dictionaries(st.text(max_size=6), ENTRY_VALUES, max_size=4),
            max_size=5,
        ),
        labels=st.lists(st.none() | st.text(max_size=8), min_size=5,
                        max_size=5),
        encoded=st.lists(st.booleans(), min_size=5, max_size=5),
        trace_id=st.text(alphabet="0123456789abcdef", min_size=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_spliced_entries_equal_dumps_of_the_decoded_envelope(
        self, reports, labels, encoded, trace_id
    ):
        entries, decoded = [], []
        for report, label, splice in zip(reports, labels, encoded):
            text = json.dumps(report)
            entries.append({"label": label, "cache": "store", "report": (
                schema.EncodedJSON(text) if splice else report
            )})
            decoded.append({"label": label, "cache": "store",
                            "report": json.loads(text)})
        spliced = schema.ok_envelope(entries)
        spliced["trace_id"] = trace_id
        plain = schema.ok_envelope(decoded)
        plain["trace_id"] = trace_id
        assert schema.dumps_envelope(spliced) == json.dumps(plain)
        assert schema.dumps_envelope(plain) == json.dumps(plain)


# -- work counts --------------------------------------------------------------


class SQLTrace:
    """Every statement a store connection runs, in order."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.statements: "list[str]" = []
        self.conn = conn
        conn.set_trace_callback(self.statements.append)

    def stop(self) -> None:
        self.conn.set_trace_callback(None)

    def result_selects(self) -> int:
        return sum(
            s.startswith("SELECT key, payload FROM results WHERE key IN")
            for s in self.statements
        )

    def commits_around(self, marker: str) -> int:
        """COMMITs closing a transaction that ran ``marker``."""
        commits, pending = 0, False
        for statement in self.statements:
            if statement.startswith(marker):
                pending = True
            elif statement == "COMMIT":
                commits += pending
                pending = False
        return commits


TOUCH = "UPDATE results SET last_used"
UPSERT = "INSERT INTO results"


class TestWorkCounts:
    @pytest.mark.parametrize("distinct,stored", [
        (1, 0), (1, 1), (12, 0), (12, 5), (12, 12), (501, 3),
    ])
    def test_batch_statement_counts(self, service, distinct, stored):
        designs = [chip(f"c{i}", 4e9 + i * 1e7) for i in range(distinct)]
        if stored:
            service.ok("/batch", batch_payload(designs[:stored]))
        trace = SQLTrace(service.store._conn)
        try:
            # Repeats of the first point ride along; they add no keys.
            _, envelope = service.ok(
                "/batch", batch_payload(designs + designs[:1] * 2)
            )
        finally:
            trace.stop()
        assert len(envelope["result"]) == distinct + 2
        assert trace.result_selects() == -(-distinct // 500)
        assert trace.commits_around(TOUCH) == (1 if stored else 0)
        assert trace.commits_around(UPSERT) == (
            1 if stored < distinct else 0
        )

    def test_sweep_is_recorded_once(self):
        dispatcher = Dispatcher(store=ResultStore())
        request = schema.parse_sweep_request({
            "schema": 1, "type": "sweep", "design": reference(),
            "integrations": ["2d", "hybrid_3d"],
        })
        with obs_trace.trace("root") as root:
            entries = dispatcher.sweep(request)
        assert len(entries) == 2
        assert (dispatcher.stats.requests, dispatcher.stats.points) == (1, 2)
        observed = {
            line.split(" ")[0]: line.split(" ")[1]
            for line in dispatcher.metrics.render_prometheus().splitlines()
            if line.startswith("carbon3d_dispatch_duration_seconds_count")
        }
        assert observed == {
            'carbon3d_dispatch_duration_seconds_count{kind="sweep"}': "1"
        }
        names = [span.name for span in obs_trace.collector.spans(
            root.trace_id
        )]
        assert names.count("dispatcher.sweep") == 1
        assert "dispatcher.batch" not in names


def survivors(store: ResultStore) -> "list[str]":
    return [key for (key,) in store._conn.execute(
        "SELECT key FROM results ORDER BY last_used"
    )]


def counters(store: ResultStore) -> dict:
    stats = store.stats()
    return {name: stats[name] for name in (
        "hits", "misses", "evictions", "entries", "lifetime"
    )}


class TestBatchedStoreMatchesPerKey:
    @pytest.mark.parametrize("max_entries,preload,batch", [
        (100_000, 0, 24),
        (40, 30, 8),      # one overflow, evict_batch = 2
        (40, 30, 25),     # several overflows
        (40, 0, 95),      # new points outnumber max_entries
        (1, 0, 3),
    ])
    def test_counts_and_survivors_equal_per_key_calls(
        self, max_entries, preload, batch
    ):
        per_key = ResultStore(max_entries=max_entries)
        batched = ResultStore(max_entries=max_entries)
        old = [(f"old{i:03d}", f'"{i}"') for i in range(preload)]
        new = [(f"new{i:03d}", f'"n{i}"') for i in range(batch)]
        for store in (per_key, batched):
            for key, payload in old:
                store.put(key, payload)
        probe = [key for key, _ in old[::3] + new[:4]]

        for key in probe:
            per_key.get(key)
        for key, payload in new:
            per_key.put(key, payload)
        batched.get_many(probe)
        batched.put_many(new)

        assert counters(batched) == counters(per_key)
        assert survivors(batched) == survivors(per_key)
        assert len(batched) <= max_entries

    def test_overflowing_batch_keeps_the_newest_rows(self):
        store = ResultStore(max_entries=40)  # evicts 2 rows per overflow
        store.put_many([(f"k{i:03d}", "{}") for i in range(95)])
        # One-by-one, 95 puts evict 2 rows at each of the 28 overflows.
        assert store.stats()["evictions"] == 56
        assert survivors(store) == [f"k{i:03d}" for i in range(56, 95)]

    def test_hit_touches_follow_key_order(self):
        store = ResultStore(max_entries=4)
        store.put_many([(key, "{}") for key in "abcd"])
        assert store.get_many(["c", "zz", "a", "b"]) == ["{}", None, "{}",
                                                          "{}"]
        store.put("e", "{}")
        assert survivors(store) == ["c", "a", "b", "e"]

    def test_get_many_chunks_its_reads(self):
        store = ResultStore()
        store.put_many([(f"k{i}", "{}") for i in range(1200)])
        trace = SQLTrace(store._conn)
        try:
            payloads = store.get_many(
                [f"k{i}" for i in range(0, 2400, 2)]
            )
        finally:
            trace.stop()
        assert payloads == ["{}"] * 600 + [None] * 600
        assert trace.result_selects() == 3
        assert trace.commits_around(TOUCH) == 1
        assert (store.hits, store.misses) == (600, 600)
