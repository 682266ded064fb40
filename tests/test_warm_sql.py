"""SQLite work of a warm hit, and the in-memory state that saves it.

A repeat ``/evaluate`` by a named tenant is a store hit. Its token, its
quota ceiling and the LRU touch of its row are answered or kept in
memory: the token row and the tenant's usage totals stay valid while
``PRAGMA data_version`` shows no other connection has committed, and the
touch waits for the handle's next write transaction. These tests count
SQL statements (never time) and pin what must not change: a revoke or a
rotate from another connection binds on the next request, absolute
quotas bind at the same request as when every check read SQL, and no
handle evicts a row it touched more recently than the rows it keeps.
"""

from __future__ import annotations

import http.client
import json
import sqlite3
import sys
import threading

import pytest

from repro.resilience import FaultPlan, FaultRule
from repro.service import make_server
from repro.service.store import ResultStore, StoreError
from repro.tenancy import (
    QuotaExceededError,
    QuotaManager,
    TenantQuota,
    TokenRegistry,
    UsageLedger,
)


class SQLTrace:
    """Every statement a connection runs, in order."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.statements: "list[str]" = []
        self.conn = conn
        conn.set_trace_callback(self.statements.append)

    def stop(self) -> None:
        self.conn.set_trace_callback(None)

    def count(self, prefix: str, containing: str = "") -> int:
        return sum(
            s.startswith(prefix) and containing in s
            for s in self.statements
        )


def design(name: str = "warm_sql_chip") -> dict:
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


class MeteredService:
    """A server whose one named tenant has a request ceiling."""

    def __init__(self, tmp_path, max_requests: int = 1000) -> None:
        self.registry = TokenRegistry(str(tmp_path / "tokens.sqlite3"))
        self.token, _ = self.registry.issue(
            "acme-ci", "acme", quota=TenantQuota(max_requests=max_requests)
        )
        self.server = make_server(
            store_path=str(tmp_path / "store.sqlite3"),
            token_registry=self.registry,
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def evaluate(self) -> "tuple[int, dict]":
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("POST", "/evaluate", body=json.dumps({
                "schema": 1, "type": "evaluate", "design": design(),
            }).encode(), headers={
                "Content-Type": "application/json",
                "X-Carbon3D-Token": self.token,
            })
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def traced_hit(self) -> "tuple[SQLTrace, SQLTrace]":
        store = SQLTrace(self.server.store._conn)
        tokens = SQLTrace(self.registry._conn)
        try:
            status, body = self.evaluate()
        finally:
            store.stop()
            tokens.stop()
        assert status == 200, body
        assert body["cache"] == "store"
        return store, tokens

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=5.0)
        self.registry.close()


@pytest.fixture()
def metered(tmp_path):
    service = MeteredService(tmp_path)
    try:
        yield service
    finally:
        service.close()


def usage_selects(trace: SQLTrace) -> int:
    return trace.count("SELECT", "FROM usage")


class TestWarmHitStatements:
    def test_one_commit_and_one_results_read(self, metered):
        assert metered.evaluate()[1]["cache"] == "computed"
        metered.traced_hit()  # fills the token row and the usage mirror
        store, tokens = metered.traced_hit()
        assert store.count("COMMIT") == 1
        assert store.count("SELECT key, payload FROM results") == 1
        assert usage_selects(store) == 0
        assert store.count("PRAGMA data_version") == 1
        assert tokens.count("SELECT", "FROM tokens") == 0
        assert tokens.count("PRAGMA data_version") == 1
        assert tokens.count("COMMIT") == 0
        # The hit's LRU touch rides in the usage write's transaction.
        writes = [
            s.split(" ")[0] for s in store.statements
            if s.startswith(("UPDATE", "INSERT", "COMMIT"))
        ]
        assert writes == ["UPDATE", "INSERT", "INSERT", "INSERT",
                          "INSERT", "COMMIT"]

    def test_a_peer_commit_brings_back_one_usage_read(self, metered):
        metered.evaluate()
        metered.traced_hit()
        peer = ResultStore(metered.server.store.path)
        try:
            peer.add_usage("globex", {"requests": 1})
            store, _ = metered.traced_hit()
            assert usage_selects(store) == 1
            store, _ = metered.traced_hit()
            assert usage_selects(store) == 0
        finally:
            peer.close()

    def test_a_peer_registry_commit_brings_back_one_token_read(
        self, metered
    ):
        metered.evaluate()
        metered.traced_hit()
        peer = TokenRegistry(metered.registry.path)
        try:
            peer.issue("globex-ci", "globex")
            _, tokens = metered.traced_hit()
            assert tokens.count("SELECT", "FROM tokens") == 1
            _, tokens = metered.traced_hit()
            assert tokens.count("SELECT", "FROM tokens") == 0
        finally:
            peer.close()


# -- token rows cached per handle --------------------------------------------


@pytest.fixture()
def two_registries(tmp_path):
    path = str(tmp_path / "tokens.sqlite3")
    a, b = TokenRegistry(path), TokenRegistry(path)
    try:
        yield a, b
    finally:
        a.close()
        b.close()


class TestTokenCacheFreshness:
    def test_peer_revoke_binds_on_the_next_resolve(self, two_registries):
        a, b = two_registries
        secret, record = b.issue("edge", "acme")
        assert a.resolve(secret) == record
        assert a.resolve(secret) == record  # served from the cache
        b.revoke("edge")
        assert a.resolve(secret) is None

    def test_peer_rotate_binds_on_the_next_resolve(self, two_registries):
        a, b = two_registries
        old, record = b.issue("edge", "acme")
        assert a.resolve(old) == record
        new, _ = b.rotate("edge")
        assert a.resolve(old) is None
        assert a.resolve(new).id == record.id

    def test_peer_reissue_binds_on_the_next_resolve(self, two_registries):
        a, b = two_registries
        old, _ = b.issue("edge", "acme", quota=TenantQuota(max_requests=1))
        assert a.resolve(old).quota.max_requests == 1
        b.revoke("edge")
        new, _ = b.issue("edge", "acme", quota=TenantQuota(max_requests=9))
        assert a.resolve(old) is None
        assert a.resolve(new).quota.max_requests == 9

    def test_own_revoke_and_rotate_bind_at_once(self, two_registries):
        a, _ = two_registries
        secret, _ = a.issue("edge", "acme")
        assert a.resolve(secret) is not None
        rotated, _ = a.rotate("edge")
        assert a.resolve(secret) is None
        assert a.resolve(rotated) is not None
        a.revoke("edge")
        assert a.resolve(rotated) is None

    def test_wrong_secret_for_a_cached_id_is_rejected(self, two_registries):
        a, _ = two_registries
        secret, _ = a.issue("edge", "acme")
        assert a.resolve(secret) is not None
        prefix, token_id, tail = secret.split("_", 2)
        forged = f"{prefix}_{token_id}_{'0' * len(tail)}"
        assert forged != secret
        assert a.resolve(forged) is None
        assert a.resolve(secret) is not None

    def test_cache_keeps_no_secret(self, two_registries):
        a, _ = two_registries
        secret, _ = a.issue("edge", "acme")
        a.resolve(secret)
        for entry in a._cache.values():
            assert secret not in repr(entry)
            assert secret.split("_", 2)[2] not in repr(entry)


class TestResolveStatements:
    """The SQL one ``resolve`` runs, by the shape of the secret."""

    def test_a_secret_not_shaped_c3d_runs_no_statement(
        self, two_registries
    ):
        a, b = two_registries
        for n in range(3):
            b.issue(f"edge-{n}", "acme")
        assert a.enforcing()
        trace = SQLTrace(a._conn)
        try:
            for secret in ("junk", "", "c3d", "c3d_", "abc_1234_ff", "_"):
                assert a.resolve(secret) is None
        finally:
            trace.stop()
        assert trace.statements == []

    def test_a_c3d_secret_runs_one_pragma_and_one_keyed_read(
        self, two_registries
    ):
        a, b = two_registries
        secret, record = b.issue("edge", "acme")
        trace = SQLTrace(a._conn)
        try:
            assert a.resolve(secret) == record
            cold = list(trace.statements)
            assert a.resolve(secret) == record
            assert a.resolve(secret[:-1] + "x") is None
            warm = trace.statements[len(cold):]
        finally:
            trace.stop()
        assert cold == [
            "PRAGMA data_version",
            "SELECT * FROM tokens WHERE id = "
            f"'{record.id}' AND revoked IS NULL",
        ]
        assert warm == ["PRAGMA data_version"] * 2


# -- usage totals mirrored per store handle ----------------------------------


def sql_total(path: str, tenant: str, field: str) -> int:
    conn = sqlite3.connect(path)
    try:
        row = conn.execute(
            "SELECT value FROM usage WHERE tenant = ? AND field = ?",
            (tenant, field),
        ).fetchone()
        return 0 if row is None else row[0]
    finally:
        conn.close()


@pytest.fixture()
def two_stores(tmp_path):
    path = str(tmp_path / "store.sqlite3")
    a, b = ResultStore(path), ResultStore(path)
    try:
        yield a, b
    finally:
        a.close()
        b.close()


class TestUsageMirror:
    @pytest.mark.parametrize("pattern", ["a", "b", "ab", "abb", "aab"])
    def test_ceiling_binds_at_the_same_request_with_a_peer_writing(
        self, two_stores, pattern
    ):
        """Worker A admits; A and B record in turn, B between A's admits."""
        a, b = two_stores
        ledgers = {"a": UsageLedger(a), "b": UsageLedger(b)}
        manager = QuotaManager()
        quota = TenantQuota(max_requests=7)
        admitted = 0
        for step in range(20):
            writer = pattern[step % len(pattern)]
            # Every admit equals the check reading SQL directly.
            truth = sql_total(a.path, "acme", "requests")
            assert ledgers["a"].total("acme", "requests") == truth
            try:
                manager.admit("acme", quota, 1, usage=ledgers["a"])
            except QuotaExceededError as error:
                assert error.reason == "requests"
                assert truth + 1 > quota.max_requests
                break
            assert truth + 1 <= quota.max_requests
            admitted += 1
            ledgers[writer].record("acme", requests=1, points=1)
        assert admitted == 7

    def test_concurrent_writers_lose_no_update(self, two_stores):
        """Threads on A and on B record and read; A's view stays exact."""
        a, b = two_stores
        rounds, threads = 40, 6
        failures = []

        def worker(store: ResultStore) -> None:
            try:
                for _ in range(rounds):
                    store.add_usage("acme", {"requests": 1})
                    store.usage_totals("acme")
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [
                threading.Thread(target=worker, args=(a if i % 2 else b,))
                for i in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert failures == []
        expected = rounds * threads
        assert sql_total(a.path, "acme", "requests") == expected
        assert a.usage_totals("acme") == {"requests": expected}
        assert b.usage_totals("acme") == {"requests": expected}

    def test_own_writes_update_the_mirror_without_a_read(self, two_stores):
        a, _ = two_stores
        a.add_usage("acme", {"requests": 1})
        assert a.usage_totals("acme") == {"requests": 1}
        trace = SQLTrace(a._conn)
        try:
            a.add_usage("acme", {"requests": 2, "points": 5})
            assert a.usage_totals("acme") == {"requests": 3, "points": 5}
        finally:
            trace.stop()
        assert usage_selects(trace) == 0

    def test_failed_usage_write_drops_the_mirror(self, tmp_path):
        store = ResultStore(
            str(tmp_path / "store.sqlite3"),
            faults=FaultPlan(rules=(
                FaultRule("store.usage", after=2),
            )),
        )
        try:
            store.add_usage("acme", {"requests": 1})  # hit 1
            store.usage_totals("acme")                 # hit 2: mirrored
            with pytest.raises(Exception):
                store.add_usage("acme", {"requests": 1})
            trace = SQLTrace(store._conn)
            try:
                assert store.usage_totals("acme") == {"requests": 1}
            finally:
                trace.stop()
            assert usage_selects(trace) == 1
        finally:
            store.close()

    def test_heal_and_clear_drop_mirror_and_touches(self, tmp_path):
        store = ResultStore(
            str(tmp_path / "store.sqlite3"),
            faults=FaultPlan(rules=(
                FaultRule("store.get", error="sqlite", after=1),
            )),
        )
        try:
            store.put("k", "{}")
            store.add_usage("acme", {"requests": 4})
            store.usage_totals("acme")
            assert store.get("k") == "{}"        # get hit 1: touch kept
            assert store._touches and store._usage
            assert store.get("k") is None        # get hit 2: heals
            assert store.quarantined == 1
            assert store._touches == [] and store._usage == {}
            assert store.usage_totals("acme") == {}

            store.put("k", "{}")
            store.add_usage("acme", {"requests": 1})
            store.usage_totals("acme")
            store.get("k")
            assert store._touches and store._usage
            store.clear()
            assert store._touches == [] and store._usage == {}
        finally:
            store.close()


# -- deferred LRU touches ------------------------------------------------------


def last_used(path: str, key: str) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT last_used FROM results WHERE key = ?", (key,)
        ).fetchone()[0]
    finally:
        conn.close()


def survivors(store: ResultStore) -> "list[str]":
    return [key for (key,) in store._conn.execute(
        "SELECT key FROM results ORDER BY last_used"
    )]


class TestDeferredTouches:
    def test_pending_touch_protects_its_row_from_own_eviction(self):
        store = ResultStore(max_entries=4)
        store.put_many([(key, "{}") for key in "abcd"])
        assert store.get("a") == "{}"
        assert store._touches  # not written yet
        store.put("e", "{}")
        assert survivors(store) == ["c", "d", "a", "e"]
        assert store._touches == []

    def test_a_read_commits_nothing(self):
        store = ResultStore()
        store.put("k", "{}")
        trace = SQLTrace(store._conn)
        try:
            assert store.get("k") == "{}"
            assert store.get_many(["k", "missing"]) == ["{}", None]
        finally:
            trace.stop()
        assert trace.count("COMMIT") == 0
        assert trace.count("UPDATE") == 0

    def test_peer_lags_by_at_most_31_touches(self, tmp_path):
        path = str(tmp_path / "store.sqlite3")
        store = ResultStore(path)
        try:
            store.put("k", "{}")
            written = last_used(path, "k")
            for _ in range(ResultStore.FLUSH_PENDING_EVERY - 1):
                assert store.get("k") == "{}"
            assert last_used(path, "k") == written
            assert store.get("k") == "{}"  # the 32nd pending touch
            assert last_used(path, "k") == written + 32
        finally:
            store.close()

    def test_stats_writes_pending_touches(self, tmp_path):
        path = str(tmp_path / "store.sqlite3")
        store = ResultStore(path)
        try:
            store.put("k", "{}")
            written = last_used(path, "k")
            store.get("k")
            assert last_used(path, "k") == written
            assert store.stats()["lifetime"]["hits"] == 1
            assert last_used(path, "k") == written + 1
        finally:
            store.close()

    def test_close_writes_pending_touches(self, tmp_path):
        path = str(tmp_path / "store.sqlite3")
        store = ResultStore(path)
        store.put("k", "{}")
        written = last_used(path, "k")
        store.get("k")
        store.close()
        assert last_used(path, "k") == written + 1

    def test_claim_and_usage_writes_carry_pending_touches(self):
        store = ResultStore()
        store.put("k", "{}")
        for write in (
            lambda: store.try_claim("x", "me", 5.0),
            lambda: store.release_claim("x", "me"),
            lambda: store.add_usage("acme", {"requests": 1}),
        ):
            store.get("k")
            trace = SQLTrace(store._conn)
            try:
                write()
            finally:
                trace.stop()
            assert trace.statements[1].startswith("UPDATE results")
            assert trace.count("COMMIT") == 1
            assert store._touches == []


# -- stats() and clear() under a peer's write lock -------------------------------


@pytest.fixture()
def locked_store(tmp_path):
    """A store whose file a second connection holds the write lock on."""
    path = str(tmp_path / "store.sqlite3")
    store = ResultStore(path, busy_retries=2, busy_backoff_s=0.01)
    store.put("k", "{}")
    store.get("k")
    peer = sqlite3.connect(path, isolation_level=None)
    peer.execute("BEGIN IMMEDIATE")
    try:
        yield store, peer
    finally:
        peer.execute("ROLLBACK")
        peer.close()
        store.close()


class TestHeldWriteLock:
    def test_clear_raises_a_typed_store_error(self, locked_store):
        store, _ = locked_store
        retried = store.busy_retried
        with pytest.raises(StoreError, match="store.clear"):
            store.clear()
        assert store.busy_retried == retried + 2

    def test_stats_still_answers_and_keeps_the_flush_pending(
        self, locked_store
    ):
        store, peer = locked_store
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["lifetime"]["hits"] == 0  # flush skipped, kept
        assert store._touches
        peer.execute("ROLLBACK")
        peer.execute("BEGIN")  # the fixture's ROLLBACK closes this one
        assert store.stats()["lifetime"]["hits"] == 1
        assert store._touches == []

    def test_stats_reads_get_busy_retries_and_a_typed_error(self, tmp_path):
        store = ResultStore(
            str(tmp_path / "store.sqlite3"),
            busy_retries=2, busy_backoff_s=0.001,
            faults=FaultPlan(rules=(
                FaultRule("store.stats", error="busy", times=None),
            )),
        )
        try:
            with pytest.raises(StoreError, match="store.stats"):
                store.stats()
            assert store.busy_retried == 2
        finally:
            store.close()

    def test_stats_and_clear_heal_a_corrupt_store(self, tmp_path):
        store = ResultStore(
            str(tmp_path / "store.sqlite3"),
            faults=FaultPlan(rules=(
                FaultRule("store.stats", error="sqlite"),
                FaultRule("store.clear", error="sqlite"),
            )),
        )
        try:
            store.put("k", "{}")
            assert store.stats()["entries"] == 0
            assert store.quarantined == 1
            store.put("k", "{}")
            store.clear()
            assert store.quarantined == 2
            assert len(store) == 0
        finally:
            store.close()
