"""Multi-tenant control plane: tokens, namespaces, quotas, usage.

The tentpole guarantees under test:

* **Tokens.** The SQLite registry issues/revokes/rotates named, hashed
  tokens; a second connection (another process, by construction) sees
  every mutation; auth enforcement is monotonic — revoking the last
  token locks down. An anonymous-tenant token keeps the open server's
  store rows, and a row left by the retired ``serve --token`` never
  resolves but can be revoked.
* **Namespaces.** The anonymous namespace keeps the pre-tenancy store
  digests bit-for-bit (local/service parity, v3 adoption); named
  tenants hash to disjoint keys, so two tenants never share a store
  row for the same design.
* **Quotas.** Token buckets and ledger-backed absolute ceilings reject
  with a typed 429 + ``Retry-After`` — breaker-neutral on the client,
  unlike the overload 503.
* **Usage.** Per-tenant counters write through the store, so totals
  agree across every fleet worker and survive which worker answers
  ``GET /usage``.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.resilience.breaker import CircuitBreaker
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.fleet import ServiceFleet
from repro.service.store import ResultStore, content_key
from repro.tenancy import (
    ANONYMOUS_TENANT,
    QuotaExceededError,
    QuotaManager,
    TenantContext,
    TenantQuota,
    TokenBucket,
    TokenRegistry,
    UsageLedger,
    namespace_key,
    tenant_scope,
)


def design_payload(name="tenant_chip", gates=17e9) -> dict:
    return {
        "name": name,
        "integration": "hybrid_3d",
        "stacking": "f2f",
        "assembly": "d2w",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [
            {"name": "top", "node": "7nm", "gate_count": gates / 2,
             "workload_share": 0.5},
            {"name": "bottom", "node": "7nm", "gate_count": gates / 2,
             "workload_share": 0.5},
        ],
    }


class TestTokenRegistry:
    def test_issue_and_resolve(self, tmp_path):
        registry = TokenRegistry(str(tmp_path / "tk.sqlite3"))
        try:
            secret, record = registry.issue(
                "ci-bot", "acme", scopes=("admin",),
                quota=TenantQuota(rate_per_s=10.0),
            )
            assert secret.startswith("c3d_")
            resolved = registry.resolve(secret)
            assert resolved is not None
            assert resolved.tenant == "acme"
            assert resolved.scopes == ("admin",)
            assert resolved.quota.rate_per_s == 10.0
            assert resolved.id == record.id
            assert registry.resolve("c3d_ffffffff_nope") is None
            assert registry.resolve("garbage") is None
            assert registry.resolve("") is None
        finally:
            registry.close()

    def test_secret_is_never_stored(self, tmp_path):
        path = str(tmp_path / "tk.sqlite3")
        registry = TokenRegistry(path)
        secret, _ = registry.issue("ci-bot", "acme")
        registry.close()
        blob = (tmp_path / "tk.sqlite3").read_bytes()
        # The random half of the secret must not appear in the file.
        assert secret.split("_", 2)[2].encode() not in blob

    def test_revoke_by_name_and_reissue(self, tmp_path):
        registry = TokenRegistry(str(tmp_path / "tk.sqlite3"))
        try:
            secret, _ = registry.issue("ci-bot", "acme")
            with pytest.raises(ValueError, match="already exists"):
                registry.issue("ci-bot", "other")
            revoked = registry.revoke("ci-bot")
            assert not revoked.active
            assert registry.resolve(secret) is None
            # The name frees up for a fresh token once revoked.
            secret2, record2 = registry.issue("ci-bot", "acme")
            assert registry.resolve(secret2).id == record2.id
            with pytest.raises(KeyError):
                registry.revoke("never-existed")
        finally:
            registry.close()

    def test_rotate_kills_old_secret_in_place(self, tmp_path):
        registry = TokenRegistry(str(tmp_path / "tk.sqlite3"))
        try:
            old_secret, record = registry.issue(
                "edge", "acme", quota=TenantQuota(max_requests=5)
            )
            new_secret, rotated = registry.rotate("edge")
            assert rotated.id == record.id
            assert rotated.tenant == "acme"
            assert rotated.quota.max_requests == 5
            assert rotated.rotated is not None
            assert registry.resolve(old_secret) is None
            assert registry.resolve(new_secret).id == record.id
        finally:
            registry.close()

    def test_second_connection_sees_mutations(self, tmp_path):
        """The fleet contract: workers and the admin CLI share one file."""
        path = str(tmp_path / "tk.sqlite3")
        admin = TokenRegistry(path)
        worker = TokenRegistry(path)
        try:
            secret, _ = admin.issue("late-join", "acme")
            assert worker.resolve(secret) is not None
            admin.revoke("late-join")
            assert worker.resolve(secret) is None
        finally:
            admin.close()
            worker.close()

    def test_enforcement_is_monotonic(self, tmp_path):
        registry = TokenRegistry(str(tmp_path / "tk.sqlite3"))
        try:
            assert not registry.enforcing()
            registry.issue("only", "acme")
            assert registry.enforcing()
            registry.revoke("only")
            # Revoking the last token locks down; it never falls open.
            assert registry.enforcing()
        finally:
            registry.close()

    def test_format_version_mismatch_refuses(self, tmp_path):
        path = str(tmp_path / "tk.sqlite3")
        TokenRegistry(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'format_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="format 999"):
            TokenRegistry(path)


class TestNamespaceKeys:
    def test_anonymous_matches_pre_tenancy_key(self):
        value = ("evaluate", "fingerprint-text")
        assert namespace_key(value, ANONYMOUS_TENANT) == content_key(value)
        # No active context ⇒ anonymous.
        assert namespace_key(value) == content_key(value)

    def test_named_tenants_are_disjoint(self):
        value = ("evaluate", "fingerprint-text")
        acme = namespace_key(value, "acme")
        globex = namespace_key(value, "globex")
        anon = namespace_key(value, ANONYMOUS_TENANT)
        assert len({acme, globex, anon}) == 3
        # Deterministic per (tenant, value).
        assert namespace_key(value, "acme") == acme

    def test_context_scope_selects_the_namespace(self):
        value = ("evaluate", "fingerprint-text")
        with tenant_scope(TenantContext(tenant="acme")):
            assert namespace_key(value) == namespace_key(value, "acme")
        assert namespace_key(value) == content_key(value)


class TestQuota:
    def test_bucket_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(10.0, 20.0, clock=lambda: clock[0])
        ok, _ = bucket.try_acquire(20)
        assert ok
        ok, wait = bucket.try_acquire(5)
        assert not ok
        assert wait == pytest.approx(0.5)
        clock[0] += 0.5
        ok, _ = bucket.try_acquire(5)
        assert ok

    def test_oversized_charge_clamps_to_capacity(self):
        clock = [0.0]
        bucket = TokenBucket(10.0, 10.0, clock=lambda: clock[0])
        ok, _ = bucket.try_acquire(1_000_000)
        assert ok  # drains the bucket instead of rejecting forever
        ok, _ = bucket.try_acquire(1)
        assert not ok

    def test_quota_round_trip_and_unknown_field(self):
        quota = TenantQuota(rate_per_s=5.0, max_points=100)
        assert TenantQuota.from_dict(quota.to_dict()) == quota
        assert TenantQuota().unlimited
        with pytest.raises(ValueError, match="unknown quota fields"):
            TenantQuota.from_dict({"requests_per_day": 1})

    def test_absolute_request_ceiling_via_ledger(self):
        ledger = UsageLedger()
        ledger.record("acme", requests=3)
        manager = QuotaManager()
        quota = TenantQuota(max_requests=3)
        with pytest.raises(QuotaExceededError) as info:
            manager.admit("acme", quota, 1, usage=ledger)
        assert info.value.reason == "requests"
        assert info.value.retry_after_s >= 60.0
        # Another tenant with the same quota sails through.
        manager.admit("globex", quota, 1, usage=ledger)

    def test_rate_rejection_reason(self):
        clock = [0.0]
        manager = QuotaManager(clock=lambda: clock[0])
        quota = TenantQuota(rate_per_s=1.0, burst=1.0)
        manager.admit("acme", quota, 1)
        with pytest.raises(QuotaExceededError) as info:
            manager.admit("acme", quota, 1)
        assert info.value.reason == "rate"
        assert 0 < info.value.retry_after_s <= 1.0

    def test_unlimited_quota_never_rejects(self):
        manager = QuotaManager()
        for _ in range(100):
            manager.admit("acme", None, 10_000)
            manager.admit("acme", TenantQuota(), 10_000)


class TestUsageLedger:
    def test_local_mode_accumulates(self):
        ledger = UsageLedger()
        ledger.record("acme", requests=1, points=3)
        ledger.record("acme", points=2, bytes_out=100)
        assert ledger.total("acme", "points") == 5
        totals = ledger.totals("acme")
        assert totals["requests"] == 1
        assert totals["errors"] == 0
        with pytest.raises(ValueError, match="unknown usage fields"):
            ledger.record("acme", elephants=1)

    def test_write_through_aggregates_across_connections(self, tmp_path):
        """Two store handles on one file = two fleet workers."""
        path = str(tmp_path / "store.sqlite3")
        store_a = ResultStore(path)
        store_b = ResultStore(path)
        try:
            ledger_a = UsageLedger(store_a)
            ledger_b = UsageLedger(store_b)
            ledger_a.record("acme", requests=2, points=7)
            ledger_b.record("acme", requests=1, points=1)
            ledger_b.record("globex", requests=4)
            for ledger in (ledger_a, ledger_b):
                assert ledger.total("acme", "requests") == 3
                assert ledger.total("acme", "points") == 8
                assert ledger.all_totals()["globex"]["requests"] == 4
        finally:
            store_a.close()
            store_b.close()


@pytest.fixture()
def tenant_service(tmp_path):
    """A server enforcing a two-tenant registry on a persistent store."""
    registry = TokenRegistry(str(tmp_path / "tokens.sqlite3"))
    admin_secret, _ = registry.issue("acme-edge", "acme", scopes=("admin",))
    metered_secret, _ = registry.issue(
        "globex-ci", "globex", quota=TenantQuota(max_requests=2)
    )
    server = make_server(
        store_path=str(tmp_path / "store.sqlite3"), token_registry=registry
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, admin_secret, metered_secret
    finally:
        server.close()
        thread.join(timeout=5.0)
        registry.close()


class TestServerTenancy:
    def test_missing_or_bad_token_is_401(self, tenant_service):
        server, _, _ = tenant_service
        for token in (None, "c3d_ffffffff_wrong"):
            with ServiceClient(server.url, token=token, retries=0) as client:
                with pytest.raises(ServiceError) as info:
                    client.evaluate(design_payload())
                assert info.value.status == 401
                assert info.value.error_type == "AuthError"

    def test_health_and_metrics_stay_open(self, tenant_service):
        server, _, _ = tenant_service
        with ServiceClient(server.url, retries=0) as client:
            health = client.healthz()
        assert health["auth"] is True
        assert health["tenancy"] is True
        assert "/usage" in health["endpoints"]
        with urllib.request.urlopen(f"{server.url}/metrics") as resp:
            assert resp.status == 200

    def test_tenants_get_isolated_store_entries(self, tenant_service):
        """Same design, two tenants ⇒ two computes, two store rows."""
        server, admin_secret, metered_secret = tenant_service
        with ServiceClient(server.url, token=admin_secret) as acme:
            assert acme.evaluate(design_payload())["cache"] == "computed"
            assert acme.evaluate(design_payload())["cache"] == "store"
        with ServiceClient(server.url, token=metered_secret) as globex:
            # A shared namespace would answer "store" here.
            assert globex.evaluate(design_payload())["cache"] == "computed"

    def test_usage_scoped_to_tenant_admin_sees_all(self, tenant_service):
        server, admin_secret, metered_secret = tenant_service
        with ServiceClient(server.url, token=admin_secret) as acme:
            acme.evaluate(design_payload())
            report = acme.usage()
        assert report["tenant"] == "acme"
        assert report["usage"]["requests"] == 1
        assert report["usage"]["computed"] == 1
        assert "acme" in report["tenants"]  # admin scope
        with ServiceClient(server.url, token=metered_secret) as globex:
            globex.evaluate(design_payload())
            report = globex.usage()
        assert report["tenant"] == "globex"
        assert "tenants" not in report  # no admin scope
        # The body reflects work flushed before this /usage request.
        assert report["usage"]["requests"] == 1
        assert report["usage"]["bytes_out"] > 0

    def test_quota_exhaustion_is_typed_429(self, tenant_service):
        server, admin_secret, metered_secret = tenant_service
        with ServiceClient(
            server.url, token=metered_secret, retries=0
        ) as globex:
            globex.evaluate(design_payload())
            globex.usage()  # /usage is billed too: 2 of 2 used
            with pytest.raises(ServiceError) as info:
                globex.evaluate(design_payload())
            assert info.value.status == 429
            assert info.value.error_type == "QuotaExceededError"
            assert info.value.retry_after_s >= 60.0
            assert info.value.payload["retry_after_s"] >= 60.0
        # The other tenant is untouched by globex's exhaustion.
        with ServiceClient(server.url, token=admin_secret, retries=0) as acme:
            acme.evaluate(design_payload())
        # Rejections are billed as quota_rejected, not errors/requests.
        usage = server.dispatcher.usage.totals("globex")
        assert usage["requests"] == 2
        assert usage["quota_rejected"] >= 1
        assert usage["errors"] == 0

    def test_429_is_breaker_neutral_503_is_not(self, tenant_service):
        """The satellite pin: quota rejections never trip the breaker."""
        server, _, metered_secret = tenant_service
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        with ServiceClient(
            server.url, token=metered_secret, retries=0, breaker=breaker
        ) as globex:
            globex.evaluate(design_payload())
            globex.evaluate(design_payload(gates=18e9))
            for _ in range(3):
                with pytest.raises(ServiceError) as info:
                    globex.evaluate(design_payload())
                assert info.value.status == 429
            assert breaker.state == CircuitBreaker.CLOSED
            # Sanity: one transport failure would open this breaker.
            breaker.record_failure()
            assert breaker.state != CircuitBreaker.CLOSED

    def test_client_retries_429_after_retry_after(self, tenant_service):
        """A refillable rate rejection heals within the retry loop."""
        server, admin_secret, _ = tenant_service
        secret, _ = server.tokens.issue(
            "burst", "burst", quota=TenantQuota(rate_per_s=50.0, burst=1.0)
        )
        with ServiceClient(
            server.url, token=secret, retries=2, backoff_s=0.0
        ) as client:
            # Burst capacity 1: back-to-back singles only succeed if the
            # client waits out Retry-After (~20ms) and resends.
            assert client.evaluate(design_payload())["result"]
            assert client.evaluate(design_payload())["result"]

    def test_metrics_carry_tenant_labels(self, tenant_service):
        server, admin_secret, metered_secret = tenant_service
        with ServiceClient(server.url, token=admin_secret) as acme:
            acme.evaluate(design_payload())
        with urllib.request.urlopen(f"{server.url}/metrics") as resp:
            text = resp.read().decode()
        assert 'carbon3d_tenant_requests_total{tenant="acme"} 1' in text
        assert 'carbon3d_tenant_points_total{tenant="acme"} 1' in text

    def test_stats_includes_tenant_breakdown(self, tenant_service):
        server, admin_secret, _ = tenant_service
        with ServiceClient(server.url, token=admin_secret) as acme:
            acme.evaluate(design_payload())
            stats = acme.stats()
        assert stats["tenants"]["acme"]["points"] == 1


def seed_retired_secret_row(path: str, secret: str) -> None:
    """Write the row the retired ``serve --token SECRET`` seeded."""
    salt = hashlib.sha256(f"legacy-salt:{secret}".encode()).hexdigest()[:16]
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT INTO tokens (id, name, tenant, scopes, quota, salt, "
        "token_hash, created) VALUES (?, ?, ?, '[]', NULL, ?, ?, ?)",
        (
            hashlib.sha256(f"legacy-id:{secret}".encode()).hexdigest()[:8],
            "legacy-shared-secret",
            ANONYMOUS_TENANT,
            salt,
            hashlib.sha256(f"{salt}:{secret}".encode()).hexdigest(),
            time.time(),
        ),
    )
    conn.commit()
    conn.close()


class TestLegacySharedSecret:
    def test_anonymous_token_keeps_the_open_store_rows(
        self, tmp_path, capsys
    ):
        """The migration off ``serve --token``: same namespace, store hits."""
        store_path = str(tmp_path / "store.sqlite3")
        tokens_path = str(tmp_path / "tokens.sqlite3")
        server = make_server(store_path=store_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url) as client:
                assert client.evaluate(design_payload())["cache"] == "computed"
        finally:
            server.close()
            thread.join(timeout=5.0)
        assert cli_main(
            ["tokens", "--tokens", tokens_path, "issue", "migrated",
             "--tenant", ANONYMOUS_TENANT, "--json"]
        ) == 0
        secret = json.loads(capsys.readouterr().out)["secret"]
        server = make_server(store_path=store_path, tokens_path=tokens_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url, retries=0) as bare:
                with pytest.raises(ServiceError) as info:
                    bare.evaluate(design_payload())
                assert info.value.status == 401
            with ServiceClient(server.url, token=secret) as client:
                assert client.evaluate(design_payload())["cache"] == "store"
                report = client.usage()
            assert report["tenant"] == ANONYMOUS_TENANT
            # The usage ledger lives in the store too: the count goes on
            # from the open server's request.
            assert report["usage"]["requests"] == 2
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_retired_secret_row_enforces_never_resolves_and_revokes(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "tokens.sqlite3")
        TokenRegistry(path).close()
        seed_retired_secret_row(path, "open-sesame")
        registry = TokenRegistry(path)
        try:
            assert registry.enforcing()
            (row,) = registry.list()
            assert (row.name, row.tenant, row.active) == (
                "legacy-shared-secret", ANONYMOUS_TENANT, True
            )
            assert registry.resolve("open-sesame") is None
            server = make_server(token_registry=registry)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                with ServiceClient(
                    server.url, token="open-sesame", retries=0
                ) as client:
                    with pytest.raises(ServiceError) as info:
                        client.evaluate(design_payload())
                    assert info.value.status == 401
            finally:
                server.close()
                thread.join(timeout=5.0)
            assert cli_main(
                ["tokens", "--tokens", path, "revoke",
                 "legacy-shared-secret"]
            ) == 0
            capsys.readouterr()
            assert registry.list(include_revoked=False) == []
            assert registry.enforcing()
        finally:
            registry.close()

    def test_token_keyword_is_gone(self):
        with pytest.raises(TypeError, match="token"):
            make_server(token="open-sesame")

    def test_open_server_needs_no_token(self, tmp_path):
        server = make_server(store_path=str(tmp_path / "store.sqlite3"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url) as client:
                assert client.evaluate(design_payload())["cache"] == "computed"
                report = client.usage()
            assert report["tenant"] == ANONYMOUS_TENANT
            # An open server has no auth boundary: all totals visible.
            assert ANONYMOUS_TENANT in report["tenants"]
            health = client.healthz()
            assert health["auth"] is False
        finally:
            server.close()
            thread.join(timeout=5.0)


class TestStoreMigration:
    def _rewrite_version(self, path: str, version: str) -> None:
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'format_version'",
            (version,),
        )
        conn.commit()
        conn.close()

    def test_v3_store_is_adopted_into_anonymous_namespace(self, tmp_path):
        path = str(tmp_path / "store.sqlite3")
        store = ResultStore(path)
        key = content_key(("evaluate", "pre-tenancy-fingerprint"))
        store.put(key, '"cached-result"')
        store.close()
        self._rewrite_version(path, "3")

        store = ResultStore(path)
        try:
            assert store.adopted == "3"
            # The pre-tenancy row serves the anonymous namespace...
            assert store.get(key) == '"cached-result"'
            # ...whose key is exactly what anonymous requests compute.
            assert namespace_key(
                ("evaluate", "pre-tenancy-fingerprint"), ANONYMOUS_TENANT
            ) == key
            # Named tenants hash elsewhere: no wrong-tenant serves.
            assert store.get(namespace_key(
                ("evaluate", "pre-tenancy-fingerprint"), "acme"
            )) is None
        finally:
            store.close()

    def test_pre_v3_store_is_wiped(self, tmp_path):
        path = str(tmp_path / "store.sqlite3")
        store = ResultStore(path)
        key = content_key(("evaluate", "ancient-fingerprint"))
        store.put(key, '"stale"')
        store.close()
        self._rewrite_version(path, "2")

        store = ResultStore(path)
        try:
            assert store.adopted is None
            assert store.get(key) is None
        finally:
            store.close()

    def test_adopted_store_serves_anonymous_hits_end_to_end(self, tmp_path):
        """Warm a pre-tenancy store, reopen under v4, hit it over HTTP."""
        path = str(tmp_path / "store.sqlite3")
        server = make_server(store_path=path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(server.url) as client:
            assert client.evaluate(design_payload())["cache"] == "computed"
        server.close()
        thread.join(timeout=5.0)
        self._rewrite_version(path, "3")

        server = make_server(store_path=path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert server.store.adopted == "3"
            with ServiceClient(server.url) as client:
                assert client.evaluate(design_payload())["cache"] == "store"
        finally:
            server.close()
            thread.join(timeout=5.0)


class TestFleetTenancy:
    """Two forked workers, one registry file, one usage ledger."""

    @staticmethod
    def _issue(capsys, tokens_path: str, *args: str) -> str:
        """Issue a token through the admin CLI; return the secret."""
        assert cli_main(
            ["tokens", "--tokens", tokens_path, "issue", *args, "--json"]
        ) == 0
        return json.loads(capsys.readouterr().out)["secret"]

    @staticmethod
    def _request(url: str, token: str, path: str, payload: "dict | None"):
        """One fresh-connection exchange → (status, body, headers).

        Fresh connections (no keep-alive pool) let consecutive requests
        land on either forked worker, which is exactly what the
        fleet-agreement assertions want to exercise.
        """
        data = None
        if payload is not None:
            data = json.dumps(dict(payload, schema=1)).encode()
        request = urllib.request.Request(
            f"{url}{path}", data=data,
            headers={
                "Content-Type": "application/json",
                "X-Carbon3D-Token": token,
                "Connection": "close",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.load(resp), dict(resp.headers)
        except urllib.error.HTTPError as error:
            body = json.loads(error.read().decode())
            return error.code, body, dict(error.headers)

    def test_cli_issued_tokens_quota_and_usage_across_workers(
        self, tmp_path, capsys
    ):
        tokens_path = str(tmp_path / "tokens.sqlite3")
        acme = self._issue(
            capsys, tokens_path, "acme-edge", "--tenant", "acme",
            "--scopes", "admin",
        )
        globex = self._issue(
            capsys, tokens_path, "globex-ci", "--tenant", "globex",
            "--max-requests", "3",
        )
        fleet = ServiceFleet(
            workers=2, store_path=str(tmp_path / "fleet.sqlite3"),
            tokens_path=tokens_path, poll_interval_s=0.05,
        )
        fleet.start()
        try:
            evaluate = {
                "type": "evaluate", "design": design_payload(),
                "workload": "av",
            }
            # A CLI-issued token is accepted on every fresh connection
            # (requests spread over both forked workers).
            tags = []
            for _ in range(4):
                status, body, _ = self._request(
                    fleet.url, acme, "/evaluate", evaluate
                )
                assert status == 200
                tags.append(body["cache"])
            # Exactly one compute fleet-wide, the rest store hits.
            assert tags[0] == "computed"
            assert tags.count("computed") == 1

            # Same design, other tenant: isolated namespace ⇒ its own
            # compute, whichever worker serves it.
            status, body, _ = self._request(
                fleet.url, globex, "/evaluate", evaluate
            )
            assert status == 200
            assert body["cache"] == "computed"

            # The absolute quota is ledger-backed, so it binds across
            # workers: globex used 1 of 3 requests; two more succeed,
            # then a typed 429 + Retry-After — while acme sails on.
            for _ in range(2):
                status, _, _ = self._request(
                    fleet.url, globex, "/evaluate", evaluate
                )
                assert status == 200
            status, body, headers = self._request(
                fleet.url, globex, "/evaluate", evaluate
            )
            assert status == 429
            assert body["error"]["type"] == "QuotaExceededError"
            assert float(headers["Retry-After"]) >= 60.0
            status, _, _ = self._request(
                fleet.url, acme, "/evaluate", evaluate
            )
            assert status == 200

            # Usage totals agree no matter which worker answers.
            answers = []
            for _ in range(4):
                status, body, _ = self._request(
                    fleet.url, acme, "/usage", None
                )
                assert status == 200
                answers.append(body["result"]["tenants"]["globex"])
            assert all(answer == answers[0] for answer in answers)
            assert answers[0]["requests"] == 3
            assert answers[0]["quota_rejected"] == 1
        finally:
            fleet.close()
