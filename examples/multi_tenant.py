"""Multi-tenant operations: tokens, isolated namespaces, quotas, usage.

Walks the whole tenancy control plane in-process, exactly the flow an
operator runs with ``carbon3d tokens`` / ``carbon3d serve --tokens``:

1. issue two named tokens (an admin and a quota-limited CI bot),
2. submit the *same* design as both tenants — each gets its own
   namespaced store entry (no cross-tenant cache hits),
3. read per-tenant totals back from ``GET /usage``,
4. exhaust the CI bot's quota → typed 429 + ``Retry-After`` that never
   trips the client's circuit breaker,
5. revoke the bot's token → 401 on the next call.

Run:  python examples/multi_tenant.py
"""

import tempfile
import threading
from pathlib import Path

from repro import ChipDesign
from repro.service import ServiceClient, ServiceError, make_server
from repro.tenancy import TenantQuota, TokenRegistry

reference = ChipDesign.planar_2d(
    "my_soc_2d", node="7nm", gate_count=17e9, throughput_tops=254.0,
    efficiency_tops_per_w=2.74,
)
design = ChipDesign.homogeneous_split(reference, "hybrid_3d")

# Removed, token and store files included, once the server stops.
tmp = tempfile.TemporaryDirectory(prefix="carbon3d_")
workdir = Path(tmp.name)

# 1. The token registry — ops run `carbon3d tokens issue ...` against the
#    same SQLite file the server (or every fleet worker) reads.
registry = TokenRegistry(str(workdir / "tokens.sqlite3"))
acme_secret, acme = registry.issue("acme-edge", "acme", scopes=("admin",))
globex_secret, globex = registry.issue(
    "globex-ci", "globex", quota=TenantQuota(max_requests=3)
)
print(f"issued {acme.name} (tenant {acme.tenant}, admin)")
print(f"issued {globex.name} (tenant {globex.tenant}, "
      f"max_requests={globex.quota.max_requests})")

server = make_server(
    store_path=str(workdir / "store.sqlite3"), token_registry=registry
)
threading.Thread(target=server.serve_forever, daemon=True).start()
print(f"server listening on {server.url} (auth enforced)")

# 2. Same design, two tenants: the second tenant's identical request is
#    a *compute*, not a store hit — namespaces are disjoint.
acme_client = ServiceClient(server.url, token=acme_secret)
globex_client = ServiceClient(server.url, token=globex_secret, retries=0)

first = acme_client.evaluate(design)
again = acme_client.evaluate(design)
cross = globex_client.evaluate(design)
print(f"acme submit   : {first['result']['total_kg']:.3f} kg CO2e "
      f"(cache={first['cache']})")
print(f"acme repeat   : cache={again['cache']}")
print(f"globex same   : cache={cross['cache']}  <- isolated namespace")

# 3. Per-tenant accounting through GET /usage; the admin scope sees the
#    whole ledger (fleet-wide when workers share one store file).
report = acme_client.usage()
for tenant, usage in report["tenants"].items():
    print(f"usage {tenant:<8}: requests={usage['requests']} "
          f"points={usage['points']} computed={usage['computed']} "
          f"store_hits={usage['store_hits']}")

# 4. Quota exhaustion: globex has 3 requests lifetime (one spent above).
globex_client.evaluate(design)                 # 2 of 3
globex_client.evaluate(design)                 # 3 of 3
try:
    globex_client.evaluate(design)
except ServiceError as error:
    print(f"globex over quota: HTTP {error.status} "
          f"{error.error_type} (Retry-After {error.retry_after_s:g}s, "
          f"reason={error.payload.get('reason')})")
print(f"breaker state : {globex_client.breaker.state} "
      f"(429s are breaker-neutral)")

# 5. Revocation is immediate: the very next request answers 401.
registry.revoke("globex-ci")
try:
    globex_client.evaluate(design)
except ServiceError as error:
    print(f"after revoke  : HTTP {error.status} {error.error_type}")

acme_client.close()
globex_client.close()
server.close()
tmp.cleanup()
print("server stopped.")
