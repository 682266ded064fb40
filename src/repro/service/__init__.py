"""Carbon-as-a-service: a long-lived evaluation server over the engine.

The :mod:`repro.service` package turns the PR-1 batch engine into a
shared exploration *service* — the way ACT-style carbon tooling is used
inside an organization — instead of a library every consumer must import
and drive in-process:

* :mod:`~repro.service.schema` — versioned, strictly-validated JSON
  request/response formats (evaluate / batch / sweep / Monte-Carlo
  summary) with typed error payloads, reusing the CLI's design schema;
* :mod:`~repro.service.store` — a persistent, content-addressed result
  store (stdlib ``sqlite3``) keyed on SHA-256 digests of the engine's
  value fingerprints, so memoization survives process restarts; LRU
  eviction under the same :class:`repro.caching.EvictionPolicy` the
  in-memory engine caches use, with hit/miss statistics;
* :mod:`~repro.service.dispatcher` — request deduplication and
  coalescing: concurrent identical points share one
  :class:`repro.engine.BatchEvaluator` call, batches evaluate through
  ``evaluate_many``, and every computed payload feeds the store;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  stdlib-only threaded HTTP JSON API (``/evaluate``, ``/batch``,
  ``/sweep``, ``/montecarlo``, ``/compare``, ``/tornado``, ``/healthz``,
  ``/stats``; NDJSON point streams for ``"stream": true`` batch/sweep
  requests, optional per-tenant token auth) and a small Python
  client with bounded-backoff retries, wired into the CLI as
  ``carbon3d serve`` and ``carbon3d submit`` — and, one level up, into
  the :class:`repro.api.Session` facade;
* :mod:`~repro.service.fleet` — the pre-forked multi-worker front end
  (``carbon3d serve --workers N``): one listening socket bound by the
  parent, N forked workers sharing it, parent-side restart supervision,
  SIGTERM fan-out with graceful drain, and cross-process
  exactly-one-compute via the store's claim rows;
* :mod:`~repro.service.loadgen` — the concurrent keep-alive load
  harness (``carbon3d loadgen --url``) reporting p50/p99 latency, rps
  and per-design response digests for one running endpoint.

The service's speed is measured end to end by ``perfbench/`` against the
workloads ``BENCHMARK.json`` declares; ``BENCH_service.json`` is frozen
history that no code writes.

Multi-tenant operation rides on :mod:`repro.tenancy`: the server
resolves ``X-Carbon3D-Token`` against a SQLite
:class:`~repro.tenancy.tokens.TokenRegistry` (``carbon3d serve
--tokens`` / ``carbon3d tokens issue``), namespaces store keys per
tenant, enforces per-tenant quotas as typed 429s with ``Retry-After``
(breaker-neutral on the client, unlike the overload 503), and meters
per-tenant usage through the store — served by ``GET /usage`` and
``carbon3d usage``, fleet-wide.

Responses are **bit-identical** to ``CarbonModel.evaluate`` on the same
inputs: computed answers run the very same stage functions through the
engine, and stored answers round-trip through JSON, which preserves
floats exactly. A cold-restarted server therefore serves previously seen
requests from the store — hits increment, nothing re-resolves.

Quickstart (see ``examples/service_roundtrip.py`` for the full tour)::

    from repro.service import make_server, ServiceClient
    import threading

    server = make_server(store_path="carbon3d_store.sqlite3")
    threading.Thread(target=server.serve_forever, daemon=True).start()

    client = ServiceClient(server.url)
    envelope = client.evaluate(design_dict)     # or a ChipDesign
    print(envelope["cache"], envelope["result"]["total_kg"])
"""

from .client import ServiceClient, ServiceError
from .dispatcher import Dispatcher
from .fleet import ServiceFleet, resolve_worker_count
from .loadgen import run_load
from .schema import SCHEMA_VERSION, AuthError, SchemaError, parse_request
from .server import CarbonService, make_server, serve_forever
from .store import ResultStore, StoreError, content_key

__all__ = [
    "AuthError",
    "CarbonService",
    "Dispatcher",
    "ResultStore",
    "SCHEMA_VERSION",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "ServiceFleet",
    "StoreError",
    "content_key",
    "make_server",
    "parse_request",
    "resolve_worker_count",
    "run_load",
    "serve_forever",
]
