"""Persistent, content-addressed result store (SQLite, stdlib-only).

The store maps a **content key** — the SHA-256 digest of a canonical
rendering of the engine's value fingerprints (see
:func:`canonical_text`) — to the JSON payload of a finished evaluation.
Because the key is derived from the *values* a pipeline stage reads (the
frozen parameter records, the design, the workload, the grid carbon
intensities) plus the id of the carbon backend that computed them, two
requests share an entry exactly when the engine could not distinguish
them — the same sharing rule :mod:`repro.pipeline.fingerprint` applies
in-process, made durable.

Unlike Python's ``hash()`` (randomized per process for strings), the
digest is stable across interpreter sessions, so a server restart keeps
serving from the store instead of recomputing — the ROADMAP's
"cross-session cache persistence" follow-up.

Eviction follows the same :class:`repro.caching.EvictionPolicy` the
engine's in-memory caches use — LRU up to ``max_entries`` — implemented
over a monotonically increasing ``last_used`` clock column (batched
deletes amortize the SQL cost). Hit/miss/eviction statistics are kept
per instance and, cumulatively, in the database itself.

**Claim rows.** Because the database file is shared across the
pre-forked worker fleet, it doubles as the cross-process coordination
point for the dispatcher's exactly-one-compute guarantee: short-lived
rows in the ``claims`` table mark keys a worker is computing *right
now* (claim → compute → publish → release). Claims carry a TTL, so a
worker killed mid-claim never wedges a key — the stale row is swept on
the next contested :meth:`ResultStore.try_claim` and another worker
recomputes (bit-identically, by the engine's determinism contract).

**Self-healing.** The store is a cache of recomputable results, which
makes the aggressive recovery policy safe: a database that fails its
open-time ``PRAGMA quick_check`` — or turns corrupt at runtime — is
*quarantined* (renamed aside to ``<name>.corrupt``, WAL/SHM sidecars
included, for post-mortem) and a fresh one is built in its place; every
lost entry costs exactly one recomputation. Transient ``SQLITE_BUSY``
contention is retried a bounded number of times with a small backoff
before surfacing as a typed :class:`StoreError`.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sqlite3
import sys
import threading
import time
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from pathlib import Path

from ..caching import EvictionPolicy
from ..config.table import RecordTable
from ..errors import CarbonModelError
from ..pipeline.fingerprint import CachedKey
from ..resilience.faults import resolve_injector

#: Bump when the canonical encoding or stored payload shape changes; a
#: mismatched database is cleared rather than served.
#: v2: content keys carry the carbon-backend id (the backend-protocol
#: refactor), so a v1 store — keyed without one — is cleared.
#: v3: Monte-Carlo keys carry the backend's own factor-set fingerprint
#: (per-backend uncertainty), and baseline store fingerprints pin model
#: constants (LCA ``cpa_scale``, first-order coefficients) — a v2 store,
#: keyed on the shared Table 2 factors whatever the backend, could serve
#: stale per-backend results and is rebuilt instead.
#: v4: keys are tenant-namespaced (see :mod:`repro.tenancy.namespace`).
#: The anonymous/legacy namespace keeps the *unsalted* v3 digest
#: byte-for-byte, so a v3 store is **adopted** — its rows become the
#: anonymous namespace, which is exactly who wrote them — rather than
#: wiped; named tenants hash to disjoint keys a v3 store cannot contain,
#: so adoption can never serve a wrong-tenant result.
STORE_FORMAT_VERSION = 4

#: Prior versions whose rows remain valid under the current format
#: (mapped into the anonymous namespace); anything else is wiped.
_ADOPTABLE_VERSIONS = ("3",)


class StoreError(CarbonModelError):
    """The result store cannot serve (corrupt file, closed handle, ...)."""


def canonical_text(value, records: "dict | None" = None) -> str:
    """A deterministic, session-stable rendering of a fingerprint value.

    Handles exactly the shapes pipeline fingerprints are made of — frozen
    dataclasses, enums, tuples/lists, dicts, strings, numbers, ``None``
    and :class:`~repro.pipeline.fingerprint.CachedKey` wrappers — and
    refuses anything else (a silent fallback would risk two different
    requests sharing a key). Floats render via ``repr``, which
    round-trips exactly.

    ``records`` is an optional :func:`record_texts` table: a frozen
    record found in it (by identity) contributes its already-rendered
    text instead of being walked again. The result is the same string
    either way.

    The text is made in one flat pass: each type has one renderer (see
    :data:`_RENDERERS`), which appends its pieces to one list, handing
    each member of a container or record to its own type's renderer;
    the pieces are joined once at the end. So a deep fingerprint is
    neither rendered by one call of this function per node nor copied
    once per level of nesting.
    """
    cls = type(value)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        return leaf(value)
    out: "list[str]" = []
    _RENDERERS[cls](value, records, out)
    return "".join(out)


def _sequence_text(value, records, out: list) -> None:
    # Leaves inline, as ``_MEMBER`` renders a record's fields.
    append = out.append
    sep = "("
    for item in value:
        leaf = _LEAVES.get(type(item))
        if leaf is not None:
            append(sep + leaf(item))
        else:
            append(sep)
            _RENDERERS[type(item)](item, records, out)
        sep = ","
    append(")" if sep == "," else "()")


def _mapping_text(value, records, out: list) -> None:
    items = sorted(
        (canonical_text(k, records), canonical_text(v, records))
        for k, v in value.items()
    )
    out.append("{" + ",".join(f"{k}:{v}" for k, v in items) + "}")


def _cached_key_text(value, records, out: list) -> None:
    inner = value.value
    _RENDERERS[type(inner)](inner, records, out)


def _enum_text(cls: type):
    prefix = f"{cls.__name__}."

    def text(value) -> str:
        # ``_name_`` is what the ``name`` property returns, minus the
        # descriptor call.
        return prefix + value._name_

    return text


#: Source of the expression that renders a record's member ``v``: a
#: leaf inline, any other type through :func:`canonical_text`.
_MEMBER = (
    '"None" if v is None else leaf(v)'
    " if (leaf := _LEAVES.get(type(v))) is not None"
    " else canonical_text(v, records)"
)


def _dataclass_renderer(cls: type):
    """The renderer of one record type, generated from its fields.

    It renders ``Name(field=text,...)`` in field order, or takes the
    text of a record found (by identity) in ``records``. Its source is
    written out per type, as :mod:`dataclasses` writes ``__init__``: it
    reads each field, renders it as :data:`_MEMBER` says, and formats
    the record in one f-string.
    """
    names = [f.name for f in dataclass_fields(cls)]
    body = "".join(
        f"    v = value.{name}\n    t{index} = {_MEMBER}\n"
        for index, name in enumerate(names)
    )
    text = ",".join(
        f"{name}={{t{index}}}" for index, name in enumerate(names)
    )
    source = (
        "def render(value, records, out):\n"
        "    if records is not None:\n"
        "        entry = records.get(id(value))\n"
        "        if entry is not None and entry[0] is value:\n"
        "            out.append(entry[1])\n"
        "            return\n"
        f"{body}"
        f"    out.append(f{cls.__name__ + '(' + text + ')'!r})\n"
    )
    namespace = {"_LEAVES": _LEAVES, "canonical_text": canonical_text}
    exec(source, namespace)
    return namespace["render"]


def _renderer_for(cls: type):
    """The renderer of values of type ``cls`` (StoreError if none).

    Checked in this order, so a type that is two things at once (a
    ``str`` enum, a ``bool``) renders as the first. A type whose text
    needs no walk (a number, string, enum or ``None``) is also entered
    in :data:`_LEAVES`.
    """
    if cls in (type(None), bool, int, float):
        leaf = repr
    elif cls is str:
        leaf = _json_string
    elif issubclass(cls, CachedKey):
        return _cached_key_text
    elif issubclass(cls, enum.Enum):
        leaf = _enum_text(cls)
    elif issubclass(cls, str):
        leaf = json.dumps
    elif issubclass(cls, (int, float)):
        leaf = repr
    elif issubclass(cls, (tuple, list)):
        return _sequence_text
    elif issubclass(cls, dict):
        return _mapping_text
    elif is_dataclass(cls):
        return _dataclass_renderer(cls)
    else:
        raise StoreError(
            f"cannot canonically encode {cls.__name__!r} into a content key"
        )
    _LEAVES[cls] = leaf
    return lambda value, records, out: out.append(leaf(value))


class _Renderers(dict):
    """Type → ``render(value, records, out)``, which appends the value's
    text to the list ``out``; filled on a type's first use."""

    def __missing__(self, cls: type):
        render = self[cls] = _renderer_for(cls)
        return render


#: The renderer of every type :func:`canonical_text` has rendered.
_RENDERERS = _Renderers()

#: ``json.dumps`` of a plain ``str``, minus the encoder set-up per call.
_json_string = json.encoder.encode_basestring_ascii

#: Type → ``text(value)`` for the types whose text needs no walk and no
#: ``records``: filled as :data:`_RENDERERS` is.
_LEAVES = {
    type(None): repr, bool: repr, int: repr, float: repr, str: _json_string,
}


def content_key(value, records: "dict | None" = None) -> str:
    """SHA-256 digest of :func:`canonical_text` — the store's address."""
    return hashlib.sha256(
        canonical_text(value, records).encode("utf-8")
    ).hexdigest()


def _immutable(value) -> bool:
    """Whether ``value``'s canonical text can never change."""
    if value is None or isinstance(value, (str, int, float, enum.Enum)):
        return True
    if type(value) is tuple:
        return all(_immutable(item) for item in value)
    return (
        is_dataclass(value)
        and not isinstance(value, type)
        and type(value).__dataclass_params__.frozen
        and all(
            _immutable(getattr(value, f.name))
            for f in dataclass_fields(value)
        )
    )


def _frozen_records(params) -> "dict[int, object]":
    """Every deeply immutable record reachable from ``params``, by id.

    Walks the parameter set's fields, its lookup tables' records and
    the records' own fields. (The set itself holds tables, which are not
    dataclasses, so it is walked but never taken.)
    """
    found: "dict[int, object]" = {}
    seen: "set[int]" = set()
    stack = [params]
    while stack:
        value = stack.pop()
        if is_dataclass(value) and not isinstance(value, type):
            if id(value) in seen:
                continue
            seen.add(id(value))
            if _immutable(value):
                found[id(value)] = value
            stack.extend(getattr(value, f.name) for f in dataclass_fields(value))
        elif isinstance(value, RecordTable):
            stack.extend(value)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
    return found


def record_texts(params) -> "dict[int, tuple[object, str]]":
    """The rendered canonical text of ``params``' frozen records.

    Maps ``id(record)`` → ``(record, canonical_text(record))`` for every
    deeply immutable record the parameter set reaches — process nodes,
    integration specs, bonding and package records, the substrate/M3D/
    bandwidth blocks. Pass it as ``records=`` to :func:`canonical_text`,
    :func:`content_key` or :func:`repro.tenancy.namespace_key`: the
    records a fingerprint takes from the set then cost one lookup each
    instead of a fresh rendering.

    Entries are keyed by identity and checked with ``is``, never by
    value — equal-comparing records may render differently (``1.0``
    versus ``1``). Only deeply immutable records are taken, so a
    record's text never goes stale. The table holds the records but not
    the set; whoever keeps the set keeps its table beside it (the
    dispatcher builds one when it is constructed). The set's tables
    never change in place: a study that changes a record builds a new
    set, and a record that is not in this table is rendered on every
    use.
    """
    return {
        key: (record, canonical_text(record))
        for key, record in _frozen_records(params).items()
    }


_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key       TEXT PRIMARY KEY,
    payload   TEXT NOT NULL,
    created   REAL NOT NULL,
    last_used INTEGER NOT NULL,
    use_count INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_results_last_used ON results (last_used);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    key     TEXT PRIMARY KEY,
    owner   TEXT NOT NULL,
    expires REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS usage (
    tenant  TEXT NOT NULL,
    field   TEXT NOT NULL,
    value   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (tenant, field)
);
"""

#: SQLite sidecar files that must travel with a quarantined database —
#: a WAL left behind would replay stale (possibly corrupt) pages into
#: the freshly rebuilt file.
_SIDECAR_SUFFIXES = ("-wal", "-shm")


def _is_busy(error: sqlite3.OperationalError) -> bool:
    """Whether an OperationalError is SQLITE_BUSY/SQLITE_LOCKED contention."""
    message = str(error).lower()
    return "locked" in message or "busy" in message


class ResultStore:
    """SQLite-backed content-addressed cache of finished evaluations.

    ``path`` may be ``":memory:"`` (tests) or a filesystem path; the
    connection is shared across the server's request threads behind one
    lock (evaluations dominate request cost by orders of magnitude, so a
    single writer is not a throughput concern).

    ``faults`` accepts a :class:`~repro.resilience.FaultPlan` (or
    injector) whose ``store.*`` rules fire inside the real error-handling
    paths — the quarantine, busy-retry and close branches are exercised
    by injection, not just by luck. ``busy_retries``/``busy_backoff_s``
    bound the retry-on-contention loop.
    """

    def __init__(
        self,
        path: "str | Path" = ":memory:",
        max_entries: int = 100_000,
        policy: "EvictionPolicy | None" = None,
        faults=None,
        busy_retries: int = 5,
        busy_backoff_s: float = 0.05,
    ) -> None:
        self.path = str(path)
        self.policy = (
            policy if policy is not None
            else EvictionPolicy.for_store(max_entries)
        )
        self.faults = resolve_injector(faults)
        self.busy_retries = max(0, busy_retries)
        self.busy_backoff_s = max(0.0, busy_backoff_s)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Recovery counters: databases quarantined (open-time integrity
        #: failure or runtime corruption) and busy retries taken.
        self.quarantined = 0
        self.busy_retried = 0
        #: Set to the prior format-version string when this open adopted
        #: a pre-tenancy database into the anonymous namespace.
        self.adopted: "str | None" = None
        #: Lifetime counters accumulate in memory and flush to the meta
        #: table lazily (stats/close, or every
        #: :data:`FLUSH_PENDING_EVERY` observations) — a per-probe
        #: UPSERT would triple the SQL of every cache lookup for pure
        #: bookkeeping. Because the meta table lives in the shared
        #: database file, the flushed counters are *fleet-wide*: every
        #: pre-forked worker accumulates into the same rows, so any one
        #: worker's ``/stats`` reports the whole fleet's story (modulo
        #: up to ``FLUSH_PENDING_EVERY - 1`` not-yet-flushed probes per
        #: peer).
        self._pending = {"hits": 0, "misses": 0, "evictions": 0}
        #: LRU touches ``(clock, key)`` of hits not yet written. They go
        #: first into this handle's next write transaction (so its own
        #: evictions always see them), or out with the lifetime flush.
        self._touches: "list[tuple[int, str]]" = []
        #: Per-tenant usage totals as last read, plus this handle's own
        #: committed deltas since; valid while ``PRAGMA data_version``
        #: still reads ``_usage_version`` (no other connection has
        #: committed), so quota admission reads memory, not SQL.
        self._usage: "dict[str, dict[str, int]]" = {}
        self._usage_version: "int | None" = None
        self._lock = threading.Lock()
        with self._lock:
            self._open_checked()

    # -- connection lifecycle (caller holds the lock) ------------------------

    def _open_raw(self) -> None:
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open result store at {self.path!r}: {error}"
            ) from error

    def _verify_and_init(self) -> None:
        """Pragmas, integrity check, schema, version — on a raw connection.

        Raises :class:`sqlite3.DatabaseError` when the file is not a
        healthy database (including a failed ``quick_check``) so the
        caller can quarantine and rebuild.
        """
        if self.faults.active:
            self.faults.hit("store.open")
        conn = self._conn
        # A cache may trade durability-on-crash for lookup latency:
        # losing an entry only costs a recomputation.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute(
            f"PRAGMA busy_timeout={int(self.busy_backoff_s * 1000)}"
        )
        row = conn.execute("PRAGMA quick_check").fetchone()
        verdict = "" if row is None else str(row[0])
        if verdict.lower() != "ok":
            raise sqlite3.DatabaseError(
                f"integrity check failed: {verdict or 'no result'}"
            )
        conn.executescript(_SCHEMA_SQL)
        version = self._meta_get("format_version")
        if version is None:
            self._meta_set("format_version", str(STORE_FORMAT_VERSION))
        elif version in _ADOPTABLE_VERSIONS:
            # Pre-tenancy rows carry the anonymous namespace's exact
            # keys; adopt them in place instead of recomputing a warm
            # cache from scratch.
            self.adopted = version
            self._meta_set("format_version", str(STORE_FORMAT_VERSION))
        elif version != str(STORE_FORMAT_VERSION):
            # A stale format cannot be trusted to share keys; start over.
            conn.execute("DELETE FROM results")
            self._meta_set("format_version", str(STORE_FORMAT_VERSION))
        row = conn.execute(
            "SELECT COALESCE(MAX(last_used), 0) FROM results"
        ).fetchone()
        self._clock = int(row[0])
        conn.commit()

    def _open_checked(self) -> None:
        """Open + verify, quarantining a corrupt database once."""
        self._open_raw()
        try:
            self._verify_and_init()
        except sqlite3.DatabaseError as error:
            self._quarantine(error)
            self._verify_and_init()

    def _quarantine(self, error: BaseException) -> None:
        """Move the corrupt database aside and rebuild a fresh one.

        The quarantined file keeps its bytes for post-mortem under
        ``<name>.corrupt`` (numeric suffix when that exists already);
        WAL/SHM sidecars travel with it so the rebuilt store cannot
        replay their pages.
        """
        try:
            self._conn.close()
        except sqlite3.Error:
            pass
        if self.path != ":memory:":
            base = Path(self.path)
            target = base.with_name(base.name + ".corrupt")
            ordinal = 0
            while target.exists():
                ordinal += 1
                target = base.with_name(f"{base.name}.corrupt.{ordinal}")
            try:
                base.rename(target)
            except OSError:
                # Last resort: a file that cannot even be renamed must
                # not stay in the store's path.
                base.unlink(missing_ok=True)
            for suffix in _SIDECAR_SUFFIXES:
                sidecar = Path(self.path + suffix)
                if sidecar.exists():
                    try:
                        sidecar.rename(Path(str(target) + suffix))
                    except OSError:
                        sidecar.unlink(missing_ok=True)
            print(
                f"[carbon3d] result store corrupt ({error}); quarantined "
                f"to {target} and rebuilding",
                file=sys.stderr,
                flush=True,
            )
        self.quarantined += 1
        self._touches.clear()
        self._usage.clear()
        self._open_raw()

    def _run(self, site: str, op):
        """Execute ``op`` with bounded busy retries and corruption healing.

        Caller holds the lock. ``SQLITE_BUSY``-style contention retries
        up to ``busy_retries`` times with linear backoff; any other
        :class:`sqlite3.DatabaseError` quarantines the database and runs
        ``op`` once against the rebuilt store (a cache may always start
        cold). Persistent failures surface as typed :class:`StoreError`.
        """
        attempts = 0
        healed = False
        while True:
            try:
                if self.faults.active:
                    self.faults.hit(site)
                return op()
            except sqlite3.OperationalError as error:
                if _is_busy(error) and attempts < self.busy_retries:
                    attempts += 1
                    self.busy_retried += 1
                    self._rollback()
                    time.sleep(self.busy_backoff_s * attempts)
                    continue
                if not _is_busy(error) and not healed:
                    healed = True
                    self._quarantine(error)
                    self._verify_and_init()
                    continue
                self._rollback()
                raise StoreError(
                    f"result store failed on {site}: {error}"
                ) from error
            except sqlite3.DatabaseError as error:
                if healed:
                    self._rollback()
                    raise StoreError(
                        f"result store failed on {site} after rebuild: "
                        f"{error}"
                    ) from error
                healed = True
                self._quarantine(error)
                self._verify_and_init()

    def _rollback(self) -> None:
        """Drop a failed transaction, so no later commit carries it."""
        try:
            self._conn.rollback()
        except sqlite3.Error:
            pass

    def _write(self, site: str, op):
        """:meth:`_run` ``op`` as one write transaction, then COMMIT.

        Pending LRU touches are written first in the transaction and
        dropped once it commits. Caller holds the lock.
        """

        def transaction():
            self._write_touches()
            result = op()
            self._conn.commit()
            return result

        result = self._run(site, transaction)
        self._touches.clear()
        return result

    def _write_touches(self) -> None:
        if self._touches:
            self._conn.executemany(
                "UPDATE results SET last_used = ?, use_count = use_count + 1 "
                "WHERE key = ?",
                self._touches,
            )

    # -- meta helpers (caller holds the lock) -------------------------------

    def _meta_get(self, key: str) -> "str | None":
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _meta_set(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    #: Flush pending lifetime counters to the shared meta table after
    #: this many un-flushed observations — frequent enough that a peer
    #: worker's ``/stats`` sees near-live fleet-wide counters, rare
    #: enough that the amortized SQL cost per lookup stays negligible.
    FLUSH_PENDING_EVERY = 32

    #: Keys per ``SELECT ... IN`` statement of :meth:`get_many`, well
    #: under SQLite's bound on bound parameters (999 before 3.32).
    IN_CHUNK = 500

    def _flush_lifetime(self) -> None:
        """Pending touches and lifetime counters, in one transaction.

        On an error the transaction is rolled back and everything stays
        pending for the next flush.
        """
        try:
            self._write_touches()
            for name, amount in self._pending.items():
                if amount:
                    current = self._meta_get(f"lifetime_{name}")
                    self._meta_set(
                        f"lifetime_{name}",
                        str((int(current) if current else 0) + amount),
                    )
            self._conn.commit()
        except sqlite3.Error:
            self._rollback()
            raise
        self._touches.clear()
        self._pending = dict.fromkeys(self._pending, 0)

    def _maybe_flush_lifetime(self) -> None:
        """Flush inside the caller's lock once enough probes piled up."""
        # Every pending touch is also a pending hit, so this bounds the
        # touches as well.
        if sum(self._pending.values()) >= self.FLUSH_PENDING_EVERY:
            try:
                self._flush_lifetime()
            except sqlite3.Error:
                # Pure bookkeeping: a contended flush retries on the
                # next threshold crossing instead of failing the lookup.
                pass

    # -- the cache interface -------------------------------------------------

    def get(self, key: str) -> "str | None":
        """The stored payload for ``key``, marking it most-recently-used.

        A one-key :meth:`get_many`. A corruption mid-``get`` heals the
        store and reports a miss (the rebuilt database is empty by
        construction) — callers recompute, exactly as for any cold key.
        """
        return self.get_many((key,))[0]

    def get_many(self, keys) -> "list[str | None]":
        """The stored payload of each key (``None`` on a miss), in order.

        One ``SELECT ... WHERE key IN (...)`` per :data:`IN_CHUNK` keys.
        Each hit, in key order, takes the next clock value as its LRU
        touch; the touches are kept in memory and written by this
        handle's next write transaction, or by the lifetime flush once
        :data:`FLUSH_PENDING_EVERY` are pending, so a read commits
        nothing of its own. Hit/miss counts and recency come out as
        ``len(keys)`` one-key reads would leave them. The ``store.get``
        fault site, busy retries and healing apply to the call as a
        whole: a corruption heals the store and reports every key a
        miss.
        """
        keys = list(keys)

        def op() -> "dict[str, str]":
            found: "dict[str, str]" = {}
            for start in range(0, len(keys), self.IN_CHUNK):
                chunk = keys[start:start + self.IN_CHUNK]
                found.update(self._conn.execute(
                    "SELECT key, payload FROM results WHERE key IN "
                    f"({','.join('?' * len(chunk))})",
                    chunk,
                ))
            return found

        with self._lock:
            found = self._run("store.get", op)
            payloads = [found.get(key) for key in keys]
            for key, payload in zip(keys, payloads):
                if payload is not None:
                    self._clock += 1
                    self._touches.append((self._clock, key))
            misses = payloads.count(None)
            self.hits += len(payloads) - misses
            self.misses += misses
            self._pending["hits"] += len(payloads) - misses
            self._pending["misses"] += misses
            self._maybe_flush_lifetime()
            return payloads

    def peek(self, key: str) -> "str | None":
        """The stored payload without touching stats or LRU recency.

        The claim-wait poll loop (see :meth:`try_claim`) probes a key
        many times per second while a peer worker computes; counting
        each probe as a miss would swamp the hit-ratio stats, and
        bumping recency for a key about to be fetched anyway is wasted
        SQL. One real :meth:`get` follows when the payload lands.
        """

        def op() -> "str | None":
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else row[0]

        with self._lock:
            return self._run("store.peek", op)

    # -- claim rows: cross-process exactly-one-compute -----------------------

    def try_claim(
        self, key: str, owner: str, ttl_s: float
    ) -> "tuple[bool, bool]":
        """Atomically claim ``key`` for ``owner`` → ``(acquired, stale)``.

        A claim row says "a worker process is computing this key right
        now" — the cross-process twin of the dispatcher's in-flight
        coalescing map. The insert is atomic at the SQLite level, so
        exactly one process of a pre-forked fleet wins a contested key.
        An *expired* claim (a worker killed mid-compute never released
        it) is evicted first, so a dead owner can never wedge a key past
        its TTL; ``stale`` reports that an expired claim was swept in
        the process.
        """

        def op() -> "tuple[bool, bool]":
            now = time.time()
            stale = self._conn.execute(
                "DELETE FROM claims WHERE key = ? AND expires <= ?",
                (key, now),
            ).rowcount
            cursor = self._conn.execute(
                "INSERT INTO claims (key, owner, expires) VALUES (?, ?, ?) "
                "ON CONFLICT(key) DO NOTHING",
                (key, owner, now + ttl_s),
            )
            return cursor.rowcount == 1, stale > 0

        with self._lock:
            return self._write("store.claim", op)

    def release_claim(self, key: str, owner: str) -> None:
        """Drop ``owner``'s claim on ``key`` (a foreign claim is kept)."""

        def op() -> None:
            self._conn.execute(
                "DELETE FROM claims WHERE key = ? AND owner = ?",
                (key, owner),
            )

        with self._lock:
            self._write("store.claim", op)

    def claim_active(self, key: str) -> bool:
        """Whether a live (unexpired) claim currently covers ``key``."""

        def op() -> bool:
            row = self._conn.execute(
                "SELECT expires FROM claims WHERE key = ?", (key,)
            ).fetchone()
            return row is not None and row[0] > time.time()

        with self._lock:
            return self._run("store.claim", op)

    def put(self, key: str, payload: str) -> None:
        """Insert (or refresh) a payload, evicting LRU entries past the bound."""
        self.put_many(((key, payload),))

    def put_many(self, rows) -> None:
        """Insert (or refresh) ``(key, payload)`` rows in one transaction.

        Pending LRU touches first, then one ``executemany`` upsert
        (recency in row order), one ``COUNT(*)`` and, past
        ``max_entries``, one delete of the least recently used rows, then
        one COMMIT. The delete drops exactly as many rows as
        ``len(rows)`` one-key puts of new keys would have evicted one by
        one (see :meth:`_evictions_due`), and the same rows: the oldest,
        never the last row put.
        """
        rows = list(rows)
        if not rows:
            return

        def op() -> int:
            now = time.time()
            values = []
            for key, payload in rows:
                self._clock += 1
                values.append((key, payload, now, self._clock))
            self._conn.executemany(
                "INSERT INTO results (key, payload, created, last_used, "
                "use_count) VALUES (?, ?, ?, ?, 0) "
                "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload, "
                "last_used = excluded.last_used",
                values,
            )
            count = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
            drop = self._evictions_due(count, len(rows))
            if drop:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE key IN ("
                    "SELECT key FROM results WHERE key != ? "
                    "ORDER BY last_used ASC LIMIT ?)",
                    (rows[-1][0], drop),
                )
                return cursor.rowcount
            return 0

        with self._lock:
            evicted = self._write("store.put", op)
            self.evictions += evicted
            self._pending["evictions"] += evicted
            self._maybe_flush_lifetime()

    def _evictions_due(self, count: int, added: int) -> int:
        """Rows to evict once ``added`` puts have left ``count`` rows.

        Replays the one-key rule — a put that takes the store past
        ``max_entries`` evicts ``max(evict_batch, overflow)`` rows — over
        the puts one by one, as if each added a row.
        """
        bound = self.policy.max_entries
        if count <= bound:
            return 0
        batch = self.policy.evict_batch
        rows, due = count - added, 0
        for _ in range(added):
            rows += 1
            if rows > bound:
                drop = max(batch, rows - bound)
                rows -= drop
                due += drop
        return due

    # -- usage rows: fleet-wide tenant accounting -----------------------------

    def add_usage(self, tenant: str, deltas: "dict[str, int]") -> None:
        """UPSERT-increment usage counters for ``tenant``.

        One commit per served request (the server batches a request's
        deltas into a single call), which also carries the pending LRU
        touches. The rows live in the shared database file, so — like the
        claim rows — they are the fleet's single source of truth: every
        worker increments the same counters, and absolute quotas read
        them back fleet-accurately.
        """

        def op() -> None:
            self._conn.executemany(
                "INSERT INTO usage (tenant, field, value) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(tenant, field) "
                "DO UPDATE SET value = value + excluded.value",
                [(tenant, field, int(value))
                 for field, value in deltas.items()],
            )

        with self._lock:
            try:
                self._write("store.usage", op)
            except Exception:
                self._usage.clear()
                raise
            totals = self._usage.get(tenant)
            if totals is not None:
                for field, value in deltas.items():
                    totals[field] = totals.get(field, 0) + int(value)

    def usage_totals(self, tenant: str) -> "dict[str, int]":
        """Live counters for one tenant (empty dict when unseen).

        Served from memory while no other connection has committed since
        the tenant's row was read (``PRAGMA data_version`` unchanged);
        this handle's own writes are added as they commit. Otherwise one
        indexed SELECT.
        """

        def op() -> "dict[str, int]":
            version = self._conn.execute("PRAGMA data_version").fetchone()[0]
            if version != self._usage_version:
                self._usage.clear()
                self._usage_version = version
            totals = self._usage.get(tenant)
            if totals is None:
                rows = self._conn.execute(
                    "SELECT field, value FROM usage WHERE tenant = ?",
                    (tenant,),
                ).fetchall()
                totals = {field: int(value) for field, value in rows}
                self._usage[tenant] = totals
            return dict(totals)

        with self._lock:
            return self._run("store.usage", op)

    def usage_all(self) -> "dict[str, dict[str, int]]":
        """Counters for every tenant the store has ever accounted."""

        def op() -> "dict[str, dict[str, int]]":
            rows = self._conn.execute(
                "SELECT tenant, field, value FROM usage"
            ).fetchall()
            totals: "dict[str, dict[str, int]]" = {}
            for tenant, field, value in rows:
                totals.setdefault(tenant, {})[field] = int(value)
            return totals

        with self._lock:
            return self._run("store.usage", op)

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone() is not None

    def clear(self) -> None:
        def op() -> None:
            self._conn.execute("DELETE FROM results")
            self._conn.execute("DELETE FROM claims")
            self._conn.commit()

        with self._lock:
            self._run("store.clear", op)
            self._touches.clear()
            self._usage.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        """Instance and lifetime counters, JSON-ready for ``/stats``.

        The ``fleet`` block is store-backed (entries, live claims, and
        the lifetime counters from the shared meta table), so in a
        pre-forked deployment it reports the *whole fleet's* traffic
        whichever worker answers the scrape; the top-level hit/miss
        fields stay this process's own. Expired claim rows are swept as
        housekeeping — a dead worker's claims must not linger forever on
        keys nobody re-requests. The sweep rides with the touch and
        lifetime flush, which is bookkeeping: while a peer holds the
        write lock it is skipped (and retried by a later flush), and the
        read still answers.
        """

        def op() -> dict:
            return {
                "entries": self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()[0],
                "claims": self._conn.execute(
                    "SELECT COUNT(*) FROM claims"
                ).fetchone()[0],
                "lifetime": {
                    name: int(self._meta_get(f"lifetime_{name}") or 0)
                    for name in ("hits", "misses", "evictions")
                },
            }

        with self._lock:
            try:
                self._conn.execute(
                    "DELETE FROM claims WHERE expires <= ?", (time.time(),)
                )
                self._flush_lifetime()
            except sqlite3.Error:
                self._rollback()
            read = self._run("store.stats", op)
        return {
            "path": self.path,
            "entries": read["entries"],
            "max_entries": self.policy.max_entries,
            "evict_batch": self.policy.evict_batch,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "busy_retried": self.busy_retried,
            "lifetime": read["lifetime"],
            "fleet": {
                "entries": read["entries"],
                "claims": read["claims"],
                **read["lifetime"],
            },
        }

    def close(self) -> None:
        with self._lock:
            try:
                if self.faults.active:
                    self.faults.hit("store.close")
                self._flush_lifetime()
            except sqlite3.Error as error:
                # Losing the touch and lifetime counter flush is
                # acceptable at shutdown; failing to close the handle is
                # not.
                print(
                    f"[carbon3d] result store close: dropping touch and "
                    f"lifetime counter flush ({error})",
                    file=sys.stderr,
                    flush=True,
                )
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
