"""SQLite-backed registry of named, hashed, per-tenant API tokens.

The control plane's source of truth. One row per token: a random id, a
human name, the owning tenant, scopes, an optional quota, and a **salted
SHA-256** of the secret — the secret itself is shown once at issue time
and never stored, so a leaked registry file cannot be replayed.

**Cross-process safety.** Like the result store's claim rows, the
registry is a plain SQLite file in WAL mode with a busy timeout: every
pre-forked fleet worker opens its own connection after the fork, and a
token issued, revoked or rotated through the admin CLI (a third process
entirely) takes effect in all of them on their next ``resolve``. Each
handle keeps the rows it has resolved in memory, keyed by token id, and
drops them all whenever ``PRAGMA data_version`` shows that another
connection has committed (and on its own issue/revoke/rotate), so a
repeat resolve costs one pragma instead of a row read. The secret is
hashed and compared on every call; no secret is kept.

**Secret format.** ``c3d_<id>_<hex32>`` — the embedded id turns resolve
into one primary-key lookup plus one hash compare. A secret of any other
shape resolves to ``None`` without touching SQLite, so a junk header
costs an unauthenticated caller no more than a wrong ``c3d_`` one.
A row seeded by the retired ``serve --token`` option, still present in
an older registry file, is listed and counts toward enforcement but
never resolves; ``carbon3d tokens revoke`` retires it.

**Enforcement rule.** A registry enforces auth once it has *ever* held a
row — revoking the last token locks the service down rather than
silently falling open (:meth:`enforcing` is monotonic and cached).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets as _secrets
import sqlite3
import threading
import time
from dataclasses import dataclass

from .quota import TenantQuota

__all__ = [
    "DEFAULT_TOKENS_FILENAME",
    "REGISTRY_FORMAT_VERSION",
    "TokenRecord",
    "TokenRegistry",
]

#: Bump on incompatible registry schema changes.
REGISTRY_FORMAT_VERSION = 1

#: Conventional registry filename next to the result store.
DEFAULT_TOKENS_FILENAME = "carbon3d_tokens.sqlite3"

_PREFIX = "c3d"

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS tokens (
    id         TEXT PRIMARY KEY,
    name       TEXT NOT NULL,
    tenant     TEXT NOT NULL,
    scopes     TEXT NOT NULL DEFAULT '[]',
    quota      TEXT,
    salt       TEXT NOT NULL,
    token_hash TEXT NOT NULL,
    created    REAL NOT NULL,
    revoked    REAL,
    rotated    REAL
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_tokens_active_name
    ON tokens(name) WHERE revoked IS NULL;
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _hash_secret(salt: str, secret: str) -> str:
    return hashlib.sha256(f"{salt}:{secret}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenRecord:
    """One registry row (never carries the secret)."""

    id: str
    name: str
    tenant: str
    scopes: "tuple[str, ...]"
    quota: "TenantQuota | None"
    created: float
    revoked: "float | None" = None
    rotated: "float | None" = None

    @property
    def active(self) -> bool:
        return self.revoked is None

    def to_dict(self) -> dict:
        """JSON-ready row for the admin CLI / ``/usage`` payloads."""
        return {
            "id": self.id,
            "name": self.name,
            "tenant": self.tenant,
            "scopes": list(self.scopes),
            "quota": self.quota.to_dict() if self.quota else None,
            "created": self.created,
            "revoked": self.revoked,
            "rotated": self.rotated,
            "active": self.active,
        }


class TokenRegistry:
    """Issue/resolve/revoke/rotate named tokens over one SQLite file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, timeout=5.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_SCHEMA_SQL)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'format_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('format_version', ?)",
                (str(REGISTRY_FORMAT_VERSION),),
            )
        elif row[0] != str(REGISTRY_FORMAT_VERSION):
            raise RuntimeError(
                f"token registry {self.path} has format {row[0]}, "
                f"expected {REGISTRY_FORMAT_VERSION}"
            )
        self._conn.commit()
        self._enforcing = False
        #: Token id → ``(salt, token_hash, record)`` of active rows read
        #: while ``PRAGMA data_version`` read ``_version``.
        self._cache: "dict[str, tuple[str, str, TokenRecord]]" = {}
        self._version: "int | None" = None

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- issuance -----------------------------------------------------------

    def issue(
        self,
        name: str,
        tenant: str,
        scopes: "tuple[str, ...] | list[str]" = (),
        quota: "TenantQuota | None" = None,
    ) -> "tuple[str, TokenRecord]":
        """Mint a token → ``(secret, record)``; the secret is never stored."""
        if not name:
            raise ValueError("token name must be non-empty")
        if not tenant:
            raise ValueError("tenant id must be non-empty")
        token_id = _secrets.token_hex(4)
        secret = f"{_PREFIX}_{token_id}_{_secrets.token_hex(16)}"
        salt = _secrets.token_hex(8)
        record = self._insert(token_id, name, tenant, scopes, quota,
                              salt, _hash_secret(salt, secret))
        return secret, record

    def _insert(self, token_id, name, tenant, scopes, quota, salt,
                token_hash) -> TokenRecord:
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT INTO tokens (id, name, tenant, scopes, quota, "
                    "salt, token_hash, created) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        token_id,
                        name,
                        tenant,
                        json.dumps(list(scopes)),
                        json.dumps(quota.to_dict()) if quota else None,
                        salt,
                        token_hash,
                        time.time(),
                    ),
                )
                self._conn.commit()
                self._cache.clear()
            except sqlite3.IntegrityError as error:
                raise ValueError(
                    f"an active token named {name!r} already exists"
                ) from error
            self._enforcing = True
            row = self._conn.execute(
                "SELECT * FROM tokens WHERE id = ?", (token_id,)
            ).fetchone()
        return self._record(row)

    # -- resolution ---------------------------------------------------------

    def resolve(self, secret: str) -> "TokenRecord | None":
        """The active record matching ``secret``, or ``None``.

        ``c3d_<id>_...`` secrets resolve from this handle's row cache
        (one ``PRAGMA data_version`` to prove it fresh) or one
        primary-key read, then one constant-time hash compare; a secret
        of any other shape is ``None`` without a query.
        """
        parts = secret.split("_", 2)
        if len(parts) != 3 or parts[0] != _PREFIX:
            return None
        entry = self._cached(parts[1])
        if entry is None:
            return None
        salt, token_hash, record = entry
        if hmac.compare_digest(token_hash, _hash_secret(salt, secret)):
            return record
        return None

    def enforcing(self) -> bool:
        """True once the registry has ever held a token (monotonic)."""
        if self._enforcing:
            return True
        row = self._query_one("SELECT COUNT(*) AS n FROM tokens", ())
        if row["n"] > 0:
            self._enforcing = True
        return self._enforcing

    # -- lifecycle ----------------------------------------------------------

    def revoke(self, ident: str) -> TokenRecord:
        """Revoke the active token whose id *or* name is ``ident``."""
        row = self._find_active(ident)
        with self._lock:
            self._conn.execute(
                "UPDATE tokens SET revoked = ? WHERE id = ?",
                (time.time(), row["id"]),
            )
            self._conn.commit()
            self._cache.clear()
            row = self._conn.execute(
                "SELECT * FROM tokens WHERE id = ?", (row["id"],)
            ).fetchone()
        return self._record(row)

    def rotate(self, ident: str) -> "tuple[str, TokenRecord]":
        """Re-key an active token in place → ``(new_secret, record)``.

        The id, name, tenant, scopes, and quota are preserved; the old
        secret stops resolving the moment the row commits.
        """
        row = self._find_active(ident)
        token_id = row["id"]
        secret = f"{_PREFIX}_{token_id}_{_secrets.token_hex(16)}"
        salt = _secrets.token_hex(8)
        with self._lock:
            self._conn.execute(
                "UPDATE tokens SET salt = ?, token_hash = ?, rotated = ? "
                "WHERE id = ?",
                (salt, _hash_secret(salt, secret), time.time(), token_id),
            )
            self._conn.commit()
            self._cache.clear()
            row = self._conn.execute(
                "SELECT * FROM tokens WHERE id = ?", (token_id,)
            ).fetchone()
        return secret, self._record(row)

    def list(self, include_revoked: bool = True) -> "list[TokenRecord]":
        sql = "SELECT * FROM tokens"
        if not include_revoked:
            sql += " WHERE revoked IS NULL"
        sql += " ORDER BY created"
        return [self._record(row) for row in self._query_all(sql, ())]

    # -- internals ----------------------------------------------------------

    def _find_active(self, ident: str):
        rows = self._query_all(
            "SELECT * FROM tokens WHERE revoked IS NULL "
            "AND (id = ? OR name = ?)",
            (ident, ident),
        )
        if not rows:
            raise KeyError(f"no active token with id or name {ident!r}")
        return rows[0]

    def _cached(self, token_id: str) -> "tuple[str, str, TokenRecord] | None":
        """The active row of ``token_id`` as ``(salt, hash, record)``."""
        with self._lock:
            version = self._conn.execute("PRAGMA data_version").fetchone()[0]
            if version != self._version:
                self._cache.clear()
                self._version = version
            entry = self._cache.get(token_id)
            if entry is None:
                row = self._conn.execute(
                    "SELECT * FROM tokens WHERE id = ? AND revoked IS NULL",
                    (token_id,),
                ).fetchone()
                if row is None:
                    return None
                entry = (row["salt"], row["token_hash"], self._record(row))
                self._cache[token_id] = entry
            return entry

    def _query_all(self, sql: str, params) -> list:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _query_one(self, sql: str, params):
        with self._lock:
            return self._conn.execute(sql, params).fetchone()

    @staticmethod
    def _record(row) -> TokenRecord:
        quota = row["quota"]
        return TokenRecord(
            id=row["id"],
            name=row["name"],
            tenant=row["tenant"],
            scopes=tuple(json.loads(row["scopes"])),
            quota=TenantQuota.from_dict(json.loads(quota)) if quota else None,
            created=row["created"],
            revoked=row["revoked"],
            rotated=row["rotated"],
        )
