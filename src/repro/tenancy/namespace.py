"""Per-tenant result namespaces and the request-scoped tenant context.

**Namespaces.** The store is content-addressed: a result row is keyed by
the SHA-256 of the request's canonical fingerprint text
(:func:`repro.service.store.canonical_text`). Multi-tenant isolation
salts that digest with the tenant id, so two tenants submitting the
*same* design get two disjoint store rows — no cross-tenant cache hits,
no way to probe another tenant's cache by timing. Two deliberate rules:

* The **anonymous** tenant (open servers, tokens issued with
  ``--tenant anonymous``, and every local in-process session) keeps the
  *unsalted* digest — byte-identical to the pre-tenancy key. That preserves the
  local/service parity pin (same fingerprint → same store row either
  way) and lets a pre-tenancy store be *adopted* rather than rebuilt
  when opened under the bumped ``STORE_FORMAT_VERSION`` (see
  :meth:`repro.service.store.ResultStore._verify_and_init`).
* Named tenants prefix the canonical text with ``tenant:<id>`` plus an
  ``\\x1f`` unit separator before hashing. The separator cannot appear
  in canonical text, so no (tenant, fingerprint) pair can collide with
  another tenant's — or with the anonymous namespace.

**Context.** The active tenant rides a :class:`contextvars.ContextVar`
set by the server around the whole request (dispatch *and* stream
consumption happen on the handler thread, so one scope covers both).
Dispatcher internals read it implicitly — no tenant parameter threading
through every handler — and mirror per-request counters into it via
:func:`record_usage` (called from ``DispatchStats.inc``). Local
sessions never set a context, so they stay anonymous with zero
behavioral change.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
from dataclasses import dataclass, field

__all__ = [
    "ANONYMOUS_TENANT",
    "TENANT_MIRROR_FIELDS",
    "TenantContext",
    "active_tenant",
    "current_tenant",
    "namespace_key",
    "record_usage",
    "tenant_scope",
]

#: Tenant id of the open/legacy namespace (unsalted store keys).
ANONYMOUS_TENANT = "anonymous"

#: Unit separator between the tenant prefix and the canonical text.
#: Canonical fingerprint text is printable JSON-ish prose, so 0x1f can
#: never occur inside it — the prefix is unambiguous.
_SEP = "\x1f"

#: ``DispatchStats`` counter names mirrored into the active tenant's
#: usage (the rest — shed, timeouts, per-source cache tags — are
#: service-health numbers, not billable tenant work).
TENANT_MIRROR_FIELDS = frozenset({"points", "computed", "store_hits"})


def namespace_key(
    value, tenant: "str | None" = None, records: "dict | None" = None
) -> str:
    """The store digest for ``value`` under ``tenant``'s namespace.

    ``tenant=None`` reads the active request context (anonymous when
    unset). ``records`` is an optional
    :func:`repro.service.store.record_texts` table; it speeds up the
    rendering and never changes the digest. Lazy store import: the
    dispatcher imports this module, and the store must stay importable
    on its own.
    """
    from ..service.store import canonical_text, content_key

    if tenant is None:
        tenant = active_tenant()
    if tenant == ANONYMOUS_TENANT:
        return content_key(value, records)
    text = f"tenant:{tenant}{_SEP}{canonical_text(value, records)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class TenantContext:
    """Everything the request path needs to know about the caller.

    ``counters`` accumulates this request's usage-ledger deltas
    (``points`` / ``computed`` / ``store_hits`` mirrored by the
    dispatcher; ``requests`` / ``errors`` / ``quota_rejected`` /
    ``bytes_out`` stamped by the server) — flushed once per request.
    """

    tenant: str = ANONYMOUS_TENANT
    token_id: "str | None" = None
    name: "str | None" = None
    scopes: "tuple[str, ...]" = ()
    quota: "object | None" = None  # TenantQuota | None
    counters: dict = field(default_factory=dict)

    @classmethod
    def from_record(cls, record) -> "TenantContext":
        """Build from a :class:`repro.tenancy.tokens.TokenRecord`."""
        return cls(
            tenant=record.tenant,
            token_id=record.id,
            name=record.name,
            scopes=tuple(record.scopes),
            quota=record.quota,
        )

    @property
    def is_admin(self) -> bool:
        return "admin" in self.scopes

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)


_ACTIVE: "contextvars.ContextVar[TenantContext | None]" = (
    contextvars.ContextVar("carbon3d_tenant", default=None)
)


def current_tenant() -> "TenantContext | None":
    """The tenant context of the request being served, if any."""
    return _ACTIVE.get()


def active_tenant() -> str:
    """The id of the tenant being served (anonymous when none is)."""
    ctx = _ACTIVE.get()
    return ANONYMOUS_TENANT if ctx is None else ctx.tenant


@contextlib.contextmanager
def tenant_scope(ctx: "TenantContext | None"):
    """Run a block with ``ctx`` as the active tenant, then restore."""
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


def record_usage(counter: str, amount: int = 1) -> None:
    """Mirror a dispatch counter into the active tenant (no-op if none)."""
    if counter not in TENANT_MIRROR_FIELDS:
        return
    ctx = _ACTIVE.get()
    if ctx is not None:
        ctx.add(counter, amount)
