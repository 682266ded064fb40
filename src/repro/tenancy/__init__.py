"""Multi-tenant control plane for the carbon evaluation service.

Turns the single-endpoint service into a multi-customer deployment, the
shape ACT-style organizational carbon services take when many product
teams share one modeling endpoint:

* :mod:`~repro.tenancy.tokens` — SQLite-backed :class:`TokenRegistry`
  of named, salted-SHA-256-hashed API tokens (issue / revoke / list /
  rotate), cross-process safe so every fleet worker and the admin CLI
  see one truth;
* :mod:`~repro.tenancy.namespace` — per-tenant result isolation by
  salting the store's content-address digests with the tenant id, with
  the anonymous namespace kept byte-identical to pre-tenancy
  keys; plus the contextvar-scoped :class:`TenantContext` the request
  path rides on;
* :mod:`~repro.tenancy.quota` — token-bucket rate limits and
  ledger-backed absolute request/point quotas, rejected as typed 429s
  with ``Retry-After`` (breaker-neutral, unlike the overload 503);
* :mod:`~repro.tenancy.usage` — per-tenant usage counters written
  through the store so they aggregate across the fleet, served by
  ``GET /usage`` and ``carbon3d usage``.

Nothing here imports the service at module scope; the dependency points
the other way (server/dispatcher/CLI import tenancy).
"""

from .namespace import (
    ANONYMOUS_TENANT,
    TENANT_MIRROR_FIELDS,
    TenantContext,
    current_tenant,
    namespace_key,
    record_usage,
    tenant_scope,
)
from .quota import (
    EXHAUSTED_RETRY_AFTER_S,
    QuotaExceededError,
    QuotaManager,
    TenantQuota,
    TokenBucket,
)
from .tokens import (
    DEFAULT_TOKENS_FILENAME,
    REGISTRY_FORMAT_VERSION,
    TokenRecord,
    TokenRegistry,
)
from .usage import USAGE_FIELDS, UsageLedger

__all__ = [
    "ANONYMOUS_TENANT",
    "DEFAULT_TOKENS_FILENAME",
    "EXHAUSTED_RETRY_AFTER_S",
    "QuotaExceededError",
    "QuotaManager",
    "REGISTRY_FORMAT_VERSION",
    "TENANT_MIRROR_FIELDS",
    "TenantContext",
    "TenantQuota",
    "TokenBucket",
    "TokenRecord",
    "TokenRegistry",
    "USAGE_FIELDS",
    "UsageLedger",
    "current_tenant",
    "namespace_key",
    "record_usage",
    "tenant_scope",
]
