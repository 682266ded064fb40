"""Bounded caching primitives shared by the engine and the service store.

Every long-lived cache in the package — the :class:`repro.engine.
BatchEvaluator` memo layers, the structural :class:`repro.core.resolve.
ResolveCache` sub-caches, and the persistent :class:`repro.service.store.
ResultStore` — bounds its memory with the same policy: least-recently-used
eviction up to a fixed entry count, described by an :class:`EvictionPolicy`.

:class:`LRUCache` is the in-process implementation (an insertion-ordered
dict with move-to-end on hit); the SQLite-backed store implements the same
policy over a ``last_used`` column. Eviction only changes *whether* a
cached value is still present, never what a recomputation produces, so
bounded caches preserve the engine's bit-identical guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class EvictionPolicy:
    """LRU eviction up to ``max_entries``, dropping ``evict_batch`` at a time.

    ``evict_batch`` amortizes eviction cost for backends where a single
    delete is expensive (the SQLite store deletes a small batch per
    overflow); the in-process :class:`LRUCache` defaults to one-at-a-time.
    """

    max_entries: int = 4096
    evict_batch: int = 1

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ParameterError(
                f"eviction policy needs max_entries >= 1, got "
                f"{self.max_entries}"
            )
        if not 1 <= self.evict_batch <= self.max_entries:
            raise ParameterError(
                f"evict_batch must lie in [1, max_entries], got "
                f"{self.evict_batch}"
            )

    @classmethod
    def for_store(cls, max_entries: int) -> "EvictionPolicy":
        """The store's batched variant (~5% of capacity per overflow)."""
        return cls(
            max_entries=max_entries,
            evict_batch=max(1, max_entries // 20),
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Backed by a plain insertion-ordered dict: a hit re-inserts the entry
    at the tail, an insert past ``policy.max_entries`` pops entries from
    the head. ``get``/``__setitem__`` stay O(1), so swapping this in for
    the engine's unbounded dicts costs a few dict operations per lookup —
    far below the stage work a hit saves.
    """

    __slots__ = ("policy", "evictions", "_data")

    def __init__(self, policy: "EvictionPolicy | int" = 4096) -> None:
        if isinstance(policy, int):
            policy = EvictionPolicy(max_entries=policy)
        self.policy = policy
        self.evictions = 0
        self._data: dict = {}

    def get(self, key, default=None):
        """Lookup, marking the entry most-recently-used on a hit."""
        data = self._data
        try:
            value = data.pop(key)
        except KeyError:
            return default
        data[key] = value
        return value

    def peek(self, key, default=None):
        """Lookup without touching recency (tests / introspection)."""
        return self._data.get(key, default)

    def __setitem__(self, key, value) -> None:
        data = self._data
        data.pop(key, None)
        data[key] = value
        overflow = len(data) - self.policy.max_entries
        if overflow > 0:
            # The new entry sits at the tail, so the head is always the
            # least-recently-used *other* entry. Concurrent mutators (the
            # engine's caches are shared across the server's request
            # threads) may race this loop; losing a race must
            # degrade to evicting fewer entries this round — the next
            # insert retries — never to an exception on a valid insert.
            drop = min(max(self.policy.evict_batch, overflow), len(data) - 1)
            for _ in range(drop):
                try:
                    del data[next(iter(data))]
                except (KeyError, RuntimeError, StopIteration):
                    break
                self.evictions += 1

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def keys(self):
        return self._data.keys()
