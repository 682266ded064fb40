"""One immutable lookup table for every parameter database.

Process nodes, integration specs, bonding processes, package classes and
grids are each a :class:`RecordTable`: frozen records keyed by a key
function, found through a spelling normalizer, and never changed in
place. A study that changes a record builds a copy with
:meth:`RecordTable.with_record`, so the shared ``DEFAULT_*`` tables — and
every fingerprint already taken from them — stay as they were.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Iterator

from ..errors import UnknownTechnologyError


class RecordTable:
    """Records of one type, keyed by ``key(record)`` (default: its name).

    ``normalize`` maps any accepted spelling to a key (``7`` → ``"7nm"``)
    or raises; ``message(key, known_keys)`` is the text of the
    :class:`~repro.errors.UnknownTechnologyError` an unknown key raises.
    """

    def __init__(
        self,
        records: Iterable,
        kind: type,
        normalize: Callable[[object], object],
        message: Callable[[object, Iterable], str],
        key: Callable[[object], object] = attrgetter("name"),
    ) -> None:
        self._records = {key(record): record for record in records}
        self._kind = kind
        self._normalize = normalize
        self._message = message
        self._key = key

    def get(self, key, *parts):
        """The record under ``key``, in any accepted spelling.

        A record of the table's type is returned unchanged. A tuple key
        may also be given as its parts (``bonding.get(method, flow)``).
        """
        if parts:
            key = (key, *parts)
        if type(key) is str or type(key) is tuple:
            # The exact key skips the normalizer: it is what every hot
            # path passes.
            try:
                return self._records[key]
            except KeyError:
                pass
        elif isinstance(key, self._kind):
            return key
        try:
            return self._records[self._normalize(key)]
        except KeyError:
            raise UnknownTechnologyError(
                self._message(key, self._records)
            ) from None

    def __contains__(self, key: object) -> bool:
        try:
            self.get(key)
        except UnknownTechnologyError:
            return False
        return True

    def __iter__(self) -> Iterator:
        return iter(self._records.values())

    def with_record(self, record) -> "RecordTable":
        """Copy of the table with ``record`` installed under its own key."""
        table = object.__new__(RecordTable)
        table.__dict__.update(
            self.__dict__, _records={**self._records, self._key(record): record}
        )
        return table


def unknown_name(what: str, known: str = "known") -> Callable[[str, Iterable], str]:
    """The unknown-key message of a name-keyed table."""

    def message(name, names) -> str:
        return f"unknown {what} {name!r}; {known}: {', '.join(sorted(names))}"

    return message
