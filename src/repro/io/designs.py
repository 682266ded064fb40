"""Design serialization: :class:`ChipDesign` ↔ plain dictionaries / JSON.

The schema is the one the CLI documents::

    {
      "name": "my_chip",
      "integration": "hybrid_3d",
      "stacking": "f2f",
      "assembly": "d2w",
      "package": {"class": "fcbga", "area_mm2": null},
      "throughput_tops": 254,
      "dies": [
        {"name": "top", "node": "7nm", "gate_count": 8.5e9,
         "workload_share": 0.5}
      ]
    }

Round-trips are exact: ``design_from_dict(design_to_dict(d)) == d``.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields as dataclass_fields
from pathlib import Path

from ..config.integration import AssemblyFlow, StackingStyle
from ..core.design import ChipDesign, Die, DieKind, PackageSpec
from ..errors import DesignError


def die_to_dict(die: Die) -> dict:
    """One die as a JSON-ready dictionary (defaults omitted)."""
    data: dict = {"name": die.name, "node": die.node}
    if die.gate_count is not None:
        data["gate_count"] = die.gate_count
    if die.area_mm2 is not None:
        data["area_mm2"] = die.area_mm2
    if die.kind is not DieKind.LOGIC:
        data["kind"] = die.kind.value
    if die.workload_share != 1.0:
        data["workload_share"] = die.workload_share
    if die.beol_layers is not None:
        data["beol_layers"] = die.beol_layers
    if die.yield_override is not None:
        data["yield"] = die.yield_override
    if die.efficiency_tops_per_w is not None:
        data["efficiency_tops_per_w"] = die.efficiency_tops_per_w
    return data


def _enum_member(enum_cls, value, what: str):
    """Resolve an enum spelling, reporting unknowns as a typed error.

    A bare ``StackingStyle("bogus")`` raises ``ValueError`` — a traceback
    for CLI/service callers. This converts it into the documented
    :class:`~repro.errors.DesignError` with the known spellings listed.
    """
    try:
        member = _MEMBERS[enum_cls].get(value)
    except TypeError:  # an unhashable spelling: no member's value
        member = None
    if member is not None:
        return member
    try:
        return enum_cls(value)
    except ValueError:
        known = ", ".join(repr(member.value) for member in enum_cls)
        raise DesignError(
            f"unknown {what} {value!r}; known: {known}"
        ) from None


#: Enum → its value → member map: a spelling resolves in one lookup
#: instead of an ``Enum(value)`` call.
_MEMBERS = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (DieKind, StackingStyle, AssemblyFlow)
}


def _require_name(value, what: str) -> None:
    """Names are looked up in tables: a JSON array or object cannot be."""
    if isinstance(value, (list, dict)):
        raise DesignError(f"{what} must be a name or a number, got {value!r}")


def finite(value: "int | float") -> bool:
    """Whether a JSON number is finite: not NaN, ±inf or an int past float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _optional_number(value, what: str):
    if value is None:
        return None
    # JSON true/false are Python bools, which are ints: not numbers here.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DesignError(f"{what} must be a number, got {value!r}")
    if not finite(value):
        raise DesignError(f"{what} must be finite, got {value!r}")
    return value


#: A die record's numeric fields, (record key, ``Die`` field), in two
#: runs: its kind is checked between them, so a record with several bad
#: fields reports the one it always reported.
_DIE_SIZES = (("gate_count", "gate_count"), ("area_mm2", "area_mm2"))
_DIE_NUMBERS = (
    ("workload_share", "workload_share"),
    ("beol_layers", "beol_layers"),
    ("yield", "yield_override"),
    ("efficiency_tops_per_w", "efficiency_tops_per_w"),
)

#: Every ``Die`` field but the name and node, at its default: the value
#: a record that omits its key gets, in field order.
_DIE_DEFAULTS = {
    f.name: f.default for f in dataclass_fields(Die)
    if f.name not in ("name", "node")
}


def _die_numbers(data: dict, name: str, table: tuple, fields: dict) -> None:
    """Check the numeric fields of ``table`` a die record carries into
    ``fields`` (an omitted one keeps its default, which needs no check).
    A field whose default is a number refuses an explicit null."""
    for key, field in table:
        if key not in data:
            continue
        value = data[key]
        cls = type(value)
        if cls is float:
            # NaN and ±inf are the floats that are not finite.
            if value - value != 0.0:
                raise DesignError(
                    f"die {name!r}: {key} must be finite, got {value!r}"
                )
        elif value is not None or _DIE_DEFAULTS[field] is not None:
            # JSON true/false are Python bools, which are ints: not
            # numbers here.
            if cls is bool or not isinstance(value, (int, float)):
                raise DesignError(
                    f"die {name!r}: {key} must be a number, got {value!r}"
                )
            if not finite(value):
                raise DesignError(
                    f"die {name!r}: {key} must be finite, got {value!r}"
                )
        fields[field] = value


def die_from_dict(data: dict) -> Die:
    """Inverse of :func:`die_to_dict`."""
    if not isinstance(data, dict):
        raise DesignError(
            f"die record must be an object, got {type(data).__name__}"
        )
    try:
        name = data["name"]
        node = data["node"]
    except KeyError as missing:
        raise DesignError(f"die record missing key {missing}") from None
    if not isinstance(name, str):
        raise DesignError(f"die name must be a string, got {name!r}")
    if isinstance(node, (list, dict)):
        _require_name(node, f"die {name!r}: node")
    fields = {"name": name, "node": node}
    fields.update(_DIE_DEFAULTS)
    _die_numbers(data, name, _DIE_SIZES, fields)
    if "kind" in data:
        fields["kind"] = _enum_member(DieKind, data["kind"], "die kind")
    _die_numbers(data, name, _DIE_NUMBERS, fields)
    return _record(Die, fields)


def _record(cls, fields: dict):
    """``cls(**fields)`` for a frozen record type whose every field
    ``fields`` holds, in field order.

    ``fields`` becomes the record's ``__dict__``, so the caller hands
    over a dict of its own. This skips the frozen ``__init__``'s one
    ``object.__setattr__`` per field; ``__post_init__`` validates as
    ``__init__`` would have.
    """
    record = _new(cls)
    _set_attr(record, "__dict__", fields)
    record.__post_init__()
    return record


_new = object.__new__
_set_attr = object.__setattr__


def design_to_dict(design: ChipDesign) -> dict:
    """A full design as a JSON-ready dictionary."""
    data: dict = {
        "name": design.name,
        "integration": design.integration,
        "dies": [die_to_dict(die) for die in design.dies],
    }
    if design.stacking is not StackingStyle.NA:
        data["stacking"] = design.stacking.value
    if design.assembly is not AssemblyFlow.NA:
        data["assembly"] = design.assembly.value
    package: dict = {"class": design.package.package_class}
    if design.package.area_mm2 is not None:
        package["area_mm2"] = design.package.area_mm2
    data["package"] = package
    if design.throughput_tops is not None:
        data["throughput_tops"] = design.throughput_tops
    return data


def design_from_dict(data: dict) -> ChipDesign:
    """Inverse of :func:`design_to_dict`.

    Malformed records — missing keys, wrong container types, unknown
    ``integration``/``stacking``/``assembly``/``kind`` spellings — raise
    :class:`~repro.errors.DesignError` (never a bare ``ValueError``/
    ``TypeError`` traceback), so the CLI and the service can answer with
    typed error payloads.
    """
    if not isinstance(data, dict):
        raise DesignError(
            f"design record must be an object, got {type(data).__name__}"
        )
    if "name" not in data:
        raise DesignError("design record missing 'name'")
    _require_name(data["name"], "design 'name'")
    dies = data.get("dies")
    if not dies:
        raise DesignError("design record has no dies")
    if not isinstance(dies, (list, tuple)):
        raise DesignError(
            f"design 'dies' must be an array, got {type(dies).__name__}"
        )
    integration = data.get("integration", "2d")
    if not isinstance(integration, str) or not integration:
        raise DesignError(
            f"design 'integration' must be a technology name, "
            f"got {integration!r}"
        )
    package_data = data.get("package", {})
    if not isinstance(package_data, dict):
        raise DesignError(
            f"design 'package' must be an object, "
            f"got {type(package_data).__name__}"
        )
    package_class = package_data.get("class", "fcbga")
    _require_name(package_class, "design 'package' class")
    return _record(ChipDesign, {
        "name": data["name"],
        "dies": tuple([die_from_dict(d) for d in dies]),
        "integration": integration,
        "stacking": _enum_member(
            StackingStyle, data.get("stacking", "n/a"), "stacking style"
        ),
        "assembly": _enum_member(
            AssemblyFlow, data.get("assembly", "n/a"), "assembly flow"
        ),
        "package": _record(PackageSpec, {
            "package_class": package_class,
            "area_mm2": _optional_number(
                package_data.get("area_mm2"), "design 'package' area_mm2"
            ),
        }),
        "throughput_tops": _optional_number(
            data.get("throughput_tops"), "design 'throughput_tops'"
        ),
    })


def save_design(design: ChipDesign, path: "str | Path") -> None:
    """Write a design to a JSON file."""
    Path(path).write_text(
        json.dumps(design_to_dict(design), indent=2), encoding="utf-8"
    )


def load_design(path: "str | Path") -> ChipDesign:
    """Read a design from a JSON file."""
    return design_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
