"""The declarative study vocabulary: one :class:`StudySpec` per request.

A spec is a frozen, wire-shaped description of one study in the
vocabulary every entry point (the :class:`~repro.api.session.Session`
facade, the HTTP service, the client, the CLI) speaks. Study kinds, their
wire types, payload fields and defaults are declared once, in
:data:`repro.service.schema.STUDY_KINDS` (``carbon3d studies`` lists
them), and this module builds each kind's spec from its entry: a frozen
dataclass holding ``kind`` and exactly that kind's fields, with the
table's defaults, and the constructor ``StudySpec.<name>(...)``, which
takes the required fields by position and every other one by keyword.

The spec stays in wire shape rather than holding the parsed request: a
field left unset stays unset (``backend=None`` is not ``"repro3d"``), so
a session default can fill it, and the caller's design record is sent
as given. ``to_payload()`` renders exactly the versioned request JSON
from the table, and ``from_payload()`` reads it back after the server's
own validator accepted it. Because the local executor *parses the same
payload through the same schema module* the server uses, a spec means
the same study everywhere — location transparency by construction, not
by convention.

Designs are the CLI's documented JSON records (see
:mod:`repro.io.designs`) or :class:`~repro.core.design.ChipDesign`
instances; workloads are ``"av"``, ``"none"``/``None``, a
:class:`~repro.core.operational.Workload`, or a workload record.
"""

from __future__ import annotations

import functools
from dataclasses import field, make_dataclass, replace

from ..core.design import ChipDesign
from ..errors import ParameterError
from ..io.designs import design_to_dict
from ..service import schema
from ..service.schema import (
    REQUIRED,
    SCHEMA_VERSION,
    STUDY_KINDS,
    StudyKind,
    workload_to_value,
)


def _with_backend(points, backend: str) -> list:
    """``points`` with ``backend`` set on each point record naming none."""
    return [
        {**point, "backend": backend}
        if isinstance(point, dict) and "backend" not in point else point
        for point in points
    ]


def fill_default_backend(
    kind: StudyKind, payload: dict, backend: "str | None"
) -> dict:
    """``payload`` with a default ``backend`` filled in where unset.

    An explicit backend, the request's or a batch point's, wins. Kinds
    the table marks as taking no default are left alone: ``compare``
    fans over backends by design, and the vectorized ``optimize`` search
    is 3D-Carbon-native. Malformed fields are left for the validator.
    """
    if backend is None or not kind.default_backend:
        return payload
    if "backend" not in kind.names:
        points = payload.get("points")
        if not isinstance(points, list):
            return payload
        return {**payload, "points": _with_backend(points, backend)}
    if payload.get("backend") is None:
        return {**payload, "backend": backend}
    return payload


def design_value(design) -> dict:
    """A design as its wire record (:class:`ChipDesign` or dict accepted)."""
    if isinstance(design, ChipDesign):
        return design_to_dict(design)
    if isinstance(design, dict):
        return design
    raise ParameterError(
        f"design must be a ChipDesign or a design JSON record, got "
        f"{type(design).__name__}"
    )


def workload_value(workload):
    """A workload as its wire value (``"av"``/``"none"``/record)."""
    if workload is None:
        return "none"
    if isinstance(workload, (str, dict)):
        return workload
    return workload_to_value(workload)


def _sequence(values) -> "tuple | None":
    """A list-valued field as a tuple (``None`` stays ``None``)."""
    return None if values is None else tuple(values)


def point_value(point) -> dict:
    """One batch point as its wire record.

    Accepts a :class:`ChipDesign`, a bare design record, an
    evaluate-shaped :class:`StudySpec`, or an already-wire-shaped point
    record (``{"design": ..., "workload": ..., ...}``).
    """
    if isinstance(point, StudySpec):
        if point.kind != "evaluate":
            raise ParameterError(
                f"batch points must be evaluate specs, got {point.kind!r}"
            )
        record = dict(point.to_payload())
        record.pop("schema", None)
        record.pop("type", None)
        return record
    if isinstance(point, ChipDesign):
        return {"design": design_to_dict(point)}
    if isinstance(point, dict):
        if "design" in point:
            return point
        return {"design": point}
    raise ParameterError(
        f"a batch point must be a design, a point record, or an evaluate "
        f"spec, got {type(point).__name__}"
    )


def _points(points) -> "tuple[dict, ...]":
    records = tuple(point_value(point) for point in points)
    if not records:
        raise ParameterError("a batch needs at least one point")
    return records


#: Field name → its wire value from what a caller passes. A field not
#: named here is held as given.
_WIRE_VALUES = {
    "design": design_value,
    "workload": workload_value,
    "points": _points,
    "integrations": _sequence,
    "fab_locations": _sequence,
    "backends": _sequence,
    "die_counts": _sequence,
    "wafer_diameters_mm": _sequence,
}


class StudySpec:
    """One declarative study, in wire shape (see the module docstring).

    ``StudySpec(kind, **fields)`` builds the spec of the kind whose API
    name is ``kind``; a field that kind does not carry is a
    ``TypeError``. Each kind's spec is a frozen dataclass of its own,
    generated from the kind's table entry (:attr:`info`), whose fields
    are ``kind`` and the payload fields with the table's defaults; a
    value is held as its wire value (a :class:`ChipDesign` as its
    record, a list as a tuple). ``StudySpec.<name>(...)`` is the same
    with the required fields taken by position.
    """

    __slots__ = ()

    #: This spec's entry in the study-kind table (set per kind).
    info: StudyKind

    def __new__(cls, kind: str, **fields):
        if cls is StudySpec:
            cls = _spec_class(kind)
        return object.__new__(cls)

    def __post_init__(self) -> None:
        if self.kind != self.info.name:
            raise ParameterError(
                f"a {self.info.name} spec cannot be of kind {self.kind!r}"
            )
        for name in self.info.names:
            to_wire = _WIRE_VALUES.get(name)
            if to_wire is not None:
                object.__setattr__(self, name, to_wire(getattr(self, name)))

    # -- wire round-trip -----------------------------------------------------

    def to_payload(self) -> dict:
        """Exactly the versioned service request JSON for this study.

        The kind's fields in table order: a field with a default is
        always sent, an optional one (default ``None`` or ``False``) only
        when set to another value than ``None`` or its default.
        """
        payload: dict = {"schema": SCHEMA_VERSION, "type": self.info.wire}
        for name, default in self.info.fields:
            value = getattr(self, name)
            always = default is not None and default is not False
            if always or value is not None and value != default:
                if isinstance(value, tuple):
                    value = list(value)
                payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload) -> "StudySpec":
        """The inverse of :meth:`to_payload` (wire request → spec).

        The payload is validated by the server's own parser, so a spec
        exists only for a request the service would accept; a missing
        ``schema`` defaults to the current version.
        """
        if isinstance(payload, dict):
            payload = {"schema": SCHEMA_VERSION, **payload}
        schema.parse_request(payload)
        kind = STUDY_KINDS[payload["type"]]
        return _generated_spec_class(kind)(kind.name, **{
            name: payload[name] for name in kind.names if name in payload
        })


def _spec_class(name: str) -> type:
    """The spec class of the kind whose API name is ``name``."""
    kinds = {kind.name: kind for kind in STUDY_KINDS.values()}
    if name not in kinds:
        raise ParameterError(
            f"unknown study kind {name!r} (known: {', '.join(kinds)})"
        )
    return _generated_spec_class(kinds[name])


@functools.cache
def _generated_spec_class(kind: StudyKind) -> type:
    """A frozen dataclass of ``kind`` and the kind's fields, built once
    per kind, so that specs of one kind share one class."""
    title = "".join(part.title() for part in kind.name.split("_"))
    cls = make_dataclass(
        f"{title}Spec",
        [("kind", str, field(default=kind.name))] + [
            (name, object, field(kw_only=True) if default is REQUIRED
             else field(default=default, kw_only=True))
            for name, default in kind.fields
        ],
        bases=(StudySpec,), namespace={"info": kind}, frozen=True,
    )
    cls.__module__ = __name__
    return cls


def _build(kind: StudyKind, values: dict) -> StudySpec:
    """A ``kind`` spec from its constructor's arguments."""
    backend = None
    if "backend" not in kind.names:
        backend = values.pop("backend", None)
    spec = _generated_spec_class(kind)(kind.name, **values)
    if backend is None:
        return spec
    # A batch-wide backend: a default for the points that name none.
    return replace(spec, points=tuple(_with_backend(spec.points, backend)))


def _constructor(kind: StudyKind) -> classmethod:
    """``StudySpec.<name>``: the required fields by position, the rest
    by keyword with the table's defaults."""
    return classmethod(kind.function(
        f"StudySpec.{kind.name}", lambda cls, values: _build(kind, values),
        f"A {kind.name} spec: {kind.summary}.",
    ))


for _kind in STUDY_KINDS.values():
    setattr(StudySpec, _kind.name, _constructor(_kind))
del _kind
