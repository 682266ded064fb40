"""The declarative study vocabulary: one :class:`StudySpec` per request.

A spec is a frozen, wire-shaped description of one study in the
vocabulary every entry point (the :class:`~repro.api.session.Session`
facade, the HTTP service, the client, the CLI) speaks. Study kinds, their
wire types and their payload fields are declared once, in
:data:`repro.service.schema.STUDY_KINDS` (``carbon3d studies`` lists
them); the per-kind constructors below build each kind's spec.
``to_payload()`` renders exactly the versioned request JSON from the
table, and ``from_payload()`` reads it back after the server's own
validator accepted it. Because the local executor *parses the same
payload through the same schema module* the server uses, a spec means
the same study everywhere — location transparency by construction, not
by convention.

Designs are the CLI's documented JSON records (see
:mod:`repro.io.designs`) or :class:`~repro.core.design.ChipDesign`
instances; workloads are ``"av"``, ``"none"``/``None``, a
:class:`~repro.core.operational.Workload`, or a workload record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.design import ChipDesign
from ..errors import ParameterError
from ..io.designs import design_to_dict
from ..service import schema
from ..service.schema import (
    DEFAULT_SEED,
    SCHEMA_VERSION,
    STUDY_KINDS,
    StudyKind,
    workload_to_value,
)

#: API name → the kind's table entry.
_BY_NAME = {kind.name: kind for kind in STUDY_KINDS.values()}


def payload_kind(payload) -> StudyKind:
    """The table entry of a wire payload's ``type`` (ParameterError if
    the payload is not a dict or names no known kind)."""
    if not isinstance(payload, dict):
        raise ParameterError(
            f"a study payload must be a dict, got {type(payload).__name__}"
        )
    wire = payload.get("type")
    if not isinstance(wire, str) or wire not in STUDY_KINDS:
        known = ", ".join(STUDY_KINDS)
        raise ParameterError(
            f"unknown study payload type {wire!r} (known: {known})"
        )
    return STUDY_KINDS[wire]


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
    if "points" in dict(kind.fields):
        points = payload.get("points")
        if not isinstance(points, list):
            return payload
        return {**payload, "points": [
            {**point, "backend": backend}
            if isinstance(point, dict) and "backend" not in point else point
            for point in points
        ]}
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


@dataclass(frozen=True)
class StudySpec:
    """One declarative study, in wire shape (see the module docstring).

    Build specs with the per-kind constructors (:meth:`evaluate`,
    :meth:`batch`, :meth:`sweep`, :meth:`monte_carlo`, :meth:`compare`,
    :meth:`tornado`, :meth:`optimize`) rather than the raw dataclass:
    they are the one Python signature of each kind, whose defaults are
    the :data:`~repro.service.schema.STUDY_KINDS` ones, and they
    normalize designs/workloads into their wire records so
    ``to_payload()`` is pure assembly. A field the kind does not carry
    stays ``None``.
    """

    kind: str
    design: "dict | None" = None
    points: "tuple[dict, ...] | None" = None
    workload: "str | dict | None" = None
    fab_location: "str | float | None" = None
    label: "str | None" = None
    backend: "str | None" = None
    integrations: "tuple[str, ...] | None" = None
    fab_locations: "tuple | None" = None
    samples: "int | None" = None
    draws: "int | None" = None
    seed: "int | None" = None
    backends: "tuple[str, ...] | None" = None
    return_samples: "bool | None" = None
    #: Ask the service for a point stream (batch/sweep/optimize only);
    #: the local executor streams regardless, so this only shapes the
    #: HTTP reply.
    stream: "bool | None" = None
    #: optimize-only axes/knobs (None → the grid's documented defaults).
    die_counts: "tuple[int, ...] | None" = None
    wafer_diameters_mm: "tuple[float, ...] | None" = None
    max_configs: "int | None" = None
    chunk: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind not in _BY_NAME:
            known = ", ".join(_BY_NAME)
            raise ParameterError(
                f"unknown study kind {self.kind!r} (known: {known})"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def evaluate(
        cls,
        design,
        *,
        workload="av",
        fab_location=None,
        label: "str | None" = None,
        backend: "str | None" = None,
    ) -> "StudySpec":
        """One point → its full lifecycle report."""
        return cls(
            kind="evaluate",
            design=design_value(design),
            workload=workload_value(workload),
            fab_location=fab_location,
            label=label,
            backend=backend,
        )

    @classmethod
    def batch(
        cls, points, *, backend: "str | None" = None, stream: bool = False
    ) -> "StudySpec":
        """Many points, deduplicated. ``points``: designs, point records,
        or evaluate specs.

        ``backend`` is a default applied to points that do not name
        their own.
        """
        records = []
        for point in points:
            record = point_value(point)
            if backend is not None and "backend" not in record:
                record = {**record, "backend": backend}
            records.append(record)
        if not records:
            raise ParameterError("a batch needs at least one point")
        return cls(kind="batch", points=tuple(records), stream=stream)

    @classmethod
    def sweep(
        cls,
        design,
        *,
        integrations: "list[str] | None" = None,
        fab_locations: "list | None" = None,
        workload="av",
        backend: "str | None" = None,
        stream: bool = False,
    ) -> "StudySpec":
        """Integration × fab-location grid around a 2D reference."""
        return cls(
            kind="sweep",
            design=design_value(design),
            integrations=_sequence(integrations),
            fab_locations=_sequence(fab_locations),
            workload=workload_value(workload),
            backend=backend,
            stream=stream,
        )

    @classmethod
    def monte_carlo(
        cls,
        design,
        *,
        samples: int = 200,
        seed: int = DEFAULT_SEED,
        workload="av",
        fab_location=None,
        backend: "str | None" = None,
        return_samples: bool = False,
    ) -> "StudySpec":
        """Monte-Carlo band from the backend's own factor set."""
        return cls(
            kind="monte_carlo",
            design=design_value(design),
            workload=workload_value(workload),
            fab_location=fab_location,
            samples=samples,
            seed=seed,
            backend=backend,
            return_samples=return_samples,
        )

    @classmethod
    def compare(
        cls,
        design,
        *,
        backends: "list[str] | None" = None,
        workload="none",
        fab_location=None,
        draws: int = 0,
        seed: int = DEFAULT_SEED,
    ) -> "StudySpec":
        """One design across carbon backends (every registered one when
        ``backends`` is None); ``draws > 0`` adds per-backend
        Monte-Carlo bands."""
        return cls(
            kind="compare",
            design=design_value(design),
            backends=_sequence(backends),
            workload=workload_value(workload),
            fab_location=fab_location,
            draws=draws,
            seed=seed,
        )

    @classmethod
    def tornado(
        cls,
        design,
        *,
        workload="av",
        fab_location=None,
        backend: "str | None" = None,
    ) -> "StudySpec":
        """One-at-a-time sensitivity over the backend's own factors."""
        return cls(
            kind="tornado",
            design=design_value(design),
            workload=workload_value(workload),
            fab_location=fab_location,
            backend=backend,
        )

    @classmethod
    def optimize(
        cls,
        design,
        *,
        workload="av",
        integrations: "list[str] | None" = None,
        die_counts: "list[int] | None" = None,
        wafer_diameters_mm: "list[float] | None" = None,
        fab_locations: "list | None" = None,
        max_configs: "int | None" = None,
        chunk: "int | None" = None,
        seed: int = DEFAULT_SEED,
        stream: bool = False,
    ) -> "StudySpec":
        """Pareto-frontier search from a single-die 2D reference over
        (total carbon min, performance max, silicon cost min); ``None``
        axes take the grid defaults."""
        return cls(
            kind="optimize",
            design=design_value(design),
            workload=workload_value(workload),
            integrations=_sequence(integrations),
            die_counts=_sequence(die_counts),
            wafer_diameters_mm=_sequence(wafer_diameters_mm),
            fab_locations=_sequence(fab_locations),
            max_configs=max_configs,
            chunk=chunk,
            seed=seed,
            stream=stream,
        )

    # -- defaults ------------------------------------------------------------

    @property
    def info(self) -> StudyKind:
        """This spec's entry in the study-kind table."""
        return _BY_NAME[self.kind]

    def with_default_backend(self, backend: "str | None") -> "StudySpec":
        """This spec with a session-level default backend filled in
        (see :func:`fill_default_backend`)."""
        if backend is None or not self.info.default_backend:
            return self
        return self._from_fields(self.info, fill_default_backend(
            self.info, self.to_payload(), backend
        ))

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
        kind = payload_kind(payload)
        payload = {"schema": SCHEMA_VERSION, **payload}
        schema.parse_request(payload)
        return cls._from_fields(kind, payload)

    @classmethod
    def _from_fields(cls, kind: StudyKind, payload: dict) -> "StudySpec":
        fields = {}
        for name, default in kind.fields:
            value = payload.get(name, default)
            fields[name] = tuple(value) if isinstance(value, list) else value
        return cls(kind=kind.name, **fields)
