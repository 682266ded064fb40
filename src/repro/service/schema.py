"""Versioned JSON request/response schemas for the evaluation service.

Every request carries ``{"schema": 1, "type": <kind>, ...}``; the parser
is *strict* — unknown keys, wrong types, out-of-range values and unknown
enum spellings are rejected with a :class:`SchemaError` carrying a typed,
JSON-ready payload (``{"type": "SchemaError", "message": ..., "field":
...}``) instead of a traceback. Design payloads reuse the CLI's documented
JSON schema via :func:`repro.io.designs.design_from_dict`.

Request kinds:

* ``evaluate`` — one (design, workload, fab location) point → a full
  lifecycle report (bit-identical to ``CarbonModel.evaluate``);
* ``batch`` — a list of evaluate points, deduplicated and coalesced onto
  one :class:`repro.engine.BatchEvaluator` pass;
* ``sweep`` — a 2D reference design × integration options × fab
  locations, expanded server-side into a batch;
* ``montecarlo`` — a Monte-Carlo uncertainty summary (mean/std/
  percentiles) over the chosen backend's *own* factor set (Table 2 for
  3D-Carbon, the ACT intensity table under ``"backend": "act"``, ...);
  with ``"return_samples": true`` the full draw distribution rides along;
* ``compare`` — one design across all (or listed) backends in a single
  server-side engine call; with ``"draws" > 0`` each backend's entry
  carries a Monte-Carlo uncertainty band drawn from that backend's own
  factor set;
* ``tornado`` — the one-at-a-time sensitivity study: every factor of the
  chosen backend's own set swung to its low/high extreme, results sorted
  by swing;
* ``optimize`` — a 2D reference expanded over the case-study axes
  (integration × division × die count × assembly × wafer size × fab
  location) and searched for the carbon/performance/cost Pareto front
  through the vectorized core (:class:`repro.analysis.ParetoSearch`).

``batch`` and ``sweep`` additionally accept ``"stream": true`` — the
server then answers newline-delimited JSON (one header line, one line
per point *as it finishes*, one terminator line) instead of a single
enveloped array; ``optimize`` streams one front snapshot per evaluated
chunk the same way; see :mod:`repro.service.server`.

Every request kind accepts an optional ``"backend"`` — a registered
:mod:`repro.pipeline` backend id (``repro3d`` by default, or one of the
Sec. 4 baselines ``act`` / ``act_plus`` / ``lca`` / ``first_order``).
Unknown names answer with the registry's typed ``BackendError`` payload.
Exceptions: ``compare`` takes a ``backends`` *list*, and ``optimize``
always prices through ``repro3d`` (the vectorized core's scalar twin).

Responses are enveloped: ``{"schema": 1, "ok": true, "result": ...}``
plus a ``cache`` tag (``"store"`` / ``"computed"`` / ``"coalesced"``)
describing where the answer came from, or
``{"schema": 1, "ok": false, "error": {...}}`` with a typed error.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, make_dataclass
from typing import Callable

from ..config.integration import TABLE1_INTEGRATIONS
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import CarbonModelError, ParameterError
from ..io.designs import design_from_dict, finite
from ..pipeline.registry import DEFAULT_BACKEND, get_backend
from ..seeds import DEFAULT_SEED
from ..tenancy.namespace import active_tenant
from .store import canonical_text

#: Version of the request/response wire format. Bump on breaking changes;
#: the persistent store keys include it, so stale cached payloads can
#: never serve a newer schema.
SCHEMA_VERSION = 1

#: Service-side guard rails (a batch of millions belongs in a file, not
#: one HTTP body).
MAX_BATCH_POINTS = 10_000
MAX_MC_SAMPLES = 100_000

#: ``/optimize`` expands its grid server-side through the vectorized
#: core, so its ceiling sits far above the per-point batch limit.
MAX_GRID_POINTS = 1_000_000

#: Header carrying a per-request deadline budget in milliseconds; the
#: server threads it through the dispatcher as a cooperative
#: :class:`~repro.resilience.Deadline` and answers overruns with a typed
#: 504 payload.
DEADLINE_HEADER = "X-Carbon3D-Deadline-Ms"



class SchemaError(CarbonModelError):
    """A request violates the wire schema (bad key, type, or value)."""

    def __init__(self, message: str, field: "str | None" = None) -> None:
        super().__init__(message)
        self.field = field


class AuthError(CarbonModelError):
    """The request lacks a valid token while the token registry enforces.

    Served as a typed 401 payload; the client surfaces it as a
    :class:`~repro.service.client.ServiceError` with ``status == 401``.
    """


class OverloadedError(CarbonModelError):
    """The service shed this request (admission queue full, or draining).

    Served as a typed 503 payload with a ``Retry-After`` header;
    ``retry_after_s`` repeats the header value in the body so typed
    clients need not reach back into transport headers.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


#: Optional typed-error attributes lifted into the wire payload when the
#: exception carries them (``OverloadedError.retry_after_s``,
#: ``EvaluationTimeout.budget_s``/``elapsed_s``, ``SchemaError.field``,
#: ``QuotaExceededError.tenant``/``reason``).
_ERROR_ATTRS = (
    "field", "retry_after_s", "budget_s", "elapsed_s", "tenant", "reason"
)


def error_payload(error: Exception) -> dict:
    """The typed, JSON-ready description of an error."""
    payload: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    for attr in _ERROR_ATTRS:
        value = getattr(error, attr, None)
        if value is not None:
            payload[attr] = value
    return payload


class EncodedJSON(str):
    """JSON text produced by ``json.dumps`` with default settings.

    ``Dispatcher.evaluate(..., encoded=True)`` hands a store hit back in
    this form, and ``Dispatcher.batch``/``sweep`` every entry's report,
    so the envelope can carry it as is: :func:`dumps_envelope` splices
    the text where ``json.dumps`` would have rendered the decoded value,
    and the bytes come out the same (``json.dumps`` of ``json.loads`` of
    such text reproduces it exactly).
    """

    __slots__ = ()


def ok_envelope(result, **extra) -> dict:
    """A success response envelope."""
    envelope: dict = {"schema": SCHEMA_VERSION, "ok": True}
    envelope.update(extra)
    envelope["result"] = result
    return envelope


def dumps_envelope(envelope: dict) -> str:
    """``json.dumps(envelope)``, with :class:`EncodedJSON` text spliced
    in verbatim instead of decoded and re-encoded.

    The text is the result itself (``/evaluate``) or sits in a result
    list (the entry reports of ``/batch`` and ``/sweep``); any other
    result is encoded by ``json.dumps`` alone.
    """
    result = envelope.get("result")
    if type(result) is not EncodedJSON and type(result) is not list:
        return json.dumps(envelope)
    return _splice(envelope)


#: ``json.dumps`` of a plain ``str``, minus the encoder set-up per call.
_json_string = json.encoder.encode_basestring_ascii


def _splice(value) -> str:
    """``json.dumps(value)``, copying :class:`EncodedJSON` text as is.

    Walks dicts (with string keys) and lists to find the text; every
    other value is rendered by ``json.dumps`` with its default settings.
    """
    cls = type(value)
    if cls is EncodedJSON:
        return value
    if cls is str:
        return _json_string(value)
    if cls is list:
        return "[" + ", ".join([_splice(item) for item in value]) + "]"
    if cls is dict and all(type(name) is str for name in value):
        return "{" + ", ".join([
            f"{_json_string(name)}: {_splice(item)}"
            for name, item in value.items()
        ]) + "}"
    return json.dumps(value)


def error_envelope(error: Exception) -> dict:
    """A failure response envelope with the typed error payload."""
    return {
        "schema": SCHEMA_VERSION,
        "ok": False,
        "error": error_payload(error),
    }


# -- field helpers -----------------------------------------------------------

#: The default of a payload field every request must carry.
REQUIRED = object()


def _reject_unknown(data: dict, allowed: "tuple[str, ...]",
                    where: str) -> None:
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise SchemaError(
            f"{where}: unknown key(s) {', '.join(sorted(map(repr, unknown)))}"
            f" (allowed: {', '.join(allowed)})",
            field=f"{where}.{sorted(unknown)[0]}",
        )


def _require_mapping(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(
            f"{where} must be a JSON object, got {type(data).__name__}",
            field=where,
        )
    return data


def _check_envelope(data: dict, expected_type: "str | None") -> str:
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"request must carry \"schema\": {SCHEMA_VERSION}, got "
            f"{version!r}",
            field="schema",
        )
    return payload_kind(data, expected_type).wire


def payload_kind(data: dict, expected_type: "str | None" = None) -> "StudyKind":
    """The table entry of a request's ``type``.

    A ``type`` that is missing, not a string, not in
    :data:`STUDY_KINDS` or not ``expected_type`` (when given) is a
    :class:`SchemaError` with ``field="type"``: the one check of the
    field, on the server and in every session.
    """
    wire = data.get("type")
    if not isinstance(wire, str) or wire not in STUDY_KINDS:
        raise SchemaError(
            f"request \"type\" must be one of {', '.join(STUDY_KINDS)}, "
            f"got {wire!r}",
            field="type",
        )
    if expected_type is not None and wire != expected_type:
        raise SchemaError(
            f"endpoint expects a {expected_type!r} request, got {wire!r}",
            field="type",
        )
    return STUDY_KINDS[wire]


def _number(value, where: str, minimum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(
            f"{where} must be a number, got {type(value).__name__}",
            field=where,
        )
    if not finite(value):
        raise SchemaError(f"{where} must be finite, got {value}",
                          field=where)
    if minimum is not None and value <= minimum:
        raise SchemaError(f"{where} must be > {minimum}, got {value}",
                          field=where)
    return float(value)


def _integer(value, where: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            f"{where} must be an integer, got {type(value).__name__}",
            field=where,
        )
    if not minimum <= value <= maximum:
        raise SchemaError(
            f"{where} must lie in [{minimum}, {maximum}], got {value}",
            field=where,
        )
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(
            f"{where} must be a boolean, got {type(value).__name__}",
            field=where,
        )
    return value


def backend_from_value(value, where: str = "backend") -> str:
    """The ``backend`` field: a registered backend id (default repro3d).

    Unknown names raise the registry's typed
    :class:`~repro.errors.BackendError` — the service maps it to a 400
    payload carrying the known alternatives, same as the CLI and engine.
    """
    if value is None:
        return DEFAULT_BACKEND
    if not isinstance(value, str) or not value:
        raise SchemaError(
            f"{where} must be a backend name, got {value!r}", field=where
        )
    get_backend(value)  # raises BackendError for unknown names
    return value


def _location(value, where: str):
    """A grid location: a name or a raw g CO₂/kWh number."""
    if isinstance(value, str) and value:
        return value
    if (not isinstance(value, bool) and isinstance(value, (int, float))
            and finite(value)):
        return float(value)
    raise SchemaError(
        f"{where} must be a grid name or a g CO2/kWh number, got {value!r}",
        field=where,
    )


def _array(values, where: str, kind: str, of: str = " of names",
           item=None) -> "tuple | None":
    """An optional non-empty array field of a ``kind`` request.

    ``item(value, where)`` parses each entry; without one, entries must
    be non-empty strings. ``None`` stays ``None`` (the field is unset).
    """
    if values is None:
        return None
    if not isinstance(values, list) or not values or item is None and not all(
        isinstance(value, str) and value for value in values
    ):
        raise SchemaError(
            f"{kind} \"{where}\" must be a non-empty array{of}", field=where
        )
    if item is None:
        return tuple(values)
    return tuple(
        item(value, f"{where}[{index}]") for index, value in enumerate(values)
    )


# -- workload ----------------------------------------------------------------

_WORKLOAD_KEYS = ("name", "total_tera_ops", "use_location", "lifetime_years")

#: The workload ``"av"`` names: one shared (frozen) record, so every
#: request that names it carries this very object.
AV_WORKLOAD = Workload.autonomous_vehicle()

#: ``id(workload)`` → ``(workload, canonical text)`` of every named
#: workload, rendered once: a store key takes the text (see
#: :meth:`repro.service.dispatcher.Dispatcher._point_key`).
NAMED_WORKLOAD_TEXTS = {
    id(AV_WORKLOAD): (AV_WORKLOAD, canonical_text(AV_WORKLOAD)),
}


def workload_from_value(value, where: str = "workload") -> "Workload | None":
    """Parse the ``workload`` field: ``"av"``, ``"none"``/null, or a record."""
    if value is None or value == "none":
        return None
    if value == "av":
        return AV_WORKLOAD
    if isinstance(value, str):
        raise SchemaError(
            f'{where} must be "av", "none", null or a workload object, '
            f"got {value!r}",
            field=where,
        )
    data = _require_mapping(value, where)
    _reject_unknown(data, _WORKLOAD_KEYS, where)
    for key in ("name", "total_tera_ops"):
        if key not in data:
            raise SchemaError(f"{where} record missing {key!r}",
                              field=f"{where}.{key}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{where}.name must be a non-empty string",
                          field=f"{where}.name")
    kwargs: dict = {
        "name": name,
        "total_tera_ops": _number(
            data["total_tera_ops"], f"{where}.total_tera_ops", minimum=0.0
        ),
    }
    if "use_location" in data:
        kwargs["use_location"] = _location(
            data["use_location"], f"{where}.use_location"
        )
    if "lifetime_years" in data:
        kwargs["lifetime_years"] = _number(
            data["lifetime_years"], f"{where}.lifetime_years", minimum=0.0
        )
    return Workload(**kwargs)


def workload_to_value(workload: "Workload | None"):
    """Inverse of :func:`workload_from_value` (records stay records)."""
    if workload is None:
        return None
    if workload == AV_WORKLOAD:
        return "av"
    return {
        "name": workload.name,
        "total_tera_ops": workload.total_tera_ops,
        "use_location": workload.use_location,
        "lifetime_years": workload.lifetime_years,
    }


# -- requests ----------------------------------------------------------------


@dataclass(frozen=True)
class EvaluateRequest:
    """One evaluation point, fully resolved from the wire format."""

    design: ChipDesign
    workload: "Workload | None"
    fab_location: "str | float | None"
    label: "str | None" = None
    backend: str = DEFAULT_BACKEND
    #: ``(design, canonical_text(design))`` when the request was parsed
    #: from the wire: the design's store-key text, rendered once at
    #: parse. A key takes it only while ``design`` is that very object.
    design_text: "tuple[ChipDesign, str] | None" = field(
        default=None, init=False, compare=False, repr=False
    )


def _wire_point(fields: dict) -> EvaluateRequest:
    """An evaluate point parsed from the wire, with its design's text."""
    request = EvaluateRequest(**fields)
    design = request.design
    object.__setattr__(
        request, "design_text", (design, canonical_text(design))
    )
    return request


# -- field rules -------------------------------------------------------------


def _design(value, where: str, kind: str) -> ChipDesign:
    if value is REQUIRED:
        # An evaluate point's fields carry its name ("request.design",
        # "points[0].design"); another kind's are bare.
        owner = where.rpartition(".")[0] or f"{kind} request"
        raise SchemaError(f"{owner} missing \"design\"", field=where)
    return design_from_dict(_require_mapping(value, where))


def _label(value, where: str, kind: str) -> "str | None":
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"{where} must be a string", field=where)
    return value


def _points(value, where: str, kind: str) -> "tuple[EvaluateRequest, ...]":
    if not isinstance(value, list) or not value:
        raise SchemaError(
            f"{kind} request needs a non-empty \"points\" array", field=where
        )
    if len(value) > MAX_BATCH_POINTS:
        raise SchemaError(
            f"{kind} is limited to {MAX_BATCH_POINTS} points per request, "
            f"got {len(value)}",
            field=where,
        )
    point = STUDY_KINDS["evaluate"]
    parsed = []
    for index, data in enumerate(value):
        at = f"{where}[{index}]"
        data = _require_mapping(data, at)
        # A point is an evaluate request without the envelope keys.
        parsed.append(_wire_point(
            _fields(point, data, point.names, at, f"{at}.")
        ))
    return tuple(parsed)


def _draws(value, where: str, kind: str) -> int:
    draws = _integer(value, where, 0, MAX_MC_SAMPLES)
    if draws == 1:
        raise SchemaError(
            f"{kind} \"{where}\" must be 0 (no bands) or >= 2", field=where
        )
    return draws


def _limit(value, where: str, kind: str) -> "int | None":
    """An optional grid-size knob (``max_configs``, ``chunk``)."""
    return None if value is None else _integer(
        value, where, 1, MAX_GRID_POINTS
    )


#: Field name → its rule, ``rule(value, where, kind)``: the value of the
#: field in a request of wire type ``kind`` (its :data:`STUDY_KINDS`
#: default when absent) → the parsed value, with errors naming the field
#: ``where``. One rule per name, in whichever kinds carry the field.
FIELD_RULES = {
    "design": _design,
    "workload": lambda value, where, kind: workload_from_value(value, where),
    "fab_location": lambda value, where, kind: (
        None if value is None else _location(value, where)
    ),
    "label": _label,
    "backend": lambda value, where, kind: backend_from_value(value, where),
    "points": _points,
    "stream": lambda value, where, kind: _boolean(value, where),
    "integrations": lambda value, where, kind: _array(value, where, kind),
    "fab_locations": lambda value, where, kind: _array(
        value, where, kind, "", _location
    ),
    # The engine needs >= 2 draws for a distribution summary.
    "samples": lambda value, where, kind: _integer(
        value, where, 2, MAX_MC_SAMPLES
    ),
    # numpy's default_rng rejects negative seeds.
    "seed": lambda value, where, kind: _integer(value, where, 0, 2**62),
    "return_samples": lambda value, where, kind: _boolean(value, where),
    "backends": lambda value, where, kind: _array(
        value, where, kind, " of backend names", backend_from_value
    ),
    "draws": _draws,
    "die_counts": lambda value, where, kind: _array(
        value, where, kind, " of integers",
        lambda count, at: _integer(count, at, 2, 64),
    ),
    "wafer_diameters_mm": lambda value, where, kind: _array(
        value, where, kind, " of numbers",
        lambda diameter, at: _number(diameter, at, minimum=0.0),
    ),
    "max_configs": _limit,
    "chunk": _limit,
}


def _fields(kind: "StudyKind", data: dict, allowed: "tuple[str, ...]",
            where: str, prefix: str = "") -> dict:
    """Every field of a ``kind`` record in ``data``, parsed by its rule.

    ``allowed`` are the keys ``data`` may carry, ``where`` names ``data``
    in an unknown-key error, and ``prefix`` goes before each field name
    in a field's errors.
    """
    _reject_unknown(data, allowed, where)
    fields = {}
    defaults = kind.defaults
    for name, default in kind.fields:
        if name in defaults and name not in data:
            fields[name] = defaults[name]
        else:
            fields[name] = FIELD_RULES[name](
                data.get(name, default), prefix + name, kind.wire
            )
    return fields


def _sweep_request(fields: dict):
    """Sweep's post-parse step: unset axes take their defaults (every
    Table 1 integration; the server's fab location), and the expanded
    grid must fit in one batch."""
    if fields["integrations"] is None:
        fields["integrations"] = TABLE1_INTEGRATIONS
    if fields["fab_locations"] is None:
        fields["fab_locations"] = (None,)
    if (len(fields["integrations"]) * len(fields["fab_locations"])
            > MAX_BATCH_POINTS):
        raise SchemaError(
            f"sweep expands past the {MAX_BATCH_POINTS}-point batch limit",
            field="integrations",
        )
    return STUDY_KINDS["sweep"].record(**fields)


# -- the study-kind table ----------------------------------------------------


@dataclass(frozen=True)
class StudyKind:
    """One study kind, declared once, keyed by its wire ``type``.

    The entry is the only declaration of the kind's fields and their
    defaults; everything else is built from it. The server routes
    ``POST /<wire>`` (:func:`route_kind`), :func:`parse_request` parses
    through :meth:`parse` into :attr:`record`, ``Dispatcher.run`` and
    ``Dispatcher.stream`` call ``Dispatcher.<wire>`` and
    ``Dispatcher.stream_<wire>``, and :mod:`repro.api.spec` builds the
    kind's spec class. These read :data:`STUDY_KINDS` when they are
    called, so a kind added to it runs through ``Session.run`` and the
    server with its ``Dispatcher.<wire>`` handler alone. The per-kind
    methods ``StudySpec.<name>``, ``Session.<name>``,
    ``ServiceClient.<wire>`` and ``ServiceClient.stream_<wire>`` are
    generated (:meth:`function`) for each kind declared here.

    * ``name`` — the API name (``StudySpec.kind``, the ``Session`` method);
    * ``result`` — the result shape (``points`` is a batch-like list of
      point entries; every other shape is one object);
    * ``fields`` — ``(payload field, default)`` pairs in payload order;
      :data:`REQUIRED` marks a field with no default. A field whose
      default is ``None`` or ``False`` is sent only when set. Each field
      is parsed by its name's rule in :data:`FIELD_RULES`, so a kind
      whose fields all have rules needs no parsing code of its own;
    * ``streams`` — ``"stream": true`` answers NDJSON entries;
    * ``cached`` — the result envelope carries a ``cache`` tag;
    * ``encoded`` — the handler can hand reports back as
      :class:`EncodedJSON` text for the envelope to splice in;
    * ``default_backend`` — a session-wide default backend applies;
    * ``prefix`` — goes before a field's name in its errors;
    * ``record`` — the parsed request's class. Left unset, it is
      generated: a frozen dataclass named ``<Name>Request`` whose
      keyword-only attributes are the fields, each defaulting to what
      its absence parses to;
    * ``build`` — the kind's post-parse step, parsed fields → record
      (default: ``record(**fields)``).
    """

    wire: str
    name: str
    result: str
    summary: str
    fields: tuple
    streams: bool = False
    cached: bool = True
    encoded: bool = False
    default_backend: bool = True
    prefix: str = ""
    record: "type | None" = None
    build: "Callable[[dict], object] | None" = None

    def __post_init__(self) -> None:
        if self.record is None:
            object.__setattr__(self, "record", self._record_class())

    @property
    def route(self) -> str:
        return f"/{self.wire}"

    @functools.cached_property
    def names(self) -> "tuple[str, ...]":
        """The payload field names, in payload order."""
        return tuple(name for name, _ in self.fields)

    @functools.cached_property
    def keys(self) -> "tuple[str, ...]":
        """Every key a request of this kind may carry."""
        return ("schema", "type") + self.names

    @functools.cached_property
    def defaults(self) -> dict:
        """Field name → the value an absent field parses to, for every
        field with a default: its rule's value for it, computed once."""
        return {
            name: FIELD_RULES[name](default, name, self.wire)
            for name, default in self.fields if default is not REQUIRED
        }

    @functools.cached_property
    def arguments(self) -> "tuple[tuple[str, object], ...]":
        """``(name, default)`` of each argument of the kind's Python
        call, ``StudySpec.<name>``, and of the ``Session`` and
        ``ServiceClient`` methods that forward to it: the fields,
        required ones first. A kind that takes a session default backend
        but carries the backend on its points (batch) takes a
        ``backend`` too: the default for the points that name none."""
        arguments = sorted(
            self.fields, key=lambda argument: argument[1] is not REQUIRED
        )
        if self.default_backend and "backend" not in self.names:
            arguments.append(("backend", None))
        return tuple(arguments)

    def function(self, qualname: str, call, doc: str):
        """A function named ``qualname`` that takes ``self`` (or ``cls``)
        and the kind's :attr:`arguments` and returns ``call(self,
        arguments)``, the arguments as a dict.

        A required argument comes by position or keyword, every other by
        keyword with its default. The code is generated, as a dataclass
        ``__init__`` is, so the signature is a real one and a misuse
        fails with Python's own ``TypeError``, naming ``qualname``.
        """
        required = [name for name, default in self.arguments
                    if default is REQUIRED]
        keywords = [f"{name}=_defaults[{name!r}]"
                    for name, default in self.arguments
                    if default is not REQUIRED]
        parameters = ", ".join(
            ["self", *required, *(["*", *keywords] if keywords else [])]
        )
        values = ", ".join(f"{name!r}: {name}" for name, _ in self.arguments)
        name = qualname.rpartition(".")[2]
        namespace = {"_call": call, "_defaults": dict(self.arguments)}
        exec(
            f"def {name}({parameters}):\n"
            f"    return _call(self, {{{values}}})\n",
            namespace,
        )
        function = namespace[name]
        function.__qualname__ = qualname
        function.__doc__ = doc
        return function

    def _record_class(self) -> type:
        title = "".join(part.title() for part in self.name.split("_"))
        record = make_dataclass(f"{title}Request", [
            (name, object, field(kw_only=True) if default is REQUIRED
             else field(default=self.defaults[name], kw_only=True))
            for name, default in self.fields
        ], frozen=True)
        record.__module__ = __name__
        return record

    def parse(self, data: dict):
        """The record of a request of this kind whose envelope is
        checked: each field parsed by its rule, absent ones defaulted,
        then the post-parse step."""
        fields = _fields(self, data, self.keys, "request", self.prefix)
        if self.build is None:
            return self.record(**fields)
        return self.build(fields)


_POINT_FIELDS = (
    ("design", REQUIRED), ("workload", "av"), ("fab_location", None),
)

STUDY_KINDS: "dict[str, StudyKind]" = {kind.wire: kind for kind in (
    StudyKind(
        "evaluate", "evaluate", "report",
        "one (design, workload, fab location) lifecycle report",
        _POINT_FIELDS + (("label", None), ("backend", None)),
        encoded=True,
        # Its fields are named as a batch point's are: "request.<field>".
        prefix="request.", record=EvaluateRequest, build=_wire_point,
    ),
    StudyKind(
        "batch", "batch", "points",
        "many evaluate points, deduplicated; streamable",
        (("points", REQUIRED), ("stream", False)),
        streams=True, cached=False, encoded=True,
    ),
    StudyKind(
        "sweep", "sweep", "points",
        "2D reference x integrations x fab locations; streamable",
        (("design", REQUIRED), ("integrations", None),
         ("fab_locations", None), ("workload", "av"), ("backend", None),
         ("stream", False)),
        streams=True, cached=False, encoded=True, build=_sweep_request,
    ),
    StudyKind(
        "montecarlo", "monte_carlo", "summary",
        "Monte-Carlo band from the backend's own factor set",
        _POINT_FIELDS + (("samples", 200), ("seed", DEFAULT_SEED),
                         ("backend", None), ("return_samples", False)),
    ),
    StudyKind(
        "compare", "compare", "table",
        "one design across carbon backends, optional MC bands",
        (("design", REQUIRED), ("backends", None), ("workload", "none"),
         ("fab_location", None), ("draws", 0), ("seed", DEFAULT_SEED)),
        cached=False, default_backend=False,
    ),
    StudyKind(
        "tornado", "tornado", "swings",
        "one-at-a-time sensitivity over the backend's factors",
        _POINT_FIELDS + (("backend", None),),
    ),
    StudyKind(
        "optimize", "optimize", "front",
        "vectorized Pareto search over the design grid; streamable",
        (("design", REQUIRED), ("workload", "av"), ("integrations", None),
         ("die_counts", None), ("wafer_diameters_mm", None),
         ("fab_locations", None), ("max_configs", None), ("chunk", None),
         ("seed", DEFAULT_SEED), ("stream", False)),
        streams=True, default_backend=False,
    ),
)}


def route_kind(path: str) -> "StudyKind | None":
    """The kind whose route is ``path`` (``/<wire>``), or None."""
    return STUDY_KINDS.get(path[1:]) if path[:1] == "/" else None


def streaming_kind(wire) -> StudyKind:
    """The kind of a ``wire`` type that streams (ParameterError if not)."""
    kind = STUDY_KINDS.get(wire) if isinstance(wire, str) else None
    if kind is None or not kind.streams:
        names = "/".join(
            other.wire for other in STUDY_KINDS.values() if other.streams
        )
        raise ParameterError(f"only {names} studies stream, got {wire!r}")
    return kind


def decode_body(body: bytes):
    """The JSON value of a request body (SchemaError if it has none)."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: nesting too deep for the decoder's C stack
        # guard is as malformed as any other unreadable body.
        raise SchemaError(f"request body is not valid JSON: {error}") from None


#: ``/evaluate`` bodies up to this many bytes are remembered (see
#: :func:`parse_request`); a larger body is parsed every time.
PARSE_MEMO_BODY_MAX = 4096

#: Bound on the remembered bodies, across tenants; the memo is emptied
#: when it fills. Worst case it pins ``PARSE_MEMO_MAX`` ×
#: ``PARSE_MEMO_BODY_MAX`` = 4 MiB of body bytes plus their parses. (A
#: tenant can tell the memo was emptied, never which bodies it held.)
PARSE_MEMO_MAX = 1024

#: (tenant, body bytes) → the request they parsed to. Handler threads
#: share it unlocked: a race costs a lost entry (one parse) or an
#: overshoot of the bound by one entry per thread, never a wrong hit.
_PARSED: "dict[tuple[str, bytes], EvaluateRequest]" = {}

#: ``id(request)`` → request, for every request :data:`_PARSED` has
#: handed out (see :func:`remembered`); emptied with it.
_REMEMBERED: "dict[int, EvaluateRequest]" = {}


def remembered(request) -> bool:
    """Whether ``request`` is the remembered parse of an ``/evaluate``
    body, so it comes back, as this very object, for every repeat."""
    return _REMEMBERED.get(id(request)) is request


def _parse_evaluate_body(body: bytes) -> EvaluateRequest:
    """An ``/evaluate`` body → its request, remembered per tenant.

    The active tenant is part of the memo key, as it is of the store
    key: a hit never tells one tenant what another has sent.
    """
    memo_key = (active_tenant(), body)
    request = _PARSED.get(memo_key)
    if request is not None:
        # A parse reads one registry, the backends': look the backend up
        # again, so a hit raises what a fresh parse of the bytes would.
        get_backend(request.backend)
        return request
    data = _require_mapping(decode_body(body), "request")
    request = STUDY_KINDS[_check_envelope(data, "evaluate")].parse(data)
    if len(_PARSED) >= PARSE_MEMO_MAX:
        _PARSED.clear()
        _REMEMBERED.clear()
    _PARSED[memo_key] = request
    _REMEMBERED[id(request)] = request
    return request


def parse_request(data, expected: "str | None" = None):
    """Parse any request through its kind's parser.

    ``data`` is a decoded payload or the raw JSON body bytes.
    ``expected`` pins the wire type, as a route does: a request of
    another type is rejected before its fields are read. An
    ``"evaluate"`` body of at most :data:`PARSE_MEMO_BODY_MAX` bytes is
    remembered for the active tenant: the same bytes again return the
    same (frozen) request without being decoded or parsed. A body that
    fails to parse is not remembered.
    """
    if type(data) is bytes:
        if expected == "evaluate" and len(data) <= PARSE_MEMO_BODY_MAX:
            return _parse_evaluate_body(data)
        data = decode_body(data)
    data = _require_mapping(data, "request")
    return STUDY_KINDS[_check_envelope(data, expected)].parse(data)


def _route_parser(wire: str):
    def parse(data):
        return parse_request(data, wire)

    parse.__name__ = parse.__qualname__ = f"parse_{wire}_request"
    parse.__doc__ = (
        f"Parse a {wire!r} request, as ``POST /{wire}`` does (see "
        f":func:`parse_request`)."
    )
    return parse


# Each kind's record class (``MonteCarloRequest``) and route parser
# (``parse_montecarlo_request``), under their names in this module.
for _kind in STUDY_KINDS.values():
    globals()[_kind.record.__name__] = _kind.record
    globals()[f"parse_{_kind.wire}_request"] = _route_parser(_kind.wire)
del _kind
