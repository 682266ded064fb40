"""Store keys from design text rendered at parse: same bytes, less work.

A wire-parsed evaluate point carries its design's canonical text,
rendered once while the request is parsed
(``EvaluateRequest.design_text``). The content key takes it through the
request's records overlay (``Dispatcher._key_records``) instead of
walking the design again, and the named workloads' texts come from the
same table. These tests hold the bytes: the parse-rendered text is
``canonical_text(design)``, and the request path's key is the key
computed with no records table at all, for designs with area-specified
dies, integer-valued numbers, numeric node names and ``None`` fields,
under the anonymous and a named tenant. They also pin the work with no
timing: a 32-point ``/batch`` renders each design's text once, at
parse, and the key walk enters no ``Die`` record.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import DEFAULT_PARAMETERS
from repro.core.design import ChipDesign, Die, PackageSpec
from repro.core.operational import Workload
from repro.io.designs import design_from_dict, design_to_dict
from repro.service import schema
from repro.service import store as store_module
from repro.service.dispatcher import Dispatcher, evaluate_fingerprint
from repro.service.store import ResultStore, canonical_text
from repro.tenancy import TenantContext, namespace_key, tenant_scope

from tests.test_path_agreement import designs

TENANTS = ("anonymous", "acme")
WORKLOADS = (
    "av",
    "none",
    {"name": "edge", "total_tera_ops": 3.0e9, "use_location": "usa",
     "lifetime_years": 4},
)
LOCATIONS = (None, "taiwan", "iceland", 300, 412.5)

#: One dispatcher for every example, as a server keeps one.
DISPATCHER = Dispatcher()


def maybe_int(draw, value: float):
    """``value``, or the same number as a JSON integer (another text)."""
    if value == int(value) and draw(st.booleans()):
        return int(value)
    return value


@st.composite
def wire_designs(draw) -> "tuple[ChipDesign, bool]":
    """A drawn design reshaped as a wire record may be → (design, whether
    every node is a table name, so the design can be keyed)."""
    design = draw(designs())
    named_nodes = True
    dies = []
    for die in design.dies:
        if draw(st.booleans()):
            die = replace(
                die, gate_count=None,
                area_mm2=draw(st.sampled_from((35.0, 80, 121.5, 400))),
            )
        else:
            die = replace(die, gate_count=maybe_int(draw, die.gate_count))
        if draw(st.integers(0, 4)) == 0:
            # A numeric node name: a number the node table normalizes.
            die = replace(die, node=draw(st.sampled_from((7, 7.0, 14))))
            named_nodes = False
        die = replace(
            die,
            beol_layers=draw(st.sampled_from((None, 8, 12))),
            yield_override=draw(st.sampled_from((None, 0.9, 1))),
            efficiency_tops_per_w=draw(st.sampled_from((None, 2.5))),
        )
        dies.append(die)
    design = replace(
        design,
        dies=tuple(dies),
        throughput_tops=draw(st.sampled_from((None, 254.0, 254))),
        package=replace(
            design.package,
            area_mm2=draw(st.sampled_from((None, 2000.0, 1500))),
        ),
    )
    return design, named_nodes


@given(
    drawn=wire_designs(),
    workload=st.sampled_from(WORKLOADS),
    location=st.sampled_from(LOCATIONS),
    tenant=st.sampled_from(TENANTS),
)
@settings(max_examples=80, deadline=None)
def test_parse_text_and_request_key_match_a_records_free_render(
    drawn, workload, location, tenant
):
    design, named_nodes = drawn
    payload = json.loads(json.dumps({
        "schema": 1, "type": "evaluate", "design": design_to_dict(design),
        "workload": workload, "fab_location": location,
    }))
    request = schema.parse_evaluate_request(payload)
    parsed, text = request.design_text
    assert parsed is request.design
    assert text == canonical_text(request.design)
    if not named_nodes:
        return  # a numeric node names no table record: nothing to key
    fingerprint = evaluate_fingerprint(
        request.design, DEFAULT_PARAMETERS,
        location if location is not None else "taiwan",
        request.workload, request.backend,
    )
    expected = namespace_key(fingerprint, tenant)
    with tenant_scope(TenantContext(tenant=tenant)):
        assert DISPATCHER._point_key(request) == expected
        # The batch path: one overlay for every point of the request.
        twin = schema.parse_evaluate_request(payload)
        records = DISPATCHER._key_records((request, twin))
        assert DISPATCHER._point_key(request, records=records) == expected
        assert DISPATCHER._point_key(twin, records=records) == expected


def test_a_point_built_in_code_has_no_parse_text_and_the_same_key():
    payload = {
        "schema": 1, "type": "evaluate",
        "design": {"name": "x", "throughput_tops": 254,
                   "dies": [{"name": "a", "node": "7nm", "gate_count": 4e9}]},
    }
    parsed = schema.parse_evaluate_request(payload)
    built = schema.EvaluateRequest(
        design=design_from_dict(payload["design"]),
        workload=parsed.workload, fab_location=None,
    )
    assert built.design_text is None and built == parsed
    # A copy with another design drops the text instead of keying by it.
    other = replace(parsed, design=replace(parsed.design, name="y"))
    assert other.design_text is None
    assert DISPATCHER._point_key(built) == DISPATCHER._point_key(parsed)
    assert DISPATCHER._point_key(other) != DISPATCHER._point_key(parsed)


def test_named_workloads_are_one_record():
    assert schema.workload_from_value("av") is schema.AV_WORKLOAD
    assert schema.AV_WORKLOAD == Workload.autonomous_vehicle()
    (entry,) = schema.NAMED_WORKLOAD_TEXTS.values()
    assert entry == (schema.AV_WORKLOAD, canonical_text(schema.AV_WORKLOAD))


@pytest.mark.parametrize("cls", [Die, PackageSpec, ChipDesign])
def test_parsed_records_equal_constructed_ones(cls):
    """The parse builds records without their frozen ``__init__``: the
    attributes must be the ones ``__init__`` sets, in field order."""
    design = ChipDesign.homogeneous_split(
        ChipDesign.planar_2d("rec", "7nm", gate_count=6e9,
                             throughput_tops=254.0),
        "hybrid_3d",
    )
    parsed = design_from_dict(design_to_dict(design))
    assert parsed == design
    record = {Die: parsed.dies[0], PackageSpec: parsed.package,
              ChipDesign: parsed}[cls]
    built = cls(**{f.name: getattr(record, f.name) for f in fields(cls)})
    assert list(vars(record)) == list(vars(built)) == [
        f.name for f in fields(cls)
    ]
    assert vars(record) == vars(built)


class RenderCount:
    """Walks into one record type's renderer, taken phase by phase."""

    def __init__(self, monkeypatch, cls) -> None:
        render = store_module._RENDERERS[cls]
        self.walks = 0

        def counting(value, records, out):
            self.walks += 1
            return render(value, records, out)

        monkeypatch.setitem(store_module._RENDERERS, cls, counting)

    def take(self) -> int:
        walks, self.walks = self.walks, 0
        return walks


def batch_body(count: int) -> bytes:
    points = []
    for index in range(count):
        design = ChipDesign.planar_2d(
            f"count_{index}", ("7nm", "10nm", "14nm")[index % 3],
            gate_count=(3.0 + index) * 1e9, throughput_tops=254.0,
        )
        if index % 2:
            design = ChipDesign.homogeneous_split(
                design, ("hybrid_3d", "mcm", "emib")[index % 3], 2
            )
        points.append({
            "design": design_to_dict(design),
            "workload": ("av", "none")[index % 2],
            "fab_location": ("taiwan", "usa")[index % 2],
        })
    return json.dumps(
        {"schema": 1, "type": "batch", "points": points}
    ).encode("utf-8")


def test_a_batch_renders_each_design_once_and_keys_walk_no_die(monkeypatch):
    # Every record type has its renderer before any is wrapped.
    canonical_text(ChipDesign.planar_2d("probe", "7nm", gate_count=1e9))
    dies = RenderCount(monkeypatch, Die)
    packages = RenderCount(monkeypatch, PackageSpec)
    request = schema.parse_request(batch_body(32), "batch")
    # Every design is walked once, at parse: one package, its dies.
    assert packages.take() == 32
    assert dies.take() == sum(len(p.design.dies) for p in request.points)
    with ResultStore() as store, tenant_scope(TenantContext(tenant="acme")):
        entries = Dispatcher(store=store).batch(request, encoded=True)
    assert [entry["cache"] for entry in entries] == ["computed"] * 32
    # The keys take every design's text from the overlay.
    assert (packages.take(), dies.take()) == (0, 0)
