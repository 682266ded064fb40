"""Characterization of the Python study vocabulary: what each
``StudySpec`` constructor sends, and how each misuse fails.

Every case builds one spec through its kind's constructor and pins the
sha256 of ``json.dumps(spec.to_payload())``: designs given as records
and as :class:`~repro.core.design.ChipDesign` objects, workloads given
as ``"av"``, ``None`` and a :class:`~repro.core.operational.Workload`,
every optional field set once, ``stream=True`` on the streaming kinds,
and batches mixing a design, a point record and an evaluate spec, with
and without a batch-wide ``backend``. The misuse cases pin the
exception type and message of a constructor called wrongly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import StudySpec
from repro.core.design import ChipDesign
from repro.core.operational import Workload
from repro.errors import ParameterError
from repro.io.designs import design_to_dict

DESIGN = ChipDesign.planar_2d(
    "vocab_ref", "7nm", gate_count=17e9, throughput_tops=254.0,
)
RECORD = design_to_dict(DESIGN)
STACKED = ChipDesign.homogeneous_split(DESIGN, "hybrid_3d")
WORKLOAD = Workload("vocab_w", 12.5, use_location="usa", lifetime_years=4.0)
POINT = {"design": RECORD, "workload": "none", "fab_location": "iceland"}

#: Case name → a zero-argument call that builds one spec.
CASES = {
    # evaluate
    "evaluate-record": lambda: StudySpec.evaluate(RECORD),
    "evaluate-design": lambda: StudySpec.evaluate(STACKED),
    "evaluate-workload-none": lambda: StudySpec.evaluate(RECORD, workload=None),
    "evaluate-workload-object": lambda: StudySpec.evaluate(
        RECORD, workload=WORKLOAD
    ),
    "evaluate-every-field": lambda: StudySpec.evaluate(
        STACKED, workload="av", fab_location="iceland", label="pt",
        backend="act",
    ),
    "evaluate-fab-number": lambda: StudySpec.evaluate(
        RECORD, fab_location=30.0, backend="repro3d"
    ),
    # batch
    "batch-mixed": lambda: StudySpec.batch(
        [STACKED, POINT, StudySpec.evaluate(DESIGN, label="spec")]
    ),
    "batch-mixed-backend": lambda: StudySpec.batch(
        [STACKED, POINT, StudySpec.evaluate(DESIGN, label="spec")],
        backend="act",
    ),
    "batch-backend-keeps-explicit": lambda: StudySpec.batch(
        [RECORD, StudySpec.evaluate(DESIGN, backend="lca"),
         {**POINT, "backend": "repro3d"}],
        backend="act",
    ),
    "batch-stream": lambda: StudySpec.batch([RECORD], stream=True),
    "batch-records": lambda: StudySpec.batch([RECORD, RECORD]),
    # sweep
    "sweep-record": lambda: StudySpec.sweep(RECORD),
    "sweep-design": lambda: StudySpec.sweep(DESIGN),
    "sweep-workload-none": lambda: StudySpec.sweep(RECORD, workload=None),
    "sweep-workload-object": lambda: StudySpec.sweep(
        RECORD, workload=WORKLOAD
    ),
    "sweep-every-field": lambda: StudySpec.sweep(
        DESIGN, integrations=["2d", "hybrid_3d"], fab_locations=["usa", 30.0],
        workload="av", backend="act",
    ),
    "sweep-tuples": lambda: StudySpec.sweep(
        RECORD, integrations=("m3d",), fab_locations=("iceland",)
    ),
    "sweep-stream": lambda: StudySpec.sweep(RECORD, stream=True),
    # monte_carlo
    "monte_carlo-record": lambda: StudySpec.monte_carlo(RECORD),
    "monte_carlo-design": lambda: StudySpec.monte_carlo(STACKED),
    "monte_carlo-workload-none": lambda: StudySpec.monte_carlo(
        RECORD, workload=None
    ),
    "monte_carlo-workload-object": lambda: StudySpec.monte_carlo(
        RECORD, workload=WORKLOAD
    ),
    "monte_carlo-every-field": lambda: StudySpec.monte_carlo(
        STACKED, samples=16, seed=7, workload="av", fab_location="usa",
        backend="act", return_samples=True,
    ),
    # compare
    "compare-record": lambda: StudySpec.compare(RECORD),
    "compare-design": lambda: StudySpec.compare(STACKED),
    "compare-workload-av": lambda: StudySpec.compare(RECORD, workload="av"),
    "compare-workload-none": lambda: StudySpec.compare(RECORD, workload=None),
    "compare-workload-object": lambda: StudySpec.compare(
        RECORD, workload=WORKLOAD
    ),
    "compare-every-field": lambda: StudySpec.compare(
        STACKED, backends=["repro3d", "act"], workload="av",
        fab_location=42.0, draws=8, seed=3,
    ),
    # tornado
    "tornado-record": lambda: StudySpec.tornado(RECORD),
    "tornado-design": lambda: StudySpec.tornado(STACKED),
    "tornado-workload-none": lambda: StudySpec.tornado(RECORD, workload=None),
    "tornado-workload-object": lambda: StudySpec.tornado(
        RECORD, workload=WORKLOAD
    ),
    "tornado-every-field": lambda: StudySpec.tornado(
        STACKED, workload="av", fab_location="iceland", backend="lca",
    ),
    # optimize
    "optimize-record": lambda: StudySpec.optimize(RECORD),
    "optimize-design": lambda: StudySpec.optimize(DESIGN),
    "optimize-workload-none": lambda: StudySpec.optimize(
        RECORD, workload=None
    ),
    "optimize-workload-object": lambda: StudySpec.optimize(
        RECORD, workload=WORKLOAD
    ),
    "optimize-every-field": lambda: StudySpec.optimize(
        DESIGN, workload="av", integrations=["hybrid_3d", "mcm"],
        die_counts=[2, 3], wafer_diameters_mm=[300.0, 450.0],
        fab_locations=["taiwan", 30.0], max_configs=24, chunk=10, seed=11,
    ),
    "optimize-stream": lambda: StudySpec.optimize(RECORD, stream=True),
}

#: Case name → sha256 of ``json.dumps(spec.to_payload())``.
DIGESTS = {
    "batch-backend-keeps-explicit":
        "a7b96b10e4e9ee02b77b0914913f5848e95e626b4b65eb2c97181d64e3224f2a",
    "batch-mixed":
        "2bf427ea2960133a52754210867cc36a62e8335107b0b2277009b7f79b120482",
    "batch-mixed-backend":
        "440724f2b2ec08e94742a1754016902104b6f6cfe984045751a515ddd5e4f4a7",
    "batch-records":
        "d258378747aefef1535d1740aaee18a6a2a05c5be80299f6c72893a116b6ae8c",
    "batch-stream":
        "3072d4cb83da0707e9a89cf1150a933260656939154b59feb1572e84815c2ea7",
    "compare-design":
        "c2d2f5c3620a99574823dfd540e895eeead2eca6db39e202251595dcc118c587",
    "compare-every-field":
        "adf1a8fd9e7f1894e0822c22bb3644c0d6fffa8df1e0ff4006c969d673c9c64f",
    "compare-record":
        "56947f52754043e0f933d05c93e951eca573a92f1043e4cd50e71201da7fbd44",
    "compare-workload-av":
        "d533b48a3d8cd8c4035a75e4101636c282f4d7048762b4d172ad1ba3bd1b6e77",
    "compare-workload-none":
        "56947f52754043e0f933d05c93e951eca573a92f1043e4cd50e71201da7fbd44",
    "compare-workload-object":
        "f4fd8c1ef7136c9d9e81ae3acff7f55ff7b321b3584f274949a1828f818da8e9",
    "evaluate-design":
        "a016ed4520dab3653ae574557d66ead4541541b16afa40e44861ee03c60934f0",
    "evaluate-every-field":
        "1dfa777c1dfd6d5d4e53148b7fbca7bb0be95fdba6b02b477b93b11f3e8fc1d0",
    "evaluate-fab-number":
        "efe7b86fa25cb32a327cacb25c709f837cd525a07a6e9198b0e95f36ce80ce0c",
    "evaluate-record":
        "f5f2b25588d6999017a275013fc0813dc13762fc2a4c902e6956d8afb0eab5d8",
    "evaluate-workload-none":
        "6f4f4a79d285f24f3c75ecc58e7ba555e822fd3453fe2577e50f104462ffdb05",
    "evaluate-workload-object":
        "e6530ae85a0e63c7b854a37d605cdf188db78a910e1137d4f826e9947280af6a",
    "monte_carlo-design":
        "b4e8bb4e365e7c958e9549e3c11664070358b269d88c909d495c48c530a2b289",
    "monte_carlo-every-field":
        "de8f4f3d481c048d6fae5a885101f6fb2a5f1d0be2a88c5b52b610f5031bb21c",
    "monte_carlo-record":
        "b1e51888022cc0d54e82afd7435d80c89283edc83915212c95929df67908ad34",
    "monte_carlo-workload-none":
        "b020f50ef75d73cd73c4451d0006e51223354e0a28b86087398f8e8625378686",
    "monte_carlo-workload-object":
        "0692c6101d720d0bbdd00345bc953fb0e814d993241ac8820ee53f1986f7c956",
    "optimize-design":
        "66b401d9014100685482366d9021180e38f579cc05dfea3dbb6152b365b28888",
    "optimize-every-field":
        "47aa2ad265abf5c8e1fa1b0ac17f3cf8e7c59a20464dede3c8d9f422c2d2bdf2",
    "optimize-record":
        "66b401d9014100685482366d9021180e38f579cc05dfea3dbb6152b365b28888",
    "optimize-stream":
        "94e8f21968752fff7d7eea94bc0a4a9c9a3aed911d6fb48b4b4ee2770ffae302",
    "optimize-workload-none":
        "2fbc5406f8bbc92a40f7a54bb9b9f43bf090c5d21f2fdbbf120cc33245fd32fe",
    "optimize-workload-object":
        "2b8a91b07187e1a1f77d79d3eb9bb34a0f3a5ba29cee42fd8b35364e791d042b",
    "sweep-design":
        "a778fcb150e27c6642d1778ad0e50d8a0cf53f6af593e5ef1895f27e30917f7b",
    "sweep-every-field":
        "3f00643e02991ab7549d0c04a396fbb91d752fe5e00a0d35f8d786208ab12391",
    "sweep-record":
        "a778fcb150e27c6642d1778ad0e50d8a0cf53f6af593e5ef1895f27e30917f7b",
    "sweep-stream":
        "e44aa05eb78921deb7446d882e496188c8e06f85212b9eeac488c9967c05f14e",
    "sweep-tuples":
        "c71ea6ee3935f8e50fbdfa140a9c8b3ae9236a979e21468d8f348778e22bc7cc",
    "sweep-workload-none":
        "661de01b2ee83dadb4eea2e7b58437851f0b5031db5cc9714e59ad233e7a2d6e",
    "sweep-workload-object":
        "70289c42e9c67f22a02adc91e9d2e6ac88cb5ba572061143130c5cdc431cc5b0",
    "tornado-design":
        "0bb1b313093e9648d3335903b4633f75a59a9e4d5c984f722f90bf22a0337cef",
    "tornado-every-field":
        "56e5b9791e84960b4d705c8e7255fb12837490031b4e7d914939ebb42f69de4c",
    "tornado-record":
        "63da0d9a7c36d3e212e410db18069b6bbb7fc54e452ff8682d0bd4e746e20be8",
    "tornado-workload-none":
        "8cb072be78e70b1bb7e2a44993f9ec4ffb895113c1ead50ef8ef5e2d858a23a6",
    "tornado-workload-object":
        "651f5988d2c62eec372c2fb522820861092aa364d096692061913a4cbe0ca49b",
}


def digest(spec) -> str:
    text = json.dumps(spec.to_payload())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_constructor_payload_is_pinned(case):
    assert digest(CASES[case]()) == DIGESTS[case]


def test_the_design_record_is_sent_as_given():
    payload = StudySpec.evaluate(RECORD).to_payload()
    assert payload["design"] == RECORD
    assert StudySpec.batch([POINT]).to_payload()["points"] == [POINT]


#: Constructor name → the one argument it takes by position.
POSITIONAL = {
    "evaluate": RECORD, "batch": [RECORD], "sweep": RECORD,
    "monte_carlo": RECORD, "compare": RECORD, "tornado": RECORD,
    "optimize": RECORD,
}


@pytest.mark.parametrize("name", sorted(POSITIONAL))
def test_an_unknown_keyword_is_a_type_error(name):
    with pytest.raises(TypeError) as error:
        getattr(StudySpec, name)(POSITIONAL[name], colour="red")
    assert str(error.value) == (
        f"StudySpec.{name}() got an unexpected keyword argument 'colour'"
    )


@pytest.mark.parametrize("name", sorted(POSITIONAL))
def test_a_field_passed_by_position_is_a_type_error(name):
    with pytest.raises(TypeError) as error:
        getattr(StudySpec, name)(POSITIONAL[name], "av")
    assert str(error.value) == (
        f"StudySpec.{name}() takes 2 positional arguments but 3 were given"
    )


#: Misuse → (exception type, message).
MISUSES = {
    "empty-batch": (
        lambda: StudySpec.batch([]),
        ParameterError, "a batch needs at least one point",
    ),
    "tornado-point": (
        lambda: StudySpec.batch([StudySpec.tornado(RECORD)]),
        ParameterError, "batch points must be evaluate specs, got 'tornado'",
    ),
    "int-point": (
        lambda: StudySpec.batch([RECORD, 5]),
        ParameterError,
        "a batch point must be a design, a point record, or an evaluate "
        "spec, got int",
    ),
    "unknown-kind": (
        lambda: StudySpec(kind="voodoo"),
        ParameterError,
        "unknown study kind 'voodoo' (known: evaluate, batch, sweep, "
        "monte_carlo, compare, tornado, optimize)",
    ),
}


@pytest.mark.parametrize("misuse", sorted(MISUSES))
def test_misuse_fails_with_its_pinned_error(misuse):
    call, error_type, message = MISUSES[misuse]
    with pytest.raises(error_type) as error:
        call()
    assert type(error.value) is error_type
    assert str(error.value) == message
