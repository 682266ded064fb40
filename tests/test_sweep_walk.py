"""The sweep walks, pinned: labels, store keys and reports.

``/sweep`` splits a 2D reference once per integration and prices each
design at each fab location; the :mod:`repro.studies.sweep` functions
walk one design axis each. These tests pin what a refactor of those
walks must leave unchanged: the ``/sweep`` entry labels, the store keys
its points are written under and its reports — for the default axes and
for a subset, through a local :class:`~repro.api.Session` and over HTTP
— and the labels and reports of the four library sweeps on ORIN.

Regenerate the pins (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_sweep_walk.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sqlite3
import sys
import threading

import pytest

from repro.analysis.optimizer import search_designs
from repro.api import Session
from repro.core.design import ChipDesign
from repro.core.operational import Workload
from repro.errors import ReferenceDesignError
from repro.service import make_server
from repro.service.client import ServiceError
from repro.service.schema import error_payload
from repro.studies.drive import drive_2d_design
from repro.studies.sweep import (
    sweep_die_counts,
    sweep_fab_locations,
    sweep_integrations,
    sweep_wafer_diameters,
)

WL = Workload.autonomous_vehicle()

#: ``/sweep`` fields per case: every default, and a subset of both axes.
SWEEP_CASES = {
    "default-axes": {},
    "subset": {
        "integrations": ["2d", "hybrid_3d", "info"],
        "fab_locations": ["iceland", "usa"],
    },
}

#: case → (labels, store-key count, sha256 of the sorted keys, sha256
#: of the reports). A sweep stored once keeps being served, so the keys
#: never change.
PINNED_SWEEPS = {
    "default-axes": (
        ["2d@taiwan", "micro_3d@taiwan", "hybrid_3d@taiwan", "m3d@taiwan",
         "mcm@taiwan", "info@taiwan", "emib@taiwan",
         "si_interposer@taiwan"],
        8,
        "2f55aeb5714fcb2cc205ea8f81038cf602b02aff987583da25ac3f14a5578e14",
        "912780b0c86c8229de545dc3277b5b088baedcd14a6dd4b8577e2c65c6f2e4b7",
    ),
    "subset": (
        ["2d@iceland", "2d@usa", "hybrid_3d@iceland", "hybrid_3d@usa",
         "info@iceland", "info@usa"],
        6,
        "7c43aff97dcf65f3c7e4fc06107f17e6d8bf1fdb20db15985c48f62e61bd3ac0",
        "9ab6381b5ae9c70d97221dc464b1ff36bad05642dc5019af17e62a124ab7c76d",
    ),
}

#: study → (labels, sha256 of the reports).
PINNED_STUDIES = {
    "integrations": (
        ["2d", "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
         "si_interposer"],
        "912780b0c86c8229de545dc3277b5b088baedcd14a6dd4b8577e2c65c6f2e4b7",
    ),
    "die-counts": (
        ["2 dies", "3 dies", "4 dies"],
        "8dedc03c3479d5336676cb8b5b4309a06b2ffe83808d6f1427cfa2efa8c24d84",
    ),
    "die-counts-m3d": (
        ["2 dies"],
        "e2186c31f06c7af0fa0965d5ea671980c41dc7db8d27f5279bcffb900e03f9ab",
    ),
    "wafer-diameters": (
        ["200 mm", "300 mm", "450 mm"],
        "b17b9add641ddea4826ac6c8644ad4632036f49a89862f106c3101b1641caa25",
    ),
    "fab-locations": (
        ["iceland", "france", "usa", "taiwan", "india"],
        "4d3b30ab4b2f5bbd75f5e3d8e9eb87c5f1dc2d7b1f47d7e22b4e6e2b5143e36e",
    ),
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def store_keys(path) -> "list[str]":
    conn = sqlite3.connect(str(path))
    try:
        return sorted(
            row[0] for row in conn.execute("SELECT key FROM results")
        )
    finally:
        conn.close()


def sweep_outcome(session: Session, path, case: str) -> tuple:
    """(labels, key count, key digest, report digest) of one case."""
    payload = session.sweep(
        drive_2d_design("ORIN"), **SWEEP_CASES[case]
    ).to_payload()
    keys = store_keys(path)
    return (
        [entry["label"] for entry in payload],
        len(keys),
        digest(keys),
        digest([entry["report"] for entry in payload]),
    )


def local_sweep(tmp_path, case: str) -> tuple:
    path = tmp_path / "local.sqlite3"
    with Session(store_path=str(path)) as session:
        return sweep_outcome(session, path, case)


@contextlib.contextmanager
def served_session(path):
    """A service Session on an in-process server storing at ``path``."""
    service = make_server(store_path=str(path))
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = service.server_address[:2]
        with Session(
            executor="service", url=f"http://{host}:{port}"
        ) as session:
            yield session
    finally:
        service.close()
        thread.join(timeout=5.0)


def served_sweep(tmp_path, case: str) -> tuple:
    path = tmp_path / "served.sqlite3"
    with served_session(path) as session:
        return sweep_outcome(session, path, case)


def study_points(study: str) -> list:
    orin = drive_2d_design("ORIN")
    hybrid = ChipDesign.homogeneous_split(orin, "hybrid_3d")
    if study == "integrations":
        return sweep_integrations(orin, workload=WL)
    if study == "die-counts":
        return sweep_die_counts(orin, workload=WL)
    if study == "die-counts-m3d":
        return sweep_die_counts(
            orin, "m3d", die_counts=[2, 3, 4], workload=WL
        )
    if study == "wafer-diameters":
        return sweep_wafer_diameters(hybrid)
    return sweep_fab_locations(hybrid)


def study_outcome(study: str) -> tuple:
    points = study_points(study)
    return (
        [point.label for point in points],
        digest([point.report.to_dict() for point in points]),
    )


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_local_sweep_matches_the_pins(tmp_path, case):
    assert local_sweep(tmp_path, case) == PINNED_SWEEPS[case]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_served_sweep_matches_the_pins(tmp_path, case):
    assert served_sweep(tmp_path, case) == PINNED_SWEEPS[case]


@pytest.mark.parametrize("study", sorted(PINNED_STUDIES))
def test_library_sweep_matches_the_pins(study):
    assert study_outcome(study) == PINNED_STUDIES[study]


def walk_refusals(tmp_path, reference) -> list:
    """The error payload of every design-space walk of ``reference``:
    local sweeps, optimize and search, then served sweep and optimize."""
    local = []
    with Session() as session:
        for study in (
            lambda: session.sweep(reference, integrations=["2d"]),
            lambda: session.sweep(reference, integrations=["mcm"]),
            lambda: session.optimize(reference, max_configs=4),
        ):
            with pytest.raises(ReferenceDesignError) as caught:
                study()
            local.append(error_payload(caught.value))
    for study in (
        lambda: sweep_integrations(reference, ["2d"]),
        lambda: search_designs(reference),
    ):
        with pytest.raises(ReferenceDesignError) as caught:
            study()
        local.append(error_payload(caught.value))
    served = []
    with served_session(tmp_path / "served.sqlite3") as session:
        for study in (
            lambda: session.sweep(reference, integrations=["2d"]),
            lambda: session.optimize(reference, max_configs=4),
        ):
            with pytest.raises(ServiceError) as caught:
                study()
            assert caught.value.status == 400
            served.append(caught.value.payload)
    return local + served


def test_every_walk_refuses_a_multi_die_reference_alike(tmp_path):
    """A sweep asking only for ``2d`` used to price a multi-die
    reference as if it were 2D; every walk now refuses it with one
    typed 400 error naming ``design``."""
    pair = ChipDesign.homogeneous_split(drive_2d_design("ORIN"), "mcm")
    expected = {
        "type": "ReferenceDesignError",
        "message": "design must be a single-die 2D reference to split, "
                   "'ORIN_2D_mcm_homog' has 2 dies",
        "field": "design",
    }
    assert walk_refusals(tmp_path, pair) == [expected] * 7


def test_every_walk_refuses_an_area_specified_reference_alike(tmp_path):
    """The split factories need a gate count: search and ``/optimize``
    used to drop every split of a reference given by area and answer
    its 2D point alone. Every walk now refuses it like a multi-die one."""
    by_area = ChipDesign.planar_2d(
        "by_area", "7nm", area_mm2=400.0, throughput_tops=254.0
    )
    expected = {
        "type": "ReferenceDesignError",
        "message": "design must be a gate-count-specified 2D reference "
                   "to split, 'by_area' gives its die by area",
        "field": "design",
    }
    assert walk_refusals(tmp_path, by_area) == [expected] * 7


if __name__ == "__main__":  # pragma: no cover - regenerates the pins
    import tempfile
    from pathlib import Path

    for case in SWEEP_CASES:
        with tempfile.TemporaryDirectory() as scratch:
            print(case, local_sweep(Path(scratch), case))
    for study in PINNED_STUDIES:
        print(study, study_outcome(study))
    sys.exit(0)
