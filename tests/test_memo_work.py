"""Work counts of the long-lived engine memo under one study mix.

Monte Carlo, tornado, optimize and compare price through the long-lived
:class:`repro.engine.BatchEvaluator` memo. One seeded local
:class:`repro.api.Session` runs a small study of each kind, and every
hit/miss pair of :class:`repro.engine.EngineStats` is pinned after each
study. A memo layer that stops paying, or a change that makes the engine
compute more, shows here as a changed count rather than as a timing.
"""

from __future__ import annotations

from dataclasses import fields

from repro import ChipDesign
from repro.api import Session
from repro.engine import EngineStats

LAYERS = ("resolve", "structure", "embodied", "bandwidth", "operational")

REFERENCE = ChipDesign.planar_2d(
    "work_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
)
STACKED = ChipDesign.homogeneous_split(REFERENCE, "hybrid_3d")

#: (study, run it) in order; one session runs them all.
STUDIES = (
    ("optimize", lambda session: session.optimize(
        REFERENCE, integrations=["hybrid_3d", "mcm"], die_counts=[2],
        wafer_diameters_mm=[300.0], fab_locations=["taiwan", "usa"],
    )),
    ("monte_carlo", lambda session: session.monte_carlo(
        STACKED, samples=100, seed=7,
    )),
    ("tornado", lambda session: session.tornado(STACKED, backend="act")),
    ("compare", lambda session: session.compare(
        STACKED, backends=["repro3d", "act", "lca"], draws=20, seed=7,
    )),
)

#: Cumulative (hits, misses) per layer and points evaluated after each
#: study.
EXPECTED = {
    "optimize": {
        "resolve": (0, 7), "structure": (4, 9), "embodied": (0, 0),
        "bandwidth": (0, 7), "operational": (0, 7), "points": 0,
    },
    "monte_carlo": {
        "resolve": (0, 108), "structure": (206, 9), "embodied": (0, 101),
        "bandwidth": (0, 108), "operational": (100, 8), "points": 101,
    },
    "tornado": {
        "resolve": (1, 114), "structure": (218, 9), "embodied": (0, 101),
        "bandwidth": (0, 108), "operational": (100, 8), "points": 108,
    },
    "compare": {
        "resolve": (27, 154), "structure": (298, 9), "embodied": (1, 122),
        "bandwidth": (1, 108), "operational": (100, 8), "points": 174,
    },
}


def counts(stats: EngineStats) -> dict:
    out = {
        layer: (getattr(stats, f"{layer}_hits"),
                getattr(stats, f"{layer}_misses"))
        for layer in LAYERS
    }
    out["points"] = stats.points_evaluated
    return out


def test_engine_stats_count_exactly_the_kept_layers():
    names = {field.name for field in fields(EngineStats)}
    assert names == {
        f"{layer}_{kind}" for layer in LAYERS for kind in ("hits", "misses")
    } | {"points_evaluated"}


def test_study_mix_work_counts():
    seen = {}
    with Session() as session:
        for name, run in STUDIES:
            run(session)
            seen[name] = counts(session.evaluator.stats)
    assert seen == EXPECTED
