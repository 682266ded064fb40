"""Analysis-extension benchmarks: tornado, Monte Carlo, search.

Not a paper artifact — these measure the throughput of the
carbon-conscious-design workflows the paper motivates (Sec. 6: "pave the
way for ... environmentally sustainable 3D and 2.5D ICs").
"""

from repro import ChipDesign, Workload
from repro.analysis import (
    format_tornado,
    monte_carlo,
    search_designs,
    tornado,
)
from repro.api import Session, StudySpec
from repro.core.report import render_points
from repro.studies.drive import drive_2d_design

WL = Workload.autonomous_vehicle()


def test_tornado_throughput(benchmark, report_sink):
    hybrid = ChipDesign.homogeneous_split(
        drive_2d_design("ORIN"), "hybrid_3d"
    )
    results = benchmark(tornado, hybrid, None, WL)
    report_sink("Sensitivity — tornado study (ORIN hybrid 3D)",
                format_tornado(results))
    assert results[0].factor.startswith("defect_density")


def test_monte_carlo_throughput(benchmark, report_sink):
    hybrid = ChipDesign.homogeneous_split(
        drive_2d_design("ORIN"), "hybrid_3d"
    )
    result = benchmark(monte_carlo, hybrid, None, WL, None, "taiwan", 50)
    report_sink("Uncertainty — Monte Carlo (50 samples)", result.summary())
    assert result.std_kg > 0


def search(reference) -> "list[dict]":
    """``carbon3d search``: the search designs as one batch study."""
    with Session() as session:
        return session.run(StudySpec.batch([
            StudySpec.evaluate(design, label=label)
            for label, design in search_designs(reference)
        ])).to_payload()


def test_configuration_search_throughput(benchmark, report_sink):
    points = benchmark(search, drive_2d_design("ORIN"))
    text = render_points(points)
    report_sink("Optimizer — exhaustive configuration search (ORIN)", text)
    assert text.splitlines()[-1].startswith("best valid configuration: m3d")
