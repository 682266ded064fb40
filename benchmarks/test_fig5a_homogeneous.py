"""E3 — Fig. 5(a): NVIDIA DRIVE series, homogeneous 2-die designs.

Regenerates all 36 bars (4 devices × 9 integration options). The
paper's qualitative series (operational carbon falling across
generations, 3D always cutting embodied carbon, the invalid 2.5D
options at ORIN and THOR) is asserted in ``tests/test_paper_anchors.py``.
"""

from repro.studies.drive import drive_study


def test_fig5a_homogeneous(benchmark, report_sink):
    result = benchmark(drive_study, "homogeneous")
    report_sink("Fig. 5(a) — DRIVE series, homogeneous approach",
                result.format_table())
