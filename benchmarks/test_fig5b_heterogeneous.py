"""E4 — Fig. 5(b): NVIDIA DRIVE series, heterogeneous designs.

Memory/I/O isolated on a 28 nm die. The paper's shape (savings shrink
against the homogeneous approach, M3D still wins) is asserted in
``tests/test_paper_anchors.py``.
"""

from repro.studies.drive import drive_study


def test_fig5b_heterogeneous(benchmark, report_sink):
    hetero = benchmark(drive_study, "heterogeneous")
    report_sink("Fig. 5(b) — DRIVE series, heterogeneous approach",
                hetero.format_table())
