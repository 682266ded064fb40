"""E1 — Fig. 4(a): EPYC 7452 validation (LCA vs ACT+ vs 3D-Carbon).

Regenerates the three embodied-carbon estimates for the MCM 2.5D EPYC 7452
and benchmarks the full validation pipeline, then checks the Fig. 4(a)
entries of the anchor table (packaging of 3D-Carbon and ACT+, the LCA gap
against the 2D-adjusted run).
"""

from repro.studies.validation import epyc_validation


def test_fig4a_epyc_validation(benchmark, report_sink, check_anchors):
    result = benchmark(epyc_validation)
    report_sink("Fig. 4(a) — EPYC 7452 embodied-carbon validation",
                result.format_table() + "\n" + check_anchors("epyc", result))
