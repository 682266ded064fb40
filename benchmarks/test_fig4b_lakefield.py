"""E2 — Fig. 4(b): Lakefield validation (LCA vs ACT+ vs 3D-Carbon D2W/W2W).

Benchmarks the validation pipeline, then checks the Sec. 4.2 stack-yield
entries of the anchor table (D2W logic and memory, W2W).
"""

from repro.studies.validation import lakefield_validation


def test_fig4b_lakefield_validation(benchmark, report_sink, check_anchors):
    result = benchmark(lakefield_validation)
    report_sink("Fig. 4(b) — Lakefield embodied-carbon validation",
                result.format_table() + "\n"
                + check_anchors("lakefield", result))
