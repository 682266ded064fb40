"""E5 — Table 5: choosing/replacing DRIVE ORIN with 3D/2.5D ICs.

Regenerates the decision table, prints it, and checks the Table 5
entries of the anchor table (ten save ratios, the T_c and T_r bounds)
measured against the paper.
"""

from repro.studies.decision import table5_study


def test_table5_decision(benchmark, report_sink, check_anchors):
    result = benchmark(table5_study)
    report_sink("Table 5 — ORIN sustainable decision-making "
                "(measured vs paper)",
                result.format_table() + "\n" + check_anchors("table5", result))
