"""Cross-model comparison through the unified backend protocol.

The paper's Sec. 4 validates 3D-Carbon against ACT-style models, GaBi
LCA reports and a first-order estimate. Every one of those models is a
registered ``CarbonBackend``: one ``price`` over the design's shared
resolution, so the whole comparison is a single batched engine call —
the design resolves once and each model prices the same resolution.

Run with::

    PYTHONPATH=src python examples/backend_comparison.py

Equivalent CLI: ``python -m repro.cli compare epyc`` (or any design
JSON), and over HTTP: ``POST /evaluate`` with ``{"backend": "act"}``.
"""

from repro.core.design import ChipDesign
from repro.core.operational import Workload
from repro.engine import BatchEvaluator
from repro.pipeline import backend_names, get_backend
from repro.studies.validation import compare_backends, epyc_7452_design


def main() -> None:
    # 1. The registry: every carbon model behind one protocol.
    print("registered backends:")
    for name in backend_names():
        backend = get_backend(name)
        print(f"  {name:<12} {backend.label:<12} "
              f"stages: {' -> '.join(backend.stages)}")

    # 2. The paper's EPYC comparison (Fig. 4a) in one batched call.
    print()
    print(compare_backends(epyc_7452_design()).format_table())

    # 3. Any design, any subset, with the use phase for models that
    #    cover it (only 3D-Carbon does).
    reference = ChipDesign.planar_2d(
        "soc", node="7nm", gate_count=17e9, throughput_tops=254.0
    )
    stacked = ChipDesign.homogeneous_split(reference, "hybrid_3d")
    evaluator = BatchEvaluator()
    comparison = compare_backends(
        stacked,
        backends=["repro3d", "act_plus", "lca"],
        workload=Workload.autonomous_vehicle(),
        evaluator=evaluator,
    )
    print()
    print(comparison.format_table())
    print()
    print(f"engine: {evaluator.stats.as_dict()}")
    print("(one resolve for the whole table — the backends share the "
          "resolution stage)")

    # 4. The same comparison through the Session front door: the exact
    #    /compare payload a carbon3d server would return for this study.
    from repro.api import Session

    with Session() as session:
        payload = session.compare(
            stacked, backends=["repro3d", "act_plus", "lca"]
        ).to_payload()
    print()
    print("via Session.compare (wire payload totals):")
    for row in payload["backends"]:
        print(f"  {row['label']:<12} {row['report']['total_kg']:8.2f} kg CO2e")


if __name__ == "__main__":
    main()
