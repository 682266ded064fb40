"""Pareto-frontier search over a 10⁵-point design space.

The paper frames 3D-Carbon as an early-design-stage decision aid; this
example runs the decision at sweep scale. Starting from an EPYC-class
single-die 2D reference (Fig. 4(a)'s device footprint — ~39.5 B
transistors at 7 nm — given accelerator-class duty so the Sec. 3.4
bandwidth check has teeth), it crosses every case-study integration ×
die-count variant with a dense wafer axis and a span of fab grids —
over 10⁵ configurations — and reduces them to the non-dominated front
over three objectives:

* total lifecycle carbon (min),
* delivered performance after the bandwidth check (max),
* effective silicon cost in wafer mm² per good unit (min).

Two searches, one conclusion each:

1. the **full span** collapses to a single dominant point — monolithic
   3D (M3D) at the largest wafer on the cleanest grid, the paper's own
   Fig. 5 finding;
2. the **production 2.5D subset** (where the Sec. 5.2 decision flow
   lands once manufacturability sets M3D and hybrid bonding aside)
   exposes the real frontier: chiplet count trades delivered TOPS
   against carbon and silicon cost.

Everything runs through the vectorized core (`repro.vec`): structural
resolution once per design, numpy columns over the wafer/CI axes —
bit-identical to the scalar pipeline on every point of a 10⁵-point grid
(``tests/test_full_size_equivalence.py``), with one structural resolve
per design in place of one per point. The same search is
one HTTP call on a running server (``POST /optimize``) or one CLI
line: ``carbon3d optimize DESIGN.json --wafers ...``.

Run:  python examples/pareto_search.py
"""

from repro.analysis.optimizer import PARETO_OBJECTIVES, ParetoSearch
from repro.core.design import ChipDesign

WAFERS = [250.0 + 1.4 * i for i in range(176)]
GRIDS = [
    "iceland", "sweden", "france", "taiwan", "usa", "india",
    30.0, 60.0, 120.0, 240.0, 360.0, 480.0, 600.0, 700.0,
]


def epyc_like_reference() -> ChipDesign:
    """An EPYC-7452-class single-die 2D reference: one die with a gate
    count (so split variants can re-partition the logic), pushed to
    accelerator-class throughput."""
    return ChipDesign.planar_2d(
        "EPYC_7452_2D", node="7nm", gate_count=39.5e9,
        package_class="fcbga", throughput_tops=500.0,
        efficiency_tops_per_w=2.0,
    )


def print_front(front: dict) -> None:
    print(f"{front['front_size']} non-dominated configurations "
          f"(objectives: "
          + ", ".join(f"{name} {goal}" for name, goal in PARETO_OBJECTIVES)
          + "):")
    header = (f"{'configuration':<40} {'wafer':>6} {'grid':<10} "
              f"{'total kg':>9} {'TOPS':>7} {'cost mm2':>9}")
    print(header)
    print("-" * len(header))
    for point in front["front"]:
        location = point["fab_location"]
        if isinstance(location, float):
            location = f"{location:g} g/kWh"
        print(f"{point['label']:<40.40} "
              f"{point['wafer_diameter_mm']:>6.0f} {location:<10.10} "
              f"{point['total_kg']:>9.2f} {point['performance_tops']:>7.1f} "
              f"{point['cost_mm2']:>9.1f}")


def main() -> None:
    reference = epyc_like_reference()

    # 1) The full case-study span, streamed chunk by chunk.
    search = ParetoSearch.from_axes(
        reference, workload="av",
        wafer_diameters_mm=WAFERS, fab_locations=GRIDS, chunk=25_000,
    )
    print(f"full span: {len(search.grid.points):,} configurations, "
          f"{len(search.grid.designs)} distinct designs")
    front = None
    for snapshot in search.stream():
        print(f"  chunk {snapshot['chunk']:>2}: "
              f"{snapshot['evaluated']:>8,} evaluated, "
              f"{snapshot['errors']:>6,} invalid, "
              f"front holds {snapshot['front_size']}")
        front = snapshot
    print_front(front)

    # 2) The production 2.5D subset: the frontier appears.
    print()
    search = ParetoSearch.from_axes(
        reference, workload="av",
        integrations=("mcm", "info", "emib", "si_interposer"),
        wafer_diameters_mm=WAFERS, fab_locations=GRIDS, chunk=25_000,
    )
    print(f"2.5D subset: {len(search.grid.points):,} configurations")
    print_front(search.run().to_dict())


if __name__ == "__main__":
    main()
