"""Reproduce the paper's Sec. 4 validation studies (Fig. 4a/4b).

Compares 3D-Carbon against the LCA-report and ACT+ baselines on two
published products:

* AMD EPYC 7452 — MCM 2.5D (4 × 7 nm CCD + 14 nm I/O die);
* Intel Lakefield — micro-bump (Foveros) 3D (7 nm logic on 14 nm base).

Run:  python examples/validate_published_designs.py
"""

from repro.studies.anchors import ANCHORS
from repro.studies.validation import epyc_validation, lakefield_validation


def show_epyc() -> None:
    result = epyc_validation()
    print("=" * 64)
    print("Fig. 4(a) — EPYC 7452 embodied carbon (kg CO2e)")
    print("=" * 64)
    print(f"{'model':<14} {'die':>9} {'packaging':>10} {'total':>9}")
    for model, die_kg, pkg_kg, total_kg in result.rows():
        print(f"{model:<14} {die_kg:9.2f} {pkg_kg:10.2f} {total_kg:9.2f}")
    print()
    print("Paper checkpoints:")
    print(f"  * LCA highest               : "
          f"{result.lca.total_kg > result.carbon_3d.total_kg}")
    print(f"  * packaging {ANCHORS['epyc.packaging_kg'].paper:.2f} kg vs "
          f"{ANCHORS['epyc.act_plus_packaging_kg'].paper:.2f} : "
          f"{result.carbon_3d.packaging_kg:.2f} vs "
          f"{result.act_plus.packaging_kg:.2f}")
    print(f"  * LCA vs 2D-adjusted gap    : "
          f"{result.lca_vs_2d_discrepancy * 100:.1f}%  "
          f"(paper: ~{ANCHORS['epyc.lca_gap'].paper:.1%})")
    print()


def show_lakefield() -> None:
    result = lakefield_validation()
    print("=" * 64)
    print("Fig. 4(b) — Lakefield embodied carbon (kg CO2e)")
    print("=" * 64)
    for model, total_kg in result.rows():
        print(f"{model:<20} {total_kg:7.3f}")
    print()
    print("Paper checkpoints (Sec. 4.2 yields):")
    for label, name in (("D2W logic die ", "d2w_logic_yield"),
                        ("D2W memory die", "d2w_memory_yield"),
                        ("W2W both dies ", "w2w_yield")):
        print(f"  * {label} : {getattr(result, name) * 100:5.1f}%  "
              f"(paper {ANCHORS[f'lakefield.{name}'].paper:.1%})")
    print(f"  * GaBi (14 nm only) underestimates: "
          f"{result.lca.total_kg < result.carbon_3d_d2w.total_kg}")
    print()


if __name__ == "__main__":
    show_epyc()
    show_lakefield()
