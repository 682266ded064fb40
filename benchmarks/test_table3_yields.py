"""E6 — Table 3: composed stacking yields.

Benchmarks the yield compositions and prints the Table 3 matrix for a
representative two-die stack (the Lakefield dies), covering all four
assembly flows.
"""

from repro.config.integration import AssemblyFlow
from repro.core.yield_model import (
    die_yield,
    three_d_stack_yields,
    two_five_d_yields,
)
from repro.studies.anchors import ANCHORS

LOGIC = die_yield(82.0, 0.139, 10.0)    # 7 nm logic die
MEMORY = die_yield(92.0, 0.09, 10.0)    # 14 nm base die
SUBSTRATE = 0.95
BOND_3D = 0.96
BOND_C4 = 0.99


def _all_flows():
    return {
        "D2W": three_d_stack_yields([MEMORY, LOGIC], BOND_3D, AssemblyFlow.D2W),
        "W2W": three_d_stack_yields([MEMORY, LOGIC], 0.97, AssemblyFlow.W2W),
        "chip_first": two_five_d_yields(
            [MEMORY, LOGIC], SUBSTRATE, BOND_C4, AssemblyFlow.CHIP_FIRST
        ),
        "chip_last": two_five_d_yields(
            [MEMORY, LOGIC], SUBSTRATE, BOND_C4, AssemblyFlow.CHIP_LAST
        ),
    }


def _table_text(flows) -> str:
    lines = [f"{'flow':<12} {'Y_die_1':>9} {'Y_die_2':>9} "
             f"{'Y_bond':>9} {'Y_substrate':>12}"]
    for name, y in flows.items():
        bond = y.per_bond[0] if y.per_bond else 1.0
        sub = f"{y.substrate:.4f}" if y.substrate is not None else "-"
        lines.append(
            f"{name:<12} {y.per_die[0]:9.4f} {y.per_die[1]:9.4f} "
            f"{bond:9.4f} {sub:>12}"
        )
    return "\n".join(lines)


def test_table3_stack_yields(benchmark, report_sink):
    flows = benchmark(_all_flows)
    report_sink("Table 3 — stacking yields (Lakefield dies)",
                _table_text(flows))

    # D2W keeps the top die at its raw yield; W2W drags both to the stack.
    assert flows["D2W"].per_die[1] > flows["W2W"].per_die[1]
    # Chip-first exposes dies to substrate loss, chip-last to bond loss.
    assert flows["chip_first"].per_die[0] < MEMORY
    assert flows["chip_last"].per_die[0] < MEMORY
    # The Sec. 4.2 yield anchors, from the same dies and bond yields.
    for name, measured in (("d2w_logic_yield", flows["D2W"].per_die[1]),
                           ("d2w_memory_yield", flows["D2W"].per_die[0]),
                           ("w2w_yield", flows["W2W"].per_die[0])):
        assert ANCHORS[f"lakefield.{name}"].holds(measured), name
