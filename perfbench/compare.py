"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE CHANGE [--spec BENCHMARK.json]

``BASE`` and ``CHANGE`` are files, or directories of files, holding the
standard output of ``run.py --trace 0`` runs (each run prints one
``{"record": ...}`` line). For every workload × end-to-end metric the
table gives both medians with their quartiles, the change of the median,
how many run pairs the change won (runs are paired by seed when both
sides used the same seeds, else in seed order; ties count for neither)
and a verdict:

* ``better``     — the change won at least 9 of 10 pairs and its median
  moved by more than the base's own quartile spread;
* ``worse``      — the median got worse by more than the metric's bound
  (and the base's spread is within the bound, or every change run reads
  worse than every base run);
* ``unresolved`` — the base's spread is wider than the bound, so a
  difference that small cannot be told from noise;
* ``unchanged``  — within the bound.

Exits 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> "list[dict]":
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if not line.startswith('{"record"'):
                continue
            record = json.loads(line)["record"]
            if record.get("trace") == 0:
                records.append(record)
    return records


def by_workload(records) -> "dict[str, list[dict]]":
    grouped: "dict[str, list[dict]]" = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    for runs in grouped.values():
        runs.sort(key=lambda record: record["stamp"]["seed"])
    return grouped


def quartiles(values) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def pairs(base: "list[dict]", change: "list[dict]"):
    seeds_a = {r["stamp"]["seed"]: r for r in base}
    seeds_b = {r["stamp"]["seed"]: r for r in change}
    if set(seeds_a) == set(seeds_b):
        return [(seeds_a[s], seeds_b[s]) for s in sorted(seeds_a)]
    return list(zip(base, change))


def verdict(metric: dict, base, change, paired) -> dict:
    lower = metric["better"] == "lower"
    a_low, a_med, a_high = quartiles(base)
    b_low, b_med, b_high = quartiles(change)
    sign = 1.0 if lower else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    won = sum(sign * (a - b) > 0 for a, b in paired)
    spread = (a_high - a_low) / a_med
    all_better = all(sign * (a - b) > 0 for a in base for b in change)
    all_worse = all(sign * (b - a) > 0 for a in base for b in change)
    if paired and won >= 0.9 * len(paired) and worse_by < 0 \
            and abs(b_med - a_med) > a_high - a_low:
        result = "better"
    elif worse_by > metric["bound"] and (spread <= metric["bound"] or all_worse):
        result = "worse"
    elif spread > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "base": (a_low, a_med, a_high),
        "change": (b_low, b_med, b_high),
        "worse_by": worse_by,
        "won": won,
        "pairs": len(paired),
        "verdict": result,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(args.spec.read_text())
    base = by_workload(load_records(args.base))
    change = by_workload(load_records(args.change))
    for side, grouped in (("base", base), ("change", change)):
        stamps = {
            (r["stamp"]["git_rev"], r["stamp"]["src_sha256"][:12],
             r["stamp"]["cpus"])
            for runs in grouped.values() for r in runs
        }
        print(f"{side}: {sum(map(len, grouped.values()))} runs; "
              f"(rev, source, cpus) = {sorted(stamps, key=str)}")
    any_worse = False
    header = (f"{'workload':<11} {'metric':<15} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'worse by':>9} {'won':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload:<11} (missing on one side)")
            continue
        paired = pairs(base[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in base[workload]]
            b = [r["metrics"][name] for r in change[workload]]
            row = verdict(
                metric, a, b,
                [(x["metrics"][name], y["metrics"][name]) for x, y in paired],
            )
            any_worse |= row["verdict"] == "worse"
            print(
                f"{workload:<11} {name:<15} "
                f"{'%.4g/%.4g/%.4g' % row['base']:>30} "
                f"{'%.4g/%.4g/%.4g' % row['change']:>30} "
                f"{row['worse_by']:>+8.1%} {row['won']:>3}/{row['pairs']:<2}"
                f"  {row['verdict']}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
