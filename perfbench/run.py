"""One benchmark for the carbon service and the study API.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``serve_warm`` — closed-loop ``/evaluate`` traffic answered from a warm
  store (:mod:`serve`);
* ``serve_cold`` — closed-loop 32-point ``/batch`` traffic against a
  fresh store (:mod:`serve`).

Inputs come from ``--seed`` only. ``--trace 0`` measures with no
instrumentation and prints every end-to-end metric; ``--trace 1`` runs
half the time untraced and half with the per-layer span wrappers of
:mod:`tracer` (plus, on ``serve_cold``, one traced in-process study
round, :mod:`explore`), and prints every per-layer metric. Every answer
is checked against the scalar ``CarbonModel`` outside the timed region.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the full record: the
environment stamp (usable CPUs, Python and numpy versions, git revision,
source digest, seed), every metric, the deterministic work counts and
the raw timings. ``compare.py`` diffs two sets of these records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve_warm", "serve_cold")
US, MS = 1e6, 1e3
#: A run that hangs is stopped (its children killed) well inside 180 s.
TIME_LIMIT_S = 170


def _time_limit(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def git_rev() -> "str | None":
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's source files (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(seed: int) -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def end_to_end(out: dict) -> dict:
    phase = out["phases"][0]
    metrics = {
        "setup_s": out["setup_s"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    for name in ("throughput_rps", "points_per_s", "latency_p50_ms",
                 "latency_p90_ms"):
        metrics[name] = phase[name]
    return metrics


def per_layer(out: dict) -> dict:
    """Every per-layer metric from the traced half of the run."""
    spans, client, counts = out["server_trace"], out["client_trace"], out["counts"]
    study = out.get("study", {}).get("trace", {"calls": {}, "per_op": {}})

    def call(span: str, q: str = "p50") -> float:
        return spans["calls"].get(span, {}).get(q, 0.0)

    def op(key: str) -> float:
        return spans["per_op"].get(key, 0.0)

    def study_op(key: str) -> float:
        return study["per_op"].get(key, 0.0)

    handle = call("http.post")
    client_call = client["calls"]["http.request"]["p50"]
    request_layers = ("server", "tenancy", "schema", "dispatcher", "key",
                      "store", "engine")
    untraced, traced = out["phases"]
    before, after = out["counters_untraced"], out["counters"]
    timed = {
        key: after["dispatcher"][key] - before["dispatcher"][key]
        for key in ("coalesced", "claim_waits")
    }
    engine_points = (after["engine"]["points_evaluated"]
                     - before["engine"]["points_evaluated"])
    gets = counts.get("store.gets", 0)
    return {
        "client.call_ms_p50": client_call * MS,
        "client.connections_opened": counts.get("client.connections_opened", 0),
        "server.handle_ms_p50": handle * MS,
        "server.handle_ms_p99": call("http.post", "p99") * MS,
        "server.self_us_p50": op("self:server") * US,
        "server.wire_us_p50": (client_call - handle) * US,
        "server.accounted_pct": (
            100 * sum(op("self:" + layer) for layer in request_layers) / handle
            if handle else 0.0
        ),
        "tenancy.resolve_us_p50": call("tenant.resolve") * US,
        "tenancy.admit_us_p50": call("quota.admit") * US,
        "tenancy.usage_record_us_p50": call("usage.record") * US,
        "tenancy.usage_writes": counts.get("tenancy.usage_writes", 0),
        "schema.parse_us_p50": call("schema.parse") * US,
        "dispatcher.key_us_p50": call("dispatcher.key") * US,
        "dispatcher.self_us_p50": op("self:dispatcher") * US,
        "dispatcher.computed": counts["dispatcher.computed"],
        "dispatcher.store_hits": counts.get("dispatcher.store_hits", 0),
        "dispatcher.deduplicated": counts["dispatcher.deduplicated"],
        "dispatcher.claims": counts.get("dispatcher.claims", 0),
        "dispatcher.coalesced": timed["coalesced"],
        "dispatcher.claim_waits": timed["claim_waits"],
        "store.get_us_p50": call("store.get") * US,
        "store.put_us_p50": call("store.put") * US,
        "store.claim_us_p50": (call("store.claim") + call("store.release")) * US,
        "store.hit_ratio": counts.get("store.hits", 0) / gets if gets else 0.0,
        "engine.busy_ms": op("busy:engine") * MS,
        "engine.us_per_point": (
            spans["totals"].get("busy:engine", 0.0) / engine_points * US
            if engine_points else 0.0
        ),
        "engine.resolve_ms": op("nself:stage.resolve") * MS,
        "engine.embodied_ms": op("nself:stage.embodied") * MS,
        "engine.bandwidth_ms": op("nself:stage.bandwidth") * MS,
        "engine.operational_ms": op("nself:stage.operational") * MS,
        "engine.points_evaluated": counts["engine.points_evaluated"],
        "engine.resolve_misses": counts["engine.resolve_misses"],
        "engine.structure_misses": counts["engine.structure_misses"],
        "vec.grid_ms": study_op("ndur:vec.grid") * MS,
        "vec.plan_ms": study_op("ndur:vec.plan") * MS,
        "vec.eval_ms": study_op("nself:vec.eval") * MS,
        "vec.points": counts.get("vec.points", 0),
        "vec.shape_groups": counts.get("vec.shape_groups", 0),
        "analysis.pareto_self_ms": study_op("nself:analysis.pareto") * MS,
        "analysis.monte_carlo_self_ms": (
            study_op("nself:analysis.monte_carlo") * MS
        ),
        "uncertainty.draw_ms": study_op("ndur:uncertainty.draw") * MS,
        "api.session_self_ms": study_op("nself:session.run") * MS,
        "obs.trace_overhead_pct": (
            traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1
        ) * 100,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import serve

    workroot = HERE / "_work" / str(os.getpid())
    try:
        return serve.run(name, seed, seconds, trace, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGALRM, _time_limit)
    # A stopped run still stops its children (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    signal.alarm(TIME_LIMIT_S)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported, no result printed
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
    values = per_layer(out) if args.trace else end_to_end(out)
    differs = {m["name"] for m in wanted} ^ set(values)
    if differs:
        print(f"metric set differs from BENCHMARK.json: {sorted(differs)}",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "metrics": {name: value["value"] for name, value in metrics.items()},
        "error_rate": out["failed"] / max(out["attempted"], 1),
        "counts": out["counts"],
        "setup_runs_s": out["setup_runs_s"],
        "phases": out["phases"],
        "problems": out["problems"][:20],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
