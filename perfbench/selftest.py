"""Show that the benchmark's oracle catches corrupted answers.

    python3 perfbench/selftest.py

Serves real answers from an in-process service and a local session,
checks that the oracle accepts them, then corrupts them one way at a
time — a changed float, a float turned into an equal int (same value,
different bytes), a wrong cache tag, a wrong sweep entry, a wrong
Monte-Carlo base and a wrong Pareto-front point — and checks that the
oracle rejects each. Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.api import Session  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import make_server  # noqa: E402

import explore  # noqa: E402
import inputs  # noqa: E402
from serve import Traffic  # noqa: E402

FAILURES = []


def expect(name: str, accepted: bool, want: bool) -> None:
    ok = accepted == want
    print(f"{'ok  ' if ok else 'FAIL'} {name}: "
          f"{'accepted' if accepted else 'rejected'}")
    if not ok:
        FAILURES.append(name)


def first_float(report: dict, integral: bool) -> "tuple[dict, str]":
    """A (mapping, key) holding a float (an integral one if asked)."""
    stack = [report]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and (
                not integral or value == int(value)
            ):
                return node, key
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("no float in the report")


def served_answers() -> None:
    pool = inputs.warm_pool(7, 4)
    service = make_server(store_path=":memory:")
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(service.url)
    try:
        for point in pool:
            client.submit_payload({"type": "evaluate", **point.wire})
        envelope = client.submit_payload({"type": "evaluate", **pool[0].wire})
        stream = inputs.ColdStream(7, 0, size=8)
        points, ids = stream.batch()
        batch = client.submit_payload({"type": "batch", "points": points})
    finally:
        client.close()
        service.close()
        thread.join(timeout=30)

    warm = Traffic(True, 7, pool)
    expect("served evaluate", warm.check(0, 0, envelope, set()), True)
    bad = copy.deepcopy(envelope)
    node, key = first_float(bad["result"], integral=False)
    node[key] = node[key] * (1 + 2**-40)
    expect("changed float", warm.check(0, 0, bad, set()), False)
    bad = copy.deepcopy(envelope)
    node, key = first_float(bad["result"], integral=True)
    node[key] = int(node[key])
    expect("float sent as an equal int", warm.check(0, 0, bad, set()), False)
    bad = dict(envelope, cache="computed")
    expect("wrong cache tag", warm.check(0, 0, bad, set()), False)

    cold = Traffic(False, 7, [])
    expect("served batch", cold.check(0, (stream, ids), batch, set()), True)
    bad = copy.deepcopy(batch)
    node, key = first_float(bad["result"][-1]["report"], integral=False)
    node[key] = -node[key]
    expect("one bad batch entry", cold.check(0, (stream, ids), bad, set()),
           False)


def local_round() -> None:
    round_ = inputs.StudyRound(7, 0)
    with Session(executor="local") as session:
        results = explore.run_round(session, round_, {})
    expect("explore round", not explore.check(round_, results), True)

    bad = copy.deepcopy(results)
    bad["sweep_ms"][3][1]["total_kg"] += 1.0
    expect("sweep entry", not explore.check(round_, bad), False)
    bad = copy.deepcopy(results)
    bad["monte_carlo_ms"]["base_kg"] *= 1 + 2**-40
    expect("Monte-Carlo base", not explore.check(round_, bad), False)
    bad = copy.deepcopy(results)
    for point in bad["optimize_ms"]["front"]:
        point["total_kg"] *= 1 + 2**-40
    expect("Pareto-front point", not explore.check(round_, bad), False)


if __name__ == "__main__":
    served_answers()
    local_round()
    print(f"{len(FAILURES)} case(s) went the wrong way")
    sys.exit(1 if FAILURES else 0)
