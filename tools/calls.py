"""Call-count probe: how many Python and C calls four fixed workloads make.

Run from anywhere, with no arguments::

    python tools/calls.py

Counts are taken with ``sys.setprofile`` (a ``call`` event is a Python
call, a ``c_call`` event a call into C), so they do not depend on the
speed of the machine: two runs of one revision print equal counts, and
two revisions compare by their counts. The workloads:

* ``cold_batch`` — the first 32-point batch of perfbench's
  ``ColdStream(1, 0)``, sent as the server receives it: the JSON body
  through ``schema.parse_request``, ``Dispatcher.run("batch",
  encoded=True)`` on a dispatcher with an in-memory store, and
  ``dumps_envelope``;
* ``memo_hit`` — ``BatchEvaluator.evaluate`` of the 2D DRIVE ORIN
  design, after one evaluation of the same point filled the memo;
* ``backend_hit`` — ``BatchEvaluator.backend_report`` of the DRIVE ORIN
  design split over EMIB, through the ``act`` backend, after one report
  of the same point filled the memo (an explicit backend's path);
* ``optimize_grid`` — ``ParetoSearch.from_axes(...).run()`` over a
  fixed small grid of DRIVE ORIN splits (three integrations, two die
  counts, three wafers, three fab locations) in chunks of 16 points,
  after one warm-up run on the same evaluator filled its memos, so the
  count is the grid, the planning, the columns and the front fold.

Imports and set-up run before counting starts. Only the standard
library is used; perfbench's inputs are read, never changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import ColdStream  # noqa: E402
from repro.analysis.optimizer import ParetoSearch  # noqa: E402
from repro.core.design import ChipDesign  # noqa: E402
from repro.engine import BatchEvaluator, EvalPoint  # noqa: E402
from repro.service import schema  # noqa: E402
from repro.service.dispatcher import Dispatcher  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402
from repro.studies.drive import drive_2d_design  # noqa: E402


def count(work) -> "dict[str, int]":
    """Python and C calls ``work()`` makes (the probe's own excluded)."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    # The profiler sees the call of ``work`` and of ``setprofile(None)``.
    return {"python": counts["call"] - 1, "c": counts["c_call"] - 1}


def cold_batch() -> "dict[str, int]":
    points, _ = ColdStream(1, 0).batch()
    body = json.dumps(
        {"schema": schema.SCHEMA_VERSION, "type": "batch", "points": points}
    ).encode("utf-8")
    dispatcher = Dispatcher(store=ResultStore())

    def work():
        request = schema.parse_request(body, "batch")
        result, _ = dispatcher.run("batch", request, encoded=True)
        schema.dumps_envelope(schema.ok_envelope(result))

    try:
        return count(work)
    finally:
        dispatcher.store.close()


def memo_hit() -> "dict[str, int]":
    evaluator = BatchEvaluator()
    point = EvalPoint(drive_2d_design("ORIN"))
    evaluator.evaluate(point)
    return count(lambda: evaluator.evaluate(point))


def backend_hit() -> "dict[str, int]":
    evaluator = BatchEvaluator()
    design = ChipDesign.homogeneous_split(drive_2d_design("ORIN"), "emib")
    evaluator.backend_report(design, "act")
    return count(lambda: evaluator.backend_report(design, "act"))


def optimize_grid() -> "dict[str, int]":
    reference = drive_2d_design("ORIN")
    evaluator = BatchEvaluator()

    def work():
        ParetoSearch.from_axes(
            reference,
            integrations=("hybrid_3d", "mcm", "emib"),
            die_counts=(2, 3),
            wafer_diameters_mm=(200.0, 300.0, 450.0),
            fab_locations=("taiwan", "iceland", 700.0),
            chunk=16,
            evaluator=evaluator,
        ).run()

    work()
    return count(work)


PROBES = (
    ("cold_batch", cold_batch),
    ("memo_hit", memo_hit),
    ("backend_hit", backend_hit),
    ("optimize_grid", optimize_grid),
)


def main() -> int:
    for name, probe in PROBES:
        counts = probe()
        print(f"{name:<13} python {counts['python']:>7,}  c {counts['c']:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
