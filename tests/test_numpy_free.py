"""The scalar path runs without numpy.

The core model, the engine and the HTTP service price designs in pure
Python; numpy is loaded only by the vectorized core and the studies that
draw arrays. The embodied equations are written once for floats and
float64 columns alike, so this pins that pricing a point — through
``CarbonModel`` and through a served ``/evaluate`` — never imports it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys

import repro.core
import repro.engine
import repro.service.server
from repro.core import CarbonModel, ChipDesign, Workload
from repro.io.designs import design_to_dict
from repro.service.dispatcher import Dispatcher
from repro.service.schema import parse_evaluate_request
from repro.service.store import ResultStore

reference = ChipDesign.planar_2d(
    "orin_class_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
)
emib = ChipDesign.homogeneous_split(reference, "emib")
report = CarbonModel(emib).evaluate(Workload.autonomous_vehicle())
assert report.embodied.interposer_kg > 0.0

request = parse_evaluate_request(
    {"schema": 1, "type": "evaluate", "design": design_to_dict(emib)}
)
result, source = Dispatcher(store=ResultStore()).evaluate(request)
assert source == "computed", source
assert result["embodied_kg"] == report.embodied_kg

assert "numpy" not in sys.modules, sorted(
    name for name in sys.modules if name.startswith("numpy")
)[:5]
print("numpy-free")
"""


def test_scalar_pricing_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "numpy-free"
