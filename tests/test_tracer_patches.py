"""Every entry point the perfbench tracer wraps still exists.

``perfbench/tracer.py`` swaps each ``(module, class, attribute)`` of its
``*_PATCHES`` tables for a timing wrapper by name, reading a class
attribute from the class's own ``__dict__``. A renamed or moved entry
point would break only the benchmark's traced runs; this check reads
the tables and resolves every entry the way the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches() -> list:
    tracer = _tracer()
    tables = [name for name in vars(tracer) if name.endswith("_PATCHES")]
    assert tables, "the tracer defines no *_PATCHES tables"
    return [
        pytest.param(module, owner, attr, id=f"{module}:{owner}.{attr}")
        for name in sorted(tables)
        for module, owner, attr, _, _ in getattr(tracer, name)
    ]


@pytest.mark.parametrize("module_name, class_name, attr", _patches())
def test_patch_point_resolves(module_name, class_name, attr):
    module = importlib.import_module(module_name)
    if class_name is None:
        target = getattr(module, attr, None)
    else:
        owner = getattr(module, class_name)
        target = owner.__dict__.get(attr)
        if isinstance(target, (classmethod, staticmethod)):
            target = target.__func__
    assert callable(target), f"{module_name}.{class_name or ''}.{attr}"
