"""The reach probe's own parts: its def walk, its report and its recorder.

``tools/reach.py`` runs every entry point for minutes, so tier-1 does not
run it whole. These tests check the pieces its verdict rests on: the AST
walk names each definition at the line its code object reports, the
report fails on a module with no reached function (a lazy-export
``__init__`` excepted), and the ``sitecustomize`` it installs records
calls made in a child process, threads included.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_probe", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def package(reach, tmp_path, monkeypatch):
    """A throwaway ``src/repro`` the walk and the report read instead."""
    src = tmp_path / "src"
    root = src / "repro"
    root.mkdir(parents=True)
    monkeypatch.setattr(reach, "SRC", src)
    monkeypatch.setattr(reach, "PACKAGE", root)
    return root


def _defs(reach, path: Path) -> dict:
    return {name: (first, lines)
            for name, first, lines in reach.definitions()[str(path)]}


class TestDefinitions:
    def test_methods_qualified_closures_skipped(self, reach, package):
        module = package / "shapes.py"
        module.write_text(
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
            "\n"
            "class Box:\n"
            "    def area(self):\n"
            "        return 0\n"
            "\n"
            "    class Lid:\n"
            "        def open(self):\n"
            "            pass\n"
        )
        assert _defs(reach, module) == {
            "outer": (1, 4),
            "Box.area": (7, 2),
            "Box.Lid.open": (11, 2),
        }

    def test_decorated_definition_starts_at_its_first_decorator(
        self, reach, package
    ):
        module = package / "cached.py"
        module.write_text(
            "import functools\n"
            "\n"
            "@functools.lru_cache(maxsize=None)\n"
            "@staticmethod\n"
            "def twice(x):\n"
            "    return 2 * x\n"
        )
        assert _defs(reach, module) == {"twice": (3, 4)}

    @pytest.mark.parametrize("target", [
        "repro.core.dpw:dies_per_wafer",
        "repro.config.technology:ProcessNode.beol_split",
        "repro.units:wafer_area_mm2",
    ])
    def test_first_line_matches_the_code_object(self, reach, target):
        """The walk keys a definition as a profiled call reports it."""
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        obj = module
        for part in qualname.split("."):
            obj = inspect.getattr_static(obj, part)
        function = getattr(obj, "func", obj)  # a cached_property
        code = inspect.unwrap(function).__code__
        path = str(reach.PACKAGE / Path(*module_name.split(".")[1:]))
        defs = _defs(reach, Path(path + ".py"))
        assert defs[qualname][0] == code.co_firstlineno


class TestReport:
    def test_every_module_reached_passes(self, reach, package, capsys):
        (package / "a.py").write_text("def f():\n    pass\n")
        seen = {(str(package / "a.py"), 1)}
        assert reach.report(seen) == 0
        out = capsys.readouterr().out
        assert "definitions 1, reached 1, unreached 0 (0 lines)" in out

    def test_a_module_with_nothing_reached_fails(self, reach, package, capsys):
        (package / "a.py").write_text("def f():\n    pass\n")
        (package / "dead.py").write_text(
            "def g():\n    pass\n\n\ndef h():\n    x = 1\n    return x\n"
        )
        seen = {(str(package / "a.py"), 1)}
        assert reach.report(seen) == 1
        out = capsys.readouterr().out
        assert "definitions 3, reached 1, unreached 2 (5 lines)" in out
        assert out.split("modules with no reached function:")[1].split() == [
            "repro/dead.py"
        ]

    def test_partly_reached_module_lists_what_it_missed(
        self, reach, package, capsys
    ):
        (package / "a.py").write_text(
            "def used():\n    pass\n\n\ndef unused():\n    pass\n"
        )
        assert reach.report({(str(package / "a.py"), 1)}) == 0
        listed = capsys.readouterr().out.split("lines):")[1].splitlines()
        names = [line.split()[0] for line in listed
                 if line.startswith("    ")]
        assert names == ["unused"]

    def test_lazy_export_init_is_exempt(self, reach, package):
        (package / "__init__.py").write_text(
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        )
        assert reach.report(set()) == 0

    def test_init_with_other_functions_is_not_exempt(self, reach, package):
        (package / "__init__.py").write_text(
            "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
            "def helper():\n    pass\n"
        )
        assert reach.report(set()) == 1

    def test_module_without_functions_is_not_dead(self, reach, package):
        (package / "constants.py").write_text("LIMIT = 3\n")
        assert reach.report(set()) == 0


class TestRecorder:
    def test_child_process_calls_are_recorded(self, reach, tmp_path):
        """The installed ``sitecustomize`` sees main-thread and thread calls."""
        probe = reach.Probe(tmp_path)
        probe.run(["-c", (
            "import threading\n"
            "from repro.core.dpw import dies_per_wafer\n"
            "from repro.units import mm2_to_cm2\n"
            "dies_per_wafer(300.0, 123.0)\n"
            "t = threading.Thread(target=mm2_to_cm2, args=(5.0,))\n"
            "t.start(); t.join()\n"
        )], timeout=60)
        assert probe.failures == []
        seen = reach.reached(probe.out)
        for module, name in (("core/dpw.py", "dies_per_wafer"),
                             ("units.py", "mm2_to_cm2")):
            path = str((reach.PACKAGE / module).resolve())
            first, _ = _defs(reach, Path(path))[name]
            assert (path, first) in seen, name

    def test_failing_entry_point_is_noted(self, reach, tmp_path):
        probe = reach.Probe(tmp_path)
        probe.run(["-c", "raise SystemExit('boom')"], timeout=60)
        assert probe.failures == ["-c raise SystemExit('boom'): exit 1: boom"]

    def test_work_placeholder_is_substituted(self, reach, tmp_path):
        probe = reach.Probe(tmp_path)
        assert probe._argv(["export", "drive", "{work}/drive.csv"]) == [
            "export", "drive", f"{tmp_path}/drive.csv"
        ]

    def test_child_sees_the_probe_environment(self, reach, tmp_path):
        probe = reach.Probe(tmp_path)
        entries = probe.env["PYTHONPATH"].split(os.pathsep)
        assert entries[:2] == [str(tmp_path / "site"), str(reach.SRC)]
        assert probe.env["REACH_OUT"] == str(probe.out)
        assert (tmp_path / "site" / "sitecustomize.py").read_text() == (
            reach.SITECUSTOMIZE
        )
