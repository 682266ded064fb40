"""Benchmark fixtures and the paper-vs-measured report hook.

Every benchmark regenerates one paper artifact (table or figure series)
and registers the produced rows; a session-end hook prints them so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
report generator. The ``check_anchors`` fixture asserts a study's entries of
the anchor table (:data:`repro.studies.anchors.ANCHORS`) and renders
them measured against paper, so every paper value printed or asserted
here comes from that one table.

Timing comes from the pytest-benchmark plugin. Without it (not
installed, or disabled with ``-p no:benchmark``) a stand-in
``benchmark`` fixture calls the function once and returns its result,
so the reproduction asserts still run.
"""

from __future__ import annotations

import pytest

from repro.studies.anchors import ANCHORS

_REPORTS: list[str] = []


def register_report(title: str, body: str) -> None:
    """Collect a reproduction table to print at session end."""
    _REPORTS.append(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}")


def checked_anchors(study: str, result) -> str:
    """Assert every anchor of ``study`` holds on ``result``; return them
    as measured-vs-paper rows."""
    lines = [f"{'anchor':<28} {'measured':>9} {'paper':>14}  source"]
    for anchor in ANCHORS.values():
        if anchor.study != study:
            continue
        measured = anchor.measure(result)
        paper = (
            f"({anchor.above:g}, {anchor.below:g})" if anchor.paper is None
            else f"{anchor.paper:g} ± {anchor.tolerance:g}"
        )
        lines.append(
            f"{anchor.name:<28} {measured:9.4g} {paper:>14}  {anchor.source}"
        )
        assert anchor.holds(measured), (anchor.name, measured)
    return "\n".join(lines)


class _CallOnce:
    """The stand-in for pytest-benchmark's ``benchmark`` fixture."""

    @pytest.fixture
    def benchmark(self):
        return lambda function, *args, **kwargs: function(*args, **kwargs)


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_CallOnce(), "benchmark-call-once")


@pytest.fixture(scope="session")
def report_sink():
    return register_report


@pytest.fixture(scope="session")
def check_anchors():
    return checked_anchors


def pytest_sessionfinish(session, exitstatus):
    if _REPORTS:
        print("\n".join(_REPORTS))


@pytest.fixture(scope="session")
def av_workload():
    from repro import Workload

    return Workload.autonomous_vehicle()


@pytest.fixture(scope="session")
def orin_reference():
    from repro.studies.drive import drive_2d_design

    return drive_2d_design("ORIN")
