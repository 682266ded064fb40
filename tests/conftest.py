"""Shared fixtures: parameter sets, reference designs, workloads.

Hypothesis profiles: tier-1 loads ``tier1``, which draws the same
examples on every run and keeps no example database, so a run's result
depends only on the code. ``pytest --hypothesis-profile=explore`` draws
fresh random examples, :data:`EXPLORE_SCALE` times as many per test as
its ``@settings`` budget; an input it finds failing is pinned in tier-1
as an ``@example`` on that test.
"""

from __future__ import annotations

import pytest

from repro import ChipDesign, ParameterSet, Workload
from repro.config.integration import AssemblyFlow, StackingStyle
from repro.core.design import Die, DieKind, PackageSpec

try:
    from hypothesis import is_hypothesis_test, settings
except ImportError:  # modules without property tests run without it
    settings = None
else:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, database=None)
    settings.load_profile("tier1")

#: How many times its tier-1 budget of examples each property test
#: draws under the ``explore`` profile.
EXPLORE_SCALE = 10


def pytest_collection_modifyitems(config, items) -> None:
    """Under ``explore``, raise each property test's example budget.

    The per-test ``@settings(max_examples=...)`` budgets win over any
    profile, so they are scaled on the collected tests instead. A
    property test that cannot be scaled stops the run, so the explore
    budget never silently falls back to tier-1's.
    """
    if settings is None or settings.get_current_profile_name() != "explore":
        return
    # A parametrized test is one function behind several items.
    tests = {id(item.function): (item.nodeid, item.function)
             for item in items
             if is_hypothesis_test(getattr(item, "function", None))}
    for nodeid, test in tests.values():
        # Where hypothesis keeps a @given test's effective settings.
        current = getattr(test, "_hypothesis_internal_use_settings", None)
        if current is None:
            raise pytest.UsageError(
                f"cannot raise the example budget of {nodeid}: "
                "hypothesis no longer keeps its settings where expected"
            )
        test._hypothesis_internal_use_settings = settings(
            current, max_examples=current.max_examples * EXPLORE_SCALE
        )


@pytest.fixture(scope="session")
def params() -> ParameterSet:
    return ParameterSet.default()


@pytest.fixture(scope="session")
def orin_2d() -> ChipDesign:
    """The Table 4 ORIN as a 2D reference (17 B gates, 7 nm, 254 TOPS)."""
    return ChipDesign.planar_2d(
        "ORIN_2D", "7nm", gate_count=17e9, throughput_tops=254.0,
        efficiency_tops_per_w=2.74,
    )


@pytest.fixture(scope="session")
def small_2d() -> ChipDesign:
    """A small area-specified 2D design for fast unit tests."""
    return ChipDesign.planar_2d("small", "14nm", area_mm2=100.0)


@pytest.fixture(scope="session")
def hybrid_stack(orin_2d) -> ChipDesign:
    return ChipDesign.homogeneous_split(orin_2d, "hybrid_3d")


@pytest.fixture(scope="session")
def emib_assembly(orin_2d) -> ChipDesign:
    return ChipDesign.homogeneous_split(orin_2d, "emib")


@pytest.fixture(scope="session")
def m3d_stack(orin_2d) -> ChipDesign:
    return ChipDesign.homogeneous_split(orin_2d, "m3d")


@pytest.fixture(scope="session")
def av_workload() -> Workload:
    return Workload.autonomous_vehicle()


@pytest.fixture()
def lakefield_like() -> ChipDesign:
    """A Lakefield-shaped micro-bump stack (area-specified dies)."""
    return ChipDesign(
        name="lakefield_like",
        dies=(
            Die("base", "14nm", area_mm2=92.0, kind=DieKind.MEMORY,
                workload_share=0.0),
            Die("logic", "7nm", area_mm2=82.0, workload_share=1.0),
        ),
        integration="micro_3d",
        stacking=StackingStyle.F2F,
        assembly=AssemblyFlow.D2W,
        package=PackageSpec("pop_mobile", area_mm2=144.0),
    )
