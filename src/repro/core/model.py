"""Top-level façade: :class:`CarbonModel` (the whole of Fig. 3).

Wraps design resolution, embodied carbon (Eq. 3), the bandwidth constraint
(Sec. 3.4), operational carbon (Eq. 16), and lifecycle assembly (Eq. 1)
behind one object::

    model = CarbonModel(design, fab_location="taiwan")
    report = model.evaluate(Workload.autonomous_vehicle())

The model calls the same four stage functions as the ``repro3d``
:class:`repro.pipeline.backends.Repro3DBackend` and the batch engine, so
the three agree bit for bit. Its design, parameters and fab location are
fixed at construction: it resolves the design, prices embodied carbon
and checks bandwidth once each, and prices Eq. 16 once per distinct
workload.

For whole *studies* (sweeps, Monte-Carlo, search) use
:class:`repro.engine.BatchEvaluator`, which additionally shares work
across designs and parameter sets.
"""

from __future__ import annotations

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from .bandwidth import BandwidthResult, evaluate_bandwidth
from .design import ChipDesign
from .embodied import EmbodiedReport, embodied_carbon
from .operational import (
    OperationalReport,
    SuiteOperationalReport,
    Workload,
    WorkloadSuite,
    operational_carbon,
)
from .report import LifecycleReport
from .resolve import ResolvedDesign, resolve_design


class CarbonModel:
    """3D-Carbon evaluation of one hardware design."""

    def __init__(
        self,
        design: ChipDesign,
        params: ParameterSet | None = None,
        fab_location: "str | float" = "taiwan",
        efficiency_plugin=None,
    ) -> None:
        self.design = design
        self.params = params if params is not None else DEFAULT_PARAMETERS
        self.fab_location = fab_location
        self.efficiency_plugin = efficiency_plugin
        self._fab_grid = self.params.grid(fab_location)
        self._resolved: "ResolvedDesign | None" = None
        self._embodied: "EmbodiedReport | None" = None
        self._bandwidth: "BandwidthResult | None" = None
        #: Eq. 16 per workload value, so ``evaluate(w)`` after
        #: ``operational(w)`` (or a suite sharing workloads with earlier
        #: calls) prices each workload once.
        self._operational: "dict[Workload, OperationalReport]" = {}

    @property
    def fab_ci_kg_per_kwh(self) -> float:
        """CI_emb — the manufacturing grid's carbon intensity."""
        return self._fab_grid.kg_co2_per_kwh

    def resolved(self) -> ResolvedDesign:
        """The design with all derived quantities (cached)."""
        if self._resolved is None:
            self._resolved = resolve_design(self.design, self.params)
        return self._resolved

    def embodied(self) -> EmbodiedReport:
        """Eq. 3 embodied breakdown (cached)."""
        if self._embodied is None:
            self._embodied = embodied_carbon(
                self.resolved(), self.params, self.fab_ci_kg_per_kwh
            )
        return self._embodied

    def bandwidth(self) -> BandwidthResult:
        """Sec. 3.4 bandwidth check (cached)."""
        if self._bandwidth is None:
            self._bandwidth = evaluate_bandwidth(self.resolved(), self.params)
        return self._bandwidth

    def operational(self, workload: Workload) -> OperationalReport:
        """Eq. 16 operational carbon under ``workload`` (cached per workload)."""
        report = self._operational.get(workload)
        if report is None:
            report = operational_carbon(
                self.resolved(), self.params, workload, self.bandwidth(),
                self.efficiency_plugin,
            )
            self._operational[workload] = report
        return report

    def operational_suite(self, suite: WorkloadSuite) -> SuiteOperationalReport:
        """Eq. 16's Σ_k over a multi-application suite.

        Each workload goes through :meth:`operational`, so a suite sharing
        workloads with earlier ``operational()``/``evaluate()`` calls does
        not recompute them.
        """
        return SuiteOperationalReport(
            design_name=self.design.name,
            suite_name=suite.name,
            lifetime_years=suite.lifetime_years,
            per_workload=tuple(
                self.operational(workload) for workload in suite.workloads
            ),
        )

    def evaluate(self, workload: Workload | None = None) -> LifecycleReport:
        """Full lifecycle report; operational only when a workload is given."""
        return LifecycleReport(
            design_name=self.design.name,
            integration=self.resolved().spec.name,
            embodied=self.embodied(),
            bandwidth=self.bandwidth(),
            operational=(
                None if workload is None else self.operational(workload)
            ),
        )


def evaluate_design(
    design: ChipDesign,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
) -> LifecycleReport:
    """One-shot convenience wrapper around :class:`CarbonModel`."""
    return CarbonModel(design, params, fab_location).evaluate(workload)
