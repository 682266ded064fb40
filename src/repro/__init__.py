"""3D-Carbon: analytical carbon modeling for 3D and 2.5D integrated circuits.

Reproduction of Zhao et al., "3D-Carbon: An Analytical Carbon Modeling Tool
for 3D and 2.5D Integrated Circuits" (DAC 2024). The public API follows the
paper's structure:

* design description — :class:`ChipDesign`, :class:`Die`,
  :class:`PackageSpec` (Fig. 3 user input);
* parameter databases — :class:`ParameterSet` and :mod:`repro.config`
  (Table 2);
* evaluation — :class:`CarbonModel` / :func:`evaluate_design` producing
  :class:`LifecycleReport` (Eq. 1/3/16, Sec. 3.4);
* decisions — :func:`decision_metrics` (Eq. 2, Table 5);
* baselines — :mod:`repro.baselines` (ACT, ACT+, LCA, first-order);
* backends — :mod:`repro.pipeline`: the explicit stage pipeline and the
  :class:`~repro.pipeline.CarbonBackend` registry (:func:`get_backend`,
  :func:`backend_names`, :func:`register_backend`) putting 3D-Carbon and
  every baseline behind one evaluation path;
* case studies — :mod:`repro.studies` (EPYC/Lakefield validation, NVIDIA
  DRIVE series, cross-backend comparison);
* batch evaluation — :class:`BatchEvaluator` / :class:`EvalPoint`
  (:mod:`repro.engine`).

Batch / caching architecture
----------------------------

Every multi-point study (sweeps, node scaling, Monte-Carlo uncertainty,
tornado sensitivity, configuration search) routes through the batch
engine, which memoizes the pipeline stage-by-stage on *value
fingerprints* — tuples of the frozen records a stage actually reads
(:mod:`repro.pipeline.fingerprint`):

* **resolve** (wirelength, areas, BEOL, floorplan, yields) is keyed on
  the design plus the resolve-relevant parameter slice; a
  :class:`repro.core.resolve.ResolveCache` additionally shares the
  structural sub-results, so perturbing a defect density re-prices
  yields without re-running the Davis model, whose moments are further
  ``lru_cache``-d per (gate count, Rent exponent);
* **embodied / bandwidth / operational** stages carry their own keys, so
  e.g. a fab-location sweep resolves a design exactly once and a draw
  that only touches embodied-side parameters reuses the Eq. 16 result;
* **Monte-Carlo** draws all triangular multipliers as one
  ``(samples, n_factors)`` array (bit-identical to the legacy scalar
  draw sequence), applies each row through a compiled
  :class:`repro.uncertainty.plan.PerturbationPlan`, and evaluates draws in
  chunks through the memoized pipeline — ``transient`` points never grow
  the caches;
* an opt-in ``workers=`` mode spreads large grids over a thread pool,
  and ``workers="process"`` over forked process workers (true, GIL-free
  parallelism, sized to the usable CPUs).

Engine results are bit-identical to the scalar :class:`CarbonModel`
path; ``tests/test_full_size_equivalence.py`` checks that at full study
size and pins the memo work counts that make the engine fast. Speed
claims live in ``BENCHMARK.json``, measured by ``perfbench/``;
``BENCH_engine.json`` is frozen history that no code writes.
"""

from .config import (
    DEFAULT_PARAMETERS,
    AssemblyFlow,
    BondingMethod,
    IntegrationFamily,
    IntegrationSpec,
    ParameterSet,
    ProcessNode,
    StackingStyle,
    SubstrateKind,
)
from .core import (
    BandwidthResult,
    CarbonModel,
    ChipDesign,
    ChoiceRegime,
    DecisionMetrics,
    Die,
    DieKind,
    EmbodiedReport,
    LifecycleReport,
    OperationalReport,
    PackageSpec,
    SuiteOperationalReport,
    Workload,
    WorkloadSuite,
    decision_metrics,
    embodied_carbon,
    evaluate_design,
    format_decision_table,
    format_report_table,
)
from .errors import (
    BackendError,
    CarbonModelError,
    DesignError,
    InvalidDesignError,
    ParameterError,
    UnknownTechnologyError,
)
from .pipeline import (
    BackendReport,
    CarbonBackend,
    backend_names,
    get_backend,
    register_backend,
)

__version__ = "1.0.0"

#: Engine exports resolve lazily (PEP 562): the engine pulls in numpy for
#: its vectorized Monte-Carlo support, and core-only consumers (the CLI
#: inspection commands, embodied-only scripts) shouldn't pay that import.
_ENGINE_EXPORTS = ("BatchEvaluator", "EngineStats", "EvalPoint")

#: Facade exports resolve lazily too — :mod:`repro.api` pulls in the
#: service stack (and, through it, the engine).
_API_EXPORTS = ("Session", "StudySpec", "StudyHandle", "Result", "ResultSet")


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from . import engine

        return getattr(engine, name)
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AssemblyFlow",
    "BackendError",
    "BackendReport",
    "BandwidthResult",
    "BatchEvaluator",
    "BondingMethod",
    "CarbonBackend",
    "CarbonModel",
    "CarbonModelError",
    "ChipDesign",
    "ChoiceRegime",
    "DEFAULT_PARAMETERS",
    "DecisionMetrics",
    "Die",
    "DieKind",
    "DesignError",
    "EmbodiedReport",
    "EngineStats",
    "EvalPoint",
    "IntegrationFamily",
    "IntegrationSpec",
    "InvalidDesignError",
    "LifecycleReport",
    "OperationalReport",
    "PackageSpec",
    "ParameterError",
    "ParameterSet",
    "ProcessNode",
    "Result",
    "ResultSet",
    "Session",
    "StackingStyle",
    "StudyHandle",
    "StudySpec",
    "SubstrateKind",
    "SuiteOperationalReport",
    "UnknownTechnologyError",
    "Workload",
    "WorkloadSuite",
    "backend_names",
    "decision_metrics",
    "embodied_carbon",
    "evaluate_design",
    "get_backend",
    "register_backend",
    "format_decision_table",
    "format_report_table",
    "__version__",
]
