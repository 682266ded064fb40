"""Per-backend uncertainty bands: each model draws its own factors.

The paper's headline claim is carbon estimates *with uncertainty* over
the Table 2 factors — and honest cross-model comparison (Sec. 4) means
each model's band must come from that model's *own* parameter
uncertainty, the way ACT v3-style models carry their own envelopes:

* **3D-Carbon** draws the Table 2 set (defect density, EPA/MPA,
  bonding energy and yield, packaging CPA, traffic intensity, ...);
* **ACT** draws its per-node intensity table, with facility-wide EPA and
  GPA factors *correlated across nodes* (one correlation group each);
* **LCA** draws a single scale on the whole GaBi CPA database (a
  database is internally consistent — its entries move together) plus
  the yield node's defect density.

Every set is a declarative :class:`repro.uncertainty.FactorSet`
compiled into one vectorized perturbation plan, and every study shares
one engine, so the design resolves once for the whole page.

Run with::

    PYTHONPATH=src python examples/backend_uncertainty.py

Equivalent CLI: ``python -m repro.cli compare epyc --draws 500``, and
against a running service: ``... compare epyc --draws 500 --service
http://127.0.0.1:8787`` (one server-side engine batch, store-cached).
"""

from repro.engine import BatchEvaluator
from repro.pipeline import get_backend
from repro.studies.validation import compare_backends, epyc_7452_design

BACKENDS = ["repro3d", "act", "lca"]
DRAWS = 500


def main() -> None:
    design = epyc_7452_design()
    evaluator = BatchEvaluator()

    # 1. What does each backend actually draw?
    for name in BACKENDS:
        factor_set = get_backend(name).factor_set(design)
        factors = ", ".join(factor.name for factor in factor_set)
        print(f"{name:<9} ({factor_set.name}): {factors}")
        print(f"{'':<9} digest {factor_set.digest()[:16]}…")

    # 2. The EPYC cross-model table with P05/P50/P95 bands, one study.
    comparison = compare_backends(
        design, backends=BACKENDS, evaluator=evaluator, draws=DRAWS
    )
    print()
    print(comparison.format_table())

    # 3. The bands are full distributions, not just three quantiles.
    print()
    for name in BACKENDS:
        band = comparison.band(name)
        print(f"{get_backend(name).label:<12} {band.summary()}")
    print()
    print(f"engine: {evaluator.stats.as_dict()}")


if __name__ == "__main__":
    main()
