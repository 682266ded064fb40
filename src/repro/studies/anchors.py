"""The paper's numbers this reproduction is checked against, declared once.

Each :class:`Anchor` is one published value or bound: where the paper
gives it, the band the reproduction must land in, and how to read the
measured value off the study result that holds it. An anchor's name
starts with its study: ``epyc`` (:func:`~repro.studies.validation.epyc_validation`),
``lakefield`` (:func:`~repro.studies.validation.lakefield_validation`) or
``table5`` (:func:`~repro.studies.decision.table5_study`).
The anchor tests, the benchmark report, ``carbon3d validate-epyc`` /
``validate-lakefield``, :data:`~repro.studies.decision.PAPER_TABLE5` and
the examples read their paper values from :data:`ANCHORS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable


@dataclass(frozen=True)
class Anchor:
    """One number the reproduction compares against the paper.

    A measured value holds when it lies within ``tolerance`` of
    ``paper`` (where the paper gives a value) and strictly between
    ``above`` and ``below``.
    """

    name: str
    source: str
    measure: Callable[[Any], float]
    paper: "float | None" = None
    tolerance: float = 0.0
    above: float = -math.inf
    below: float = math.inf

    @property
    def study(self) -> str:
        """The study whose result :attr:`measure` reads."""
        return self.name.partition(".")[0]

    def holds(self, measured: float) -> bool:
        near = self.paper is None or abs(measured - self.paper) <= self.tolerance
        return near and self.above < measured < self.below


def _table5(option: str, column: str, scale: float = 1.0):
    """Read one option's Table 5 metric (a save ratio ×100 is in %)."""
    return lambda result: getattr(result.row(option).metrics, column) * scale


#: Table 5 save ratios in %: option → (embodied save, overall save).
_TABLE5_SAVES = {
    "EMIB": (23.69, 6.50),
    "Si_int": (-9.59, -9.86),
    "Micro": (25.88, 7.63),
    "Hybrid": (35.64, 21.71),
    "M3D": (65.53, 41.03),
}

ANCHORS: "dict[str, Anchor]" = {anchor.name: anchor for anchor in (
    Anchor("epyc.lca_gap", "Sec. 4.1", attrgetter("lca_vs_2d_discrepancy"),
           paper=0.044, tolerance=0.02),
    Anchor("epyc.packaging_kg", "Fig. 4(a)",
           attrgetter("carbon_3d.packaging_kg"), paper=3.47, tolerance=0.05),
    Anchor("epyc.act_plus_packaging_kg", "Fig. 4(a)",
           attrgetter("act_plus.packaging_kg"), paper=0.15, tolerance=1e-9),
    Anchor("lakefield.d2w_logic_yield", "Sec. 4.2",
           attrgetter("d2w_logic_yield"), paper=0.893, tolerance=0.003),
    Anchor("lakefield.d2w_memory_yield", "Sec. 4.2",
           attrgetter("d2w_memory_yield"), paper=0.884, tolerance=0.003),
    Anchor("lakefield.w2w_yield", "Sec. 4.2", attrgetter("w2w_yield"),
           paper=0.797, tolerance=0.003),
    *(
        Anchor(f"table5.{option}.{column}", "Table 5",
               _table5(option, f"{column}_ratio", 100.0), paper=paper,
               tolerance=tolerance)
        for option, saves in _TABLE5_SAVES.items()
        for column, paper, tolerance in zip(
            ("embodied_save", "overall_save"), saves, (4.0, 5.0)
        )
    ),
    Anchor("table5.EMIB.tc_years", "Table 5", _table5("EMIB", "tc_years"),
           above=5.0, below=25.0),
    Anchor("table5.Micro.tc_years", "Table 5", _table5("Micro", "tc_years"),
           above=15.0, below=45.0),
    Anchor("table5.Hybrid.tr_years", "Table 5", _table5("Hybrid", "tr_years"),
           above=75.0),
    Anchor("table5.M3D.tr_years", "Table 5", _table5("M3D", "tr_years"),
           above=19.0),
)}
