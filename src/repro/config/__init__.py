"""Parameter databases for the 3D-Carbon model (paper Tables 1 and 2).

The five record databases — process nodes, integration technologies,
bonding processes, package classes and grids — are each an immutable
:class:`~repro.config.table.RecordTable`. A table is iterable, answers
``in``, looks a record up by any accepted spelling with ``get`` and
never changes in place: ``with_record`` (and the ``ParameterSet.with_*``
helpers over it) return a copy, so the shared ``DEFAULT_*`` tables stay
as they are. ``TechnologyTable(records)`` and its four siblings build a
table with that database's key, spelling rules and error text.

Sub-modules:

* :mod:`repro.config.table` — the :class:`RecordTable` type;
* :mod:`repro.config.technology` — process-node records (λ, β, EPA/GPA/MPA,
  D₀/α, BEOL limits, TSV/MIV sizes);
* :mod:`repro.config.integration` — 3D/2.5D integration technologies
  (Table 1 + Fig. 2 interface physics);
* :mod:`repro.config.bonding` — bonding energy and per-bond yields;
* :mod:`repro.config.packaging` — package classes and the package-area model;
* :mod:`repro.config.substrate` — interposer/RDL/EMIB geometry and carbon;
* :mod:`repro.config.m3d` — monolithic-3D sequential-manufacturing knobs;
* :mod:`repro.config.grid` — grid carbon intensities (CI_emb / CI_use);
* :mod:`repro.config.power` — surveyed device power data (Table 4);
* :mod:`repro.config.parameters` — the aggregated :class:`ParameterSet`.
"""

from .bonding import BondingProcess, BondingTable, DEFAULT_BONDING_TABLE
from .grid import DEFAULT_GRID_TABLE, GridProfile, GridTable
from .integration import (
    DEFAULT_INTEGRATION_TABLE,
    AssemblyFlow,
    BondingMethod,
    IntegrationFamily,
    IntegrationSpec,
    IntegrationTable,
    StackingStyle,
    SubstrateKind,
)
from .loader import (
    load_parameters,
    parameters_from_dict,
    parameters_to_dict,
    save_parameters,
)
from .m3d import DEFAULT_M3D_PARAMETERS, M3DParameters
from .packaging import DEFAULT_PACKAGING_TABLE, PackageClass, PackagingTable
from .parameters import (
    DEFAULT_PARAMETERS,
    BandwidthConstraintParameters,
    ParameterSet,
)
from .power import (
    NVIDIA_DRIVE_SERIES,
    DeviceSurvey,
    surveyed_efficiency,
)
from .substrate import DEFAULT_SUBSTRATE_PARAMETERS, SubstrateParameters
from .table import RecordTable
from .technology import (
    DEFAULT_TECHNOLOGY_TABLE,
    ProcessNode,
    TechnologyTable,
)

__all__ = [
    "AssemblyFlow",
    "BandwidthConstraintParameters",
    "BondingMethod",
    "BondingProcess",
    "BondingTable",
    "DEFAULT_BONDING_TABLE",
    "DEFAULT_GRID_TABLE",
    "DEFAULT_INTEGRATION_TABLE",
    "DEFAULT_M3D_PARAMETERS",
    "DEFAULT_PACKAGING_TABLE",
    "DEFAULT_PARAMETERS",
    "DEFAULT_SUBSTRATE_PARAMETERS",
    "DEFAULT_TECHNOLOGY_TABLE",
    "DeviceSurvey",
    "GridProfile",
    "GridTable",
    "IntegrationFamily",
    "IntegrationSpec",
    "IntegrationTable",
    "load_parameters",
    "parameters_from_dict",
    "parameters_to_dict",
    "save_parameters",
    "M3DParameters",
    "NVIDIA_DRIVE_SERIES",
    "PackageClass",
    "PackagingTable",
    "ParameterSet",
    "ProcessNode",
    "RecordTable",
    "StackingStyle",
    "SubstrateKind",
    "SubstrateParameters",
    "TechnologyTable",
    "surveyed_efficiency",
]
