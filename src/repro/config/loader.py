"""Parameter-set serialization: calibration files users can version.

The paper emphasizes that carbon models live or die by their parameter
data. This module round-trips the *entire* :class:`ParameterSet` — every
node, integration spec, bonding process, package class, substrate/M3D/
bandwidth constant and grid — through plain dictionaries and JSON files,
so a team can pin, diff and share calibrations alongside their designs::

    save_parameters(params, "calibration_2024.json")
    params = load_parameters("calibration_2024.json")
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ..errors import ParameterError
from .bonding import BondingProcess, BondingTable
from .grid import GridProfile, GridTable
from .integration import (
    AssemblyFlow,
    BondingMethod,
    IntegrationFamily,
    IntegrationSpec,
    IntegrationTable,
    StackingStyle,
    SubstrateKind,
)
from .m3d import M3DParameters
from .packaging import PackageClass, PackagingTable
from .parameters import BandwidthConstraintParameters, ParameterSet
from .substrate import SubstrateParameters
from .technology import ProcessNode, TechnologyTable

#: Schema version written into every file.
SCHEMA_VERSION = 1


def _node_to_dict(node: ProcessNode) -> dict:
    return dataclasses.asdict(node)


def _spec_to_dict(spec: IntegrationSpec) -> dict:
    data = dataclasses.asdict(spec)
    data["family"] = spec.family.value
    data["bonding"] = spec.bonding.value
    data["substrate"] = spec.substrate.value
    data["allowed_stacking"] = [s.value for s in spec.allowed_stacking]
    data["allowed_assembly"] = [a.value for a in spec.allowed_assembly]
    return data


def _spec_from_dict(data: dict) -> IntegrationSpec:
    payload = dict(data)
    payload["family"] = IntegrationFamily(payload["family"])
    payload["bonding"] = BondingMethod(payload["bonding"])
    payload["substrate"] = SubstrateKind(payload["substrate"])
    payload["allowed_stacking"] = tuple(
        StackingStyle(s) for s in payload["allowed_stacking"]
    )
    payload["allowed_assembly"] = tuple(
        AssemblyFlow(a) for a in payload["allowed_assembly"]
    )
    return IntegrationSpec(**payload)


def _bonding_to_dict(process: BondingProcess) -> dict:
    return {
        "method": process.method.value,
        "flow": process.flow.value,
        "epa_kwh_per_cm2": process.epa_kwh_per_cm2,
        "bond_yield": process.bond_yield,
    }


def _bonding_from_dict(data: dict) -> BondingProcess:
    return BondingProcess(
        method=BondingMethod(data["method"]),
        flow=AssemblyFlow(data["flow"]),
        epa_kwh_per_cm2=data["epa_kwh_per_cm2"],
        bond_yield=data["bond_yield"],
    )


def parameters_to_dict(params: ParameterSet) -> dict:
    """The full parameter set as a JSON-ready dictionary."""
    return {
        "schema_version": SCHEMA_VERSION,
        "wafer_diameter_mm": params.wafer_diameter_mm,
        "beol_aware": params.beol_aware,
        "nodes": [_node_to_dict(node) for node in params.technology],
        "integrations": [_spec_to_dict(spec) for spec in params.integration],
        "bonding": [_bonding_to_dict(process) for process in params.bonding],
        "packaging": [
            dataclasses.asdict(package) for package in params.packaging
        ],
        "substrate": dataclasses.asdict(params.substrate),
        "m3d": dataclasses.asdict(params.m3d),
        "bandwidth": dataclasses.asdict(params.bandwidth),
        "grids": [
            dataclasses.asdict(grid) for grid in params.grids
        ],
    }


def parameters_from_dict(data: dict) -> ParameterSet:
    """Inverse of :func:`parameters_to_dict` (validates every record)."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported parameter schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return ParameterSet(
        technology=TechnologyTable(
            ProcessNode(**record) for record in data["nodes"]
        ),
        integration=IntegrationTable(
            _spec_from_dict(record) for record in data["integrations"]
        ),
        bonding=BondingTable(
            _bonding_from_dict(record) for record in data["bonding"]
        ),
        packaging=PackagingTable(
            PackageClass(**record) for record in data["packaging"]
        ),
        substrate=SubstrateParameters(**data["substrate"]),
        m3d=M3DParameters(**data["m3d"]),
        grids=GridTable(GridProfile(**record) for record in data["grids"]),
        bandwidth=BandwidthConstraintParameters(**data["bandwidth"]),
        wafer_diameter_mm=data["wafer_diameter_mm"],
        beol_aware=data["beol_aware"],
    )


def save_parameters(params: ParameterSet, path: "str | Path") -> None:
    """Write a parameter set to a JSON calibration file."""
    Path(path).write_text(
        json.dumps(parameters_to_dict(params), indent=2), encoding="utf-8"
    )


def load_parameters(path: "str | Path") -> ParameterSet:
    """Read a parameter set from a JSON calibration file."""
    return parameters_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
