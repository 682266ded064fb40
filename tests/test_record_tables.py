"""Characterization of the five parameter lookup tables.

Pins what the process-node, integration, grid, packaging and bonding
tables accept and answer: every accepted spelling, record pass-through,
the exact unknown-name and ``BondingMethod.NONE`` error texts, raw grid
intensities, the serialized default set, and that every copy-on-write
override leaves the shared ``DEFAULT_*`` tables as they were.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import (
    DEFAULT_BONDING_TABLE,
    DEFAULT_GRID_TABLE,
    DEFAULT_INTEGRATION_TABLE,
    DEFAULT_PACKAGING_TABLE,
    DEFAULT_PARAMETERS,
    DEFAULT_TECHNOLOGY_TABLE,
    AssemblyFlow,
    BondingMethod,
    GridProfile,
    parameters_to_dict,
)
from repro.config.integration import _ALIASES
from repro.errors import ParameterError, UnknownTechnologyError
from repro.service.store import record_texts

NODE_NAMES = [
    "3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "16nm", "20nm", "22nm",
    "28nm", "65nm", "interposer",
]
INTEGRATION_NAMES = [
    "2d", "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
    "si_interposer",
]
GRID_NAMES = [
    "world", "taiwan", "south_korea", "usa", "usa_az", "ireland", "israel",
    "china", "japan", "germany", "india", "iceland", "sweden", "france",
    "renewable_charging",
]
PACKAGE_NAMES = ["fcbga", "server_mcm", "pop_mobile", "fowlp"]
BONDING_KEYS = [
    (BondingMethod.MICRO_BUMP, AssemblyFlow.D2W),
    (BondingMethod.MICRO_BUMP, AssemblyFlow.W2W),
    (BondingMethod.HYBRID, AssemblyFlow.D2W),
    (BondingMethod.HYBRID, AssemblyFlow.W2W),
    (BondingMethod.C4, AssemblyFlow.D2W),
    (BondingMethod.C4, AssemblyFlow.W2W),
    (BondingMethod.C4, AssemblyFlow.CHIP_FIRST),
    (BondingMethod.C4, AssemblyFlow.CHIP_LAST),
]

#: SHA-256 of ``json.dumps(parameters_to_dict(DEFAULT_PARAMETERS))``: the
#: serialized default set, which the ``/optimize`` store key hashes.
DEFAULT_PARAMETERS_DIGEST = (
    "8d901f4e1784c89dcd83ac8d578367f469786eaacb9667dd56bf5a16163478b3"
)


def _spellings(name: str) -> "list[str]":
    """Case and surrounding-space variants every table accepts."""
    return [name, name.upper(), name.title(), f"  {name} ", f"\t{name}\n"]


def _unknown_text(table, key) -> str:
    with pytest.raises(UnknownTechnologyError) as info:
        table.get(key)
    return str(info.value)


def _default_state():
    """Identity snapshot of every default table and its rendered records."""
    return (
        [id(r) for r in DEFAULT_TECHNOLOGY_TABLE],
        [id(r) for r in DEFAULT_INTEGRATION_TABLE],
        [id(r) for r in DEFAULT_GRID_TABLE],
        [id(DEFAULT_PACKAGING_TABLE.get(name)) for name in PACKAGE_NAMES],
        [id(DEFAULT_BONDING_TABLE.get(*key)) for key in BONDING_KEYS],
        json.dumps(parameters_to_dict(DEFAULT_PARAMETERS)),
    )


class TestTechnology:
    def test_iteration_order(self):
        assert [n.name for n in DEFAULT_TECHNOLOGY_TABLE] == NODE_NAMES

    @pytest.mark.parametrize("name", NODE_NAMES)
    def test_name_spellings(self, name):
        record = DEFAULT_TECHNOLOGY_TABLE.get(name)
        assert record.name == name
        spellings = _spellings(name)
        if name.endswith("nm"):
            number = name[:-2]
            spellings += [
                number, f" {number} ", f"{number} nm", f"{number} NM",
                f"{number}Nm", f"{number} n m", int(number), float(number),
            ]
        for spelling in spellings:
            assert DEFAULT_TECHNOLOGY_TABLE.get(spelling) is record, spelling
            assert spelling in DEFAULT_TECHNOLOGY_TABLE
            assert DEFAULT_PARAMETERS.node(spelling) is record

    def test_record_passes_through(self):
        custom = DEFAULT_TECHNOLOGY_TABLE.get("7nm").with_overrides(beta=600.0)
        assert DEFAULT_TECHNOLOGY_TABLE.get(custom) is custom
        assert DEFAULT_PARAMETERS.node(custom) is custom

    @pytest.mark.parametrize("key", ["9nm", "7.0", 7.5, "7_nm", "", "nm"])
    def test_unknown_text(self, key):
        assert _unknown_text(DEFAULT_TECHNOLOGY_TABLE, key) == (
            f"unknown process node {key!r}; known nodes: 10nm, 12nm, 14nm, "
            "16nm, 20nm, 22nm, 28nm, 3nm, 5nm, 65nm, 7nm, interposer"
        )
        assert key not in DEFAULT_TECHNOLOGY_TABLE


class TestIntegration:
    def test_iteration_order(self):
        assert [s.name for s in DEFAULT_INTEGRATION_TABLE] == INTEGRATION_NAMES

    @pytest.mark.parametrize("alias", sorted(_ALIASES))
    def test_alias_spellings(self, alias):
        record = DEFAULT_INTEGRATION_TABLE.get(_ALIASES[alias])
        spellings = _spellings(alias) + [
            alias.replace("_", "-"), alias.replace("_", " "),
            alias.replace("_", "-").upper(),
        ]
        for spelling in spellings:
            assert DEFAULT_INTEGRATION_TABLE.get(spelling) is record, spelling
            assert spelling in DEFAULT_INTEGRATION_TABLE
            assert DEFAULT_PARAMETERS.integration_spec(spelling) is record

    @pytest.mark.parametrize("name", INTEGRATION_NAMES)
    def test_name_spellings(self, name):
        record = DEFAULT_INTEGRATION_TABLE.get(name)
        assert record.name == name
        for spelling in _spellings(name) + [
            name.replace("_", "-"), name.replace("_", " ").title(),
        ]:
            assert DEFAULT_INTEGRATION_TABLE.get(spelling) is record, spelling

    def test_named_spellings(self):
        get = DEFAULT_INTEGRATION_TABLE.get
        assert get("Hybrid-3D") is get("hybrid_3d")
        assert get("Hybrid Bonding 3D") is get("hybrid_3d")
        assert get("InFO 2.5D") is get("info")
        assert get("Si-Int") is get("si_interposer")
        assert get("Micro-Bump") is get("micro_3d")
        assert get("Monolithic 3D") is get("m3d")

    def test_record_passes_through(self):
        custom = DEFAULT_INTEGRATION_TABLE.get("emib").with_overrides(
            data_rate_gbps=5.0
        )
        assert DEFAULT_INTEGRATION_TABLE.get(custom) is custom
        assert DEFAULT_PARAMETERS.integration_spec(custom) is custom

    @pytest.mark.parametrize("key", ["Foo-3D", "3d", "2.5d", "hybrid3d", 7])
    def test_unknown_text(self, key):
        assert _unknown_text(DEFAULT_INTEGRATION_TABLE, key) == (
            f"unknown integration technology {key!r}; known: 2d, emib, "
            "hybrid_3d, info, m3d, mcm, micro_3d, si_interposer"
        )
        assert key not in DEFAULT_INTEGRATION_TABLE


class TestGrid:
    def test_iteration_order(self):
        assert [g.name for g in DEFAULT_GRID_TABLE] == GRID_NAMES

    @pytest.mark.parametrize("name", GRID_NAMES)
    def test_name_spellings(self, name):
        record = DEFAULT_GRID_TABLE.get(name)
        assert record.name == name
        for spelling in _spellings(name) + [
            name.replace("_", " "), name.replace("_", " ").title(),
        ]:
            assert DEFAULT_GRID_TABLE.get(spelling) is record, spelling
            assert spelling in DEFAULT_GRID_TABLE
            assert DEFAULT_PARAMETERS.grid(spelling) is record

    def test_record_passes_through(self):
        custom = GridProfile("my_fab", 123.0)
        assert DEFAULT_GRID_TABLE.get(custom) is custom
        assert DEFAULT_PARAMETERS.grid(custom) is custom

    @pytest.mark.parametrize("value, name", [
        (42.0, "custom_42"), (42, "custom_42"), (42.5, "custom_42.5"),
        (700, "custom_700"),
    ])
    def test_raw_intensity(self, value, name):
        profile = DEFAULT_PARAMETERS.grid(value)
        assert profile == GridProfile(name, float(value))
        assert type(profile.g_co2_per_kwh) is float

    def test_raw_intensity_outside_table2_rejected(self):
        with pytest.raises(ParameterError, match="custom_1: carbon intensity"):
            DEFAULT_PARAMETERS.grid(1.0)

    @pytest.mark.parametrize("key", ["Mars", "south-korea", "usa az x", ""])
    def test_unknown_text(self, key):
        assert _unknown_text(DEFAULT_GRID_TABLE, key) == (
            f"unknown grid location {key!r}; known: china, france, germany, "
            "iceland, india, ireland, israel, japan, renewable_charging, "
            "south_korea, sweden, taiwan, usa, usa_az, world"
        )
        assert key not in DEFAULT_GRID_TABLE


class TestPackaging:
    @pytest.mark.parametrize("name", PACKAGE_NAMES)
    def test_name_spellings(self, name):
        record = DEFAULT_PACKAGING_TABLE.get(name)
        assert record.name == name
        for spelling in _spellings(name):
            assert DEFAULT_PACKAGING_TABLE.get(spelling) is record, spelling

    def test_record_passes_through(self):
        custom = DEFAULT_PACKAGING_TABLE.get("fcbga").with_overrides(
            area_scale=5.0
        )
        assert DEFAULT_PACKAGING_TABLE.get(custom) is custom

    @pytest.mark.parametrize("key", ["qfn", "server mcm", "server-mcm", "fc bga"])
    def test_unknown_text(self, key):
        assert _unknown_text(DEFAULT_PACKAGING_TABLE, key) == (
            f"unknown package class {key!r}; known: fcbga, fowlp, "
            "pop_mobile, server_mcm"
        )


class TestBonding:
    @pytest.mark.parametrize("method, flow", BONDING_KEYS)
    def test_every_default_process(self, method, flow):
        record = DEFAULT_BONDING_TABLE.get(method, flow)
        assert (record.method, record.flow) == (method, flow)
        # Enum members compare equal to their values, so value strings
        # find the same record.
        assert DEFAULT_BONDING_TABLE.get(method.value, flow.value) is record

    @pytest.mark.parametrize("method, flow", [
        (BondingMethod.MICRO_BUMP, AssemblyFlow.CHIP_FIRST),
        (BondingMethod.HYBRID, AssemblyFlow.CHIP_LAST),
        (BondingMethod.MICRO_BUMP, AssemblyFlow.NA),
    ])
    def test_unknown_text(self, method, flow):
        with pytest.raises(UnknownTechnologyError) as info:
            DEFAULT_BONDING_TABLE.get(method, flow)
        assert str(info.value) == (
            f"no bonding process for ({method.value}, {flow.value}); "
            "known: (c4,chip_first), (c4,chip_last), (c4,d2w), (c4,w2w), "
            "(hybrid,d2w), (hybrid,w2w), (micro,d2w), (micro,w2w)"
        )

    @pytest.mark.parametrize("flow", list(AssemblyFlow))
    def test_none_method_text(self, flow):
        message = "BondingMethod.NONE has no bonding process (2D or M3D design)"
        with pytest.raises(ParameterError) as info:
            DEFAULT_BONDING_TABLE.get(BondingMethod.NONE, flow)
        assert str(info.value) == message
        assert not isinstance(info.value, UnknownTechnologyError)
        with pytest.raises(ParameterError) as info:
            DEFAULT_PARAMETERS.with_bonding_override(
                BondingMethod.NONE, flow, bond_yield=0.9
            )
        assert str(info.value) == message


class TestSerializedDefaults:
    def test_parameters_to_dict_digest(self):
        text = json.dumps(parameters_to_dict(DEFAULT_PARAMETERS))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            DEFAULT_PARAMETERS_DIGEST
        )

    def test_bonding_rows_in_method_then_flow_order(self):
        rows = parameters_to_dict(DEFAULT_PARAMETERS)["bonding"]
        assert [(row["method"], row["flow"]) for row in rows] == [
            (method.value, flow.value) for method, flow in BONDING_KEYS
        ]

    def test_packaging_rows_in_table_order(self):
        rows = parameters_to_dict(DEFAULT_PARAMETERS)["packaging"]
        assert [row["name"] for row in rows] == PACKAGE_NAMES


class TestCopyOnWrite:
    """Every derived table is a copy: the shared defaults never change."""

    def _check_defaults_kept(self, derive):
        state = _default_state()
        texts = record_texts(DEFAULT_PARAMETERS)
        rendered = {key: text for key, (_, text) in texts.items()}
        derived = derive()
        assert _default_state() == state
        assert {
            key: text for key, (_, text) in record_texts(DEFAULT_PARAMETERS).items()
        } == rendered
        assert all(record is texts[key][0] for key, (record, _) in texts.items())
        return derived

    def test_technology_with_record(self):
        custom = DEFAULT_TECHNOLOGY_TABLE.get("7nm").with_overrides(beta=600.0)
        table = self._check_defaults_kept(
            lambda: DEFAULT_TECHNOLOGY_TABLE.with_record(custom)
        )
        assert table.get("7nm") is custom
        assert [n.name for n in table] == NODE_NAMES

    def test_technology_with_new_record(self):
        custom = DEFAULT_TECHNOLOGY_TABLE.get("7nm").with_overrides(name="6nm")
        table = self._check_defaults_kept(
            lambda: DEFAULT_TECHNOLOGY_TABLE.with_record(custom)
        )
        assert table.get(6) is custom
        assert "6nm" not in DEFAULT_TECHNOLOGY_TABLE
        assert [n.name for n in table] == NODE_NAMES + ["6nm"]

    def test_integration_with_record(self):
        custom = DEFAULT_INTEGRATION_TABLE.get("emib").with_overrides(
            data_rate_gbps=5.0
        )
        table = self._check_defaults_kept(
            lambda: DEFAULT_INTEGRATION_TABLE.with_record(custom)
        )
        assert table.get("EMIB") is custom

    def test_packaging_with_record(self):
        custom = DEFAULT_PACKAGING_TABLE.get("fcbga").with_overrides(
            area_scale=5.0
        )
        table = self._check_defaults_kept(
            lambda: DEFAULT_PACKAGING_TABLE.with_record(custom)
        )
        assert table.get("fcbga") is custom

    def test_bonding_with_record(self):
        custom = DEFAULT_BONDING_TABLE.get(*BONDING_KEYS[0]).with_overrides(
            bond_yield=0.5
        )
        table = self._check_defaults_kept(
            lambda: DEFAULT_BONDING_TABLE.with_record(custom)
        )
        assert table.get(*BONDING_KEYS[0]) is custom

    @pytest.mark.parametrize("override, read", [
        (
            lambda p: p.with_node_override("7 nm", beta=600.0),
            lambda p: p.node("7nm").beta,
        ),
        (
            lambda p: p.with_integration_override("Hybrid-3D", io_area_ratio=0.1),
            lambda p: p.integration_spec("hybrid_3d").io_area_ratio,
        ),
        (
            lambda p: p.with_bonding_override(
                BondingMethod.HYBRID, AssemblyFlow.W2W, bond_yield=0.5
            ),
            lambda p: p.bonding.get(BondingMethod.HYBRID, AssemblyFlow.W2W)
            .bond_yield,
        ),
        (
            lambda p: p.with_packaging_override("FCBGA", area_scale=5.0),
            lambda p: p.packaging.get("fcbga").area_scale,
        ),
    ])
    def test_parameter_set_overrides(self, override, read):
        derived = self._check_defaults_kept(lambda: override(DEFAULT_PARAMETERS))
        assert read(derived) != read(DEFAULT_PARAMETERS)
        assert read(derived) in (600.0, 0.1, 0.5, 5.0)
