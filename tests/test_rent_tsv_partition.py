"""TSV-count and gate-partitioning tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.rent.partition import (
    GatePartition,
    heterogeneous_partitions,
    homogeneous_partitions,
)
from repro.rent.tsv import (
    f2b_tsv_count,
    f2f_tsv_count,
    miv_area_mm2,
    rent_terminal_count,
    tsv_area_mm2,
)


class TestRentTerminals:
    def test_power_law(self):
        assert rent_terminal_count(1e6, 0.6, 4.0) == pytest.approx(
            4.0 * 1e6**0.6
        )

    def test_monotone_in_gate_count(self):
        assert rent_terminal_count(1e8, 0.6) > rent_terminal_count(1e6, 0.6)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ParameterError):
            rent_terminal_count(1e6, 1.2)

    def test_rejects_zero_gates(self):
        with pytest.raises(ParameterError):
            rent_terminal_count(0, 0.6)


class TestTsvCounts:
    def test_f2b_uses_rent(self):
        assert f2b_tsv_count(1e9, 0.62) == pytest.approx(
            rent_terminal_count(1e9, 0.62)
        )

    def test_f2f_uses_io_count(self):
        assert f2f_tsv_count(3000.0) == 3000.0

    def test_f2f_default(self):
        assert f2f_tsv_count() > 0

    def test_f2f_far_fewer_than_f2b(self):
        """F2F only needs external-I/O TSVs (Sec. 3.2.1)."""
        assert f2f_tsv_count() < f2b_tsv_count(1e9, 0.62) / 10.0

    def test_f2f_rejects_negative(self):
        with pytest.raises(ParameterError):
            f2f_tsv_count(-1.0)


class TestTsvArea:
    def test_keepout_square(self):
        # 1000 TSVs of 10 µm at 2.5× keep-out: 1000 · 25² µm² = 0.625 mm²
        assert tsv_area_mm2(1000, 10.0, 2.5) == pytest.approx(0.625)

    def test_zero_count(self):
        assert tsv_area_mm2(0, 5.0) == 0.0

    def test_larger_tsv_more_area(self):
        assert tsv_area_mm2(100, 25.0) > tsv_area_mm2(100, 0.3)

    def test_rejects_sub_unity_keepout(self):
        with pytest.raises(ParameterError):
            tsv_area_mm2(100, 5.0, 0.5)

    def test_miv_negligible_vs_tsv(self):
        """MIVs (<0.6 µm) consume ~1000× less area than 10 µm TSVs."""
        assert miv_area_mm2(1e6, 0.5) < tsv_area_mm2(1e6, 10.0) / 100.0

    def test_miv_rejects_large_via(self):
        with pytest.raises(ParameterError):
            miv_area_mm2(100, 5.0)


class TestPartitions:
    def test_homogeneous_two_way(self):
        parts = homogeneous_partitions(10e9, 2)
        assert len(parts) == 2
        assert all(p.gate_count == 5e9 for p in parts)
        assert sum(p.workload_share for p in parts) == pytest.approx(1.0)

    def test_homogeneous_conserves_gates(self):
        parts = homogeneous_partitions(17e9, 3)
        assert sum(p.gate_count for p in parts) == pytest.approx(17e9)

    def test_homogeneous_rejects_single(self):
        with pytest.raises(ParameterError):
            homogeneous_partitions(1e9, 1)

    def test_heterogeneous_structure(self):
        logic, memory = heterogeneous_partitions(10e9, 0.2)
        assert logic.gate_count == pytest.approx(8e9)
        assert memory.gate_count == pytest.approx(2e9)
        assert memory.is_memory and not logic.is_memory
        assert logic.workload_share == 1.0
        assert memory.workload_share == 0.0

    def test_heterogeneous_conserves_gates(self):
        parts = heterogeneous_partitions(17e9, 0.15)
        assert sum(p.gate_count for p in parts) == pytest.approx(17e9)

    def test_heterogeneous_memory_must_be_minority(self):
        """The paper's memory die is smaller than the logic die."""
        with pytest.raises(ParameterError):
            heterogeneous_partitions(1e9, 0.6)

    def test_partition_validation(self):
        with pytest.raises(ParameterError):
            GatePartition(-1.0, 0.5)
        with pytest.raises(ParameterError):
            GatePartition(1e9, 1.5)

    @given(
        gates=st.floats(min_value=1e6, max_value=1e11),
        n=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_conservation_property(self, gates, n):
        parts = homogeneous_partitions(gates, n)
        assert sum(p.gate_count for p in parts) == pytest.approx(gates)
        assert sum(p.workload_share for p in parts) == pytest.approx(1.0)

    @given(
        gates=st.floats(min_value=1e6, max_value=1e11),
        frac=st.floats(min_value=0.01, max_value=0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_heterogeneous_conservation_property(self, gates, frac):
        parts = heterogeneous_partitions(gates, frac)
        assert sum(p.gate_count for p in parts) == pytest.approx(gates)
