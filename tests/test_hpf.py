import math

import pytest

from xdgdl import (
    ArrayDecl,
    CompoundDecl,
    DimensionDecl,
    DimensionMismatch,
    Distribution,
    DistributionMap,
    EtypeDecl,
    Extent,
    Major,
    MapEntry,
    PartitionStatus,
    ProcessorsDecl,
    UnresolvedProcessors,
    check_partition,
    compile_hpf_mapping,
    enumerate_extents,
    ownermap_to_views,
    sizeof_type,
    validate_document,
)
from xdgdl import AlignDecl, Document, IslandDecl


def procs(p: int, name: str = "P") -> ProcessorsDecl:
    return ProcessorsDecl(name, ((1, p),))


def dist_array(n: int, kind: Distribution, k: int = 1, element=None, lower: int = 1):
    return ArrayDecl(
        element=element or EtypeDecl("CHAR", 1),
        dims=(DimensionDecl(upper=lower + n - 1, lower=lower, distribute=kind, dist_skalar=k),),
        distribute_onto="P",
        name="a",
    )


class TestSizeof:
    def test_etype(self):
        assert sizeof_type(EtypeDecl("CHAR", 1)).total_bytes == 1

    def test_array(self):
        arr = ArrayDecl(EtypeDecl("INT", 4), (DimensionDecl(upper=10),))
        result = sizeof_type(arr)
        assert result.total_bytes == 40
        assert result.element_bytes == 4
        assert result.element_count == 10

    def test_compound_sums(self):
        compound = CompoundDecl((EtypeDecl("INT", 4), EtypeDecl("DOUBLE", 8)))
        result = sizeof_type(compound)
        assert result.total_bytes == 12
        assert result.element_count == 1

    def test_multi_dim_with_offset_lower(self):
        arr = ArrayDecl(
            EtypeDecl("INT", 4),
            (DimensionDecl(upper=4, lower=2), DimensionDecl(upper=5, lower=0)),
        )
        assert sizeof_type(arr).total_bytes == 3 * 6 * 4

    def test_nested_array(self):
        inner = ArrayDecl(EtypeDecl("B", 1), (DimensionDecl(upper=3),))
        outer = ArrayDecl(inner, (DimensionDecl(upper=5),))
        assert sizeof_type(outer).total_bytes == 15
        assert sizeof_type(outer).element_bytes == 3


class TestCompile:
    def test_block_8_over_2(self):
        om = compile_hpf_mapping(dist_array(8, Distribution.BLOCK), procs(2))
        assert om.owners == (0, 0, 0, 0, 1, 1, 1, 1)
        assert om.num_targets == 2

    def test_cyclic_8_over_2(self):
        om = compile_hpf_mapping(dist_array(8, Distribution.CYCLIC), procs(2))
        assert om.owners == (0, 1, 0, 1, 0, 1, 0, 1)

    def test_block_7_over_3_short_tail(self):
        om = compile_hpf_mapping(dist_array(7, Distribution.BLOCK), procs(3))
        assert om.owners == (0, 0, 0, 1, 1, 1, 2)

    def test_cyclic_group_size(self):
        om = compile_hpf_mapping(dist_array(12, Distribution.CYCLIC, k=2), procs(3))
        assert om.owners == (0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2)

    def test_wrong_processors_name(self):
        with pytest.raises(UnresolvedProcessors):
            compile_hpf_mapping(dist_array(8, Distribution.BLOCK), procs(2, name="Q"))

    def test_too_many_distributed_dims(self):
        arr = ArrayDecl(
            EtypeDecl("C", 1),
            (
                DimensionDecl(upper=4, distribute=Distribution.BLOCK),
                DimensionDecl(upper=4, distribute=Distribution.CYCLIC),
            ),
            distribute_onto="P",
        )
        with pytest.raises(DimensionMismatch):
            compile_hpf_mapping(arr, procs(2))

    def test_block_with_group_size_warns(self):
        with pytest.warns(UserWarning):
            compile_hpf_mapping(dist_array(8, Distribution.BLOCK, k=2), procs(2))

    def test_no_distribution_single_owner(self):
        om = compile_hpf_mapping(dist_array(6, Distribution.NO), procs(4))
        assert set(om.owners) == {0}
        assert om.num_targets == 4

    def test_two_dim_block_block(self):
        arr = ArrayDecl(
            EtypeDecl("C", 1),
            (
                DimensionDecl(upper=4, distribute=Distribution.BLOCK),
                DimensionDecl(upper=4, distribute=Distribution.BLOCK),
            ),
            distribute_onto="P",
        )
        grid = ProcessorsDecl("P", ((1, 2), (1, 2)))
        om = compile_hpf_mapping(arr, grid)
        assert om.num_targets == 4
        # row-major elements: (r, c) -> owner 2*(r//2) + (c//2)
        expected = tuple(2 * (i // 4 // 2) + (i % 4) // 2 for i in range(16))
        assert om.owners == expected

    def test_column_major_linearization(self):
        arr = ArrayDecl(
            EtypeDecl("C", 1),
            (
                DimensionDecl(upper=4, distribute=Distribution.BLOCK),
                DimensionDecl(upper=2),
            ),
            major=Major.COLUMN,
            distribute_onto="P",
        )
        om = compile_hpf_mapping(arr, procs(2))
        # column major: first dimension cycles fastest
        assert om.owners == (0, 0, 1, 1, 0, 0, 1, 1)

    def test_brute_force_grid(self):
        for n in range(1, 33):
            for p in range(1, 9):
                om = compile_hpf_mapping(dist_array(n, Distribution.BLOCK), procs(p))
                chunk = math.ceil(n / p)
                assert om.owners == tuple(i // chunk for i in range(n)), (n, p)
                for k in range(1, 5):
                    om = compile_hpf_mapping(dist_array(n, Distribution.CYCLIC, k=k), procs(p))
                    assert om.owners == tuple((i // k) % p for i in range(n)), (n, p, k)


class TestOwnerMapToViews:
    def expand(self, om, element_bytes):
        owned = {d: [] for d in range(om.num_targets)}
        for i, owner in enumerate(om.owners):
            owned[owner].extend(range(i * element_bytes, (i + 1) * element_bytes))
        return owned

    def assert_faithful(self, om, element_bytes):
        views = ownermap_to_views(om, element_bytes)
        assert len(views) == om.num_targets
        total = om.element_count * element_bytes
        owned = self.expand(om, element_bytes)
        entries = []
        for d, view in enumerate(views):
            extents = enumerate_extents(view, total)
            covered = [i for e in extents for i in range(e.start, e.end)]
            assert covered == owned[d], f"target {d}"
            entries.append(MapEntry("i", f"h{d}", f"d{d}", extents))
        verdict = check_partition(DistributionMap(total, tuple(entries)))
        assert verdict.status is PartitionStatus.EXACT_PARTITION

    def test_block_single_take(self):
        om = compile_hpf_mapping(dist_array(8, Distribution.BLOCK), procs(2))
        views = ownermap_to_views(om, 1)
        assert enumerate_extents(views[0], 8) == (Extent(0, 4),)
        assert enumerate_extents(views[1], 8) == (Extent(4, 8 - 4),)
        assert all(len(v.blocks) == 1 for v in views)

    def test_cyclic_alternation(self):
        om = compile_hpf_mapping(dist_array(8, Distribution.CYCLIC), procs(2))
        views = ownermap_to_views(om, 1)
        assert enumerate_extents(views[0], 8) == tuple(Extent(i, 1) for i in (0, 2, 4, 6))

    def test_cyclic_group_with_wide_elements(self):
        om = compile_hpf_mapping(dist_array(12, Distribution.CYCLIC, k=2), procs(3))
        views = ownermap_to_views(om, 4)
        assert enumerate_extents(views[1], 48) == (Extent(8, 8), Extent(32, 8))

    def test_cyclic_views_share_one_period(self):
        om = compile_hpf_mapping(dist_array(12, Distribution.CYCLIC, k=2), procs(3))
        views = ownermap_to_views(om, 4)
        from xdgdl import view_period

        assert {view_period(v) for v in views} == {3 * 2 * 4}

    def test_faithful_on_standard_shapes(self):
        for n in (1, 2, 7, 16, 31):
            for p in (1, 2, 3, 8):
                for e in (1, 2, 4, 8):
                    self.assert_faithful(
                        compile_hpf_mapping(dist_array(n, Distribution.BLOCK), procs(p)), e
                    )
                    for k in (1, 3):
                        self.assert_faithful(
                            compile_hpf_mapping(dist_array(n, Distribution.CYCLIC, k=k), procs(p)), e
                        )

    def test_faithful_on_irregular_tables(self):
        from xdgdl import OwnerMap

        om = OwnerMap("x", 3, (2, 0, 0, 1, 2, 2, 0, 1, 1, 0))
        self.assert_faithful(om, 1)
        self.assert_faithful(om, 4)

    def test_multi_dim_faithful(self):
        arr = ArrayDecl(
            EtypeDecl("C", 1),
            (
                DimensionDecl(upper=6, distribute=Distribution.CYCLIC, dist_skalar=2),
                DimensionDecl(upper=3),
            ),
            distribute_onto="P",
        )
        self.assert_faithful(compile_hpf_mapping(arr, procs(2)), 2)


class TestAlignRefs:
    """ALIGN ... WITH must name a TYPE or a PROCESSORS (validate_document's unresolved-align rule)."""

    def doc(self, aligns):
        return Document(
            version="1",
            timestamp="t",
            types=(CompoundDecl((EtypeDecl("CHAR", 1, name="A"),), name="B"),),
            island=IslandDecl("i"),
            processors=(ProcessorsDecl("P", ((1, 2),)),),
            aligns=aligns,
        )

    def test_resolved(self):
        assert validate_document(self.doc((AlignDecl("A", "B"), AlignDecl("A", "P")))).ok

    def test_unresolved(self):
        report = validate_document(self.doc((AlignDecl("A", "ghost"),)))
        assert [v.rule for v in report.violations] == ["unresolved-align"]
        assert "ghost" in report.violations[0].message

    def test_no_aligns(self):
        assert validate_document(self.doc(())).ok
