import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import entry_of, random_view
from reference import naive_coverage, naive_period, view_selecting
from strategies import view_decls
from test_selection import doc_of
from xdgdl import (
    BlockDecl,
    ByteBlock,
    DescriptorError,
    DeviceDecl,
    DistributionMap,
    IslandDecl,
    PartitionStatus,
    ServerDecl,
    ViewDecl,
    build_distribution_map,
    check_partition,
    enumerate_extents,
    member_oracle,
    render_plan,
)
from descriptors import MINIMAL_XML
from xdgdl import parse_document


def byte_view(offset, repeat, count, stride, skip=0, skip_header=0):
    return ViewDecl(skip_header, skip, (BlockDecl(offset, repeat, count, stride, ByteBlock()),))


S1 = byte_view(0, 3, 5, 7, skip=7)
S2 = byte_view(5, 3, 7, 5, skip=0)


def per_period(view) -> int:
    """Bytes one full period of the view places on its device."""
    return build_distribution_map(doc_of([view]), 0).entries[0].selection.per_period


class TestPeriod:
    def test_two_server_pair(self):
        assert S1.period == 36
        assert S2.period == 36

    def test_single_take_is_count(self):
        assert byte_view(0, 1, 13, 99).period == 13

    def test_nested_three_server(self, three_server_doc):
        views = [s.devices[0].view for s in three_server_doc.island.servers]
        assert views[0].period == 82
        assert views[2].period == 82
        # the misaligned middle server: inner period 31, outer 2*31 + 12 + 12
        assert views[1].period == 86
        inner = views[1].blocks[0].child
        assert inner.period == 31

    def test_per_period_bytes(self):
        assert per_period(S1) == 15
        assert per_period(S2) == 21
        assert Fraction(15, 21) == Fraction(5, 7)

    def test_overflow(self):
        huge = byte_view(0, 2**40, 2**40, 0)
        with pytest.raises(DescriptorError, match="exceeds the 64-bit range"):
            huge.period

    def test_a_period_past_int64_is_not_kept(self):
        huge = byte_view(0, 2**40, 2**40, 0)
        for _ in range(2):
            with pytest.raises(DescriptorError, match="exceeds the 64-bit range"):
                huge.period
        assert "period" not in huge.__dict__

    @settings(max_examples=200, deadline=None)
    @given(view_decls())
    def test_matches_naive_walk(self, view):
        assert view.period == naive_period(view)

    def test_block_take_and_span_match_naive_walk(self):
        """Each block's take and span are the painter's period of one take
        of it and of the block alone, in random views at every depth."""
        rng = random.Random(28)
        for _ in range(300):
            stack = [random_view(rng)]
            while stack:
                for b in stack.pop().blocks:
                    assert b.take == naive_period(ViewDecl(0, 0, (BlockDecl(0, 1, b.count, 0, b.child),)))
                    assert b.span == naive_period(ViewDecl(0, 0, (b,)))
                    if isinstance(b.child, ViewDecl):
                        stack.append(b.child)


class TestEnumerate:
    def test_two_server_first_device(self):
        assert enumerate_extents(S1, 72) == tuple(
            [(0, 5), (12, 5), (24, 5), (36, 5), (48, 5), (60, 5)]
        )

    def test_region_zero(self):
        assert enumerate_extents(S1, 0) == ()

    def test_three_server_third_device(self, three_server_doc):
        view = three_server_doc.island.servers[2].devices[0].view
        assert enumerate_extents(view, 82) == tuple([(29, 12), (70, 12)])

    def test_straddling_take_clipped(self):
        assert enumerate_extents(S1, 75) == tuple(
            [(0, 5), (12, 5), (24, 5), (36, 5), (48, 5), (60, 5), (72, 3)]
        )

    def test_adjacent_takes_merge(self):
        view = byte_view(0, 4, 3, 0)
        assert enumerate_extents(view, 24) == ((0, 24),)

    def test_skip_header_consumed_once(self):
        view = byte_view(0, 1, 4, 0, skip=4, skip_header=10)
        assert enumerate_extents(view, 26) == tuple([(10, 4), (18, 4)])

    @settings(max_examples=200, deadline=None)
    @given(view_decls(), st.integers(0, 512))
    def test_matches_naive_painting(self, view, region):
        coverage = naive_coverage(view, region)
        assert all(c <= 1 for c in coverage)
        expected = []
        for i, c in enumerate(coverage):
            if c:
                if expected and expected[-1][1] == i:
                    expected[-1][1] = i + 1
                else:
                    expected.append([i, i + 1])
        assert enumerate_extents(view, region) == tuple((s, e - s) for s, e in expected)

    @settings(max_examples=150, deadline=None)
    @given(view_decls(), st.integers(0, 3))
    def test_period_consistency(self, view, k):
        region = view.skip_header + k * view.period
        selected = sum(n for _, n in enumerate_extents(view, region))
        assert selected == k * per_period(view)

    @settings(max_examples=150, deadline=None)
    @given(view_decls(), st.integers(0, 300), st.integers(0, 300))
    def test_clipping_is_prefix_restriction(self, view, a, b):
        n, m = sorted((a, b))
        small = enumerate_extents(view, n)
        big = enumerate_extents(view, m)
        clipped = []
        for start, length in big:
            if start >= n:
                break
            clipped.append((start, min(start + length, n) - start))
        assert list(small) == clipped


class TestOracle:
    def test_examples(self):
        assert member_oracle(S1, 13) is True
        assert member_oracle(S2, 13) is False

    def test_header_bytes_excluded(self):
        view = byte_view(0, 1, 4, 0, skip_header=9)
        assert member_oracle(view, 8) is False
        assert member_oracle(view, 9) is True

    @pytest.mark.parametrize("skip", [0, 4])
    def test_a_view_without_blocks_selects_nothing(self, skip):
        view = ViewDecl(0, skip, ())
        assert [member_oracle(view, i) for i in range(9)] == [False] * 9
        assert enumerate_extents(view, 9) == ()

    @settings(max_examples=150, deadline=None)
    @given(view_decls())
    def test_agrees_with_enumeration(self, view):
        region = 512
        covered = bytearray(region)
        for start, length in enumerate_extents(view, region):
            for i in range(start, start + length):
                covered[i] = 1
        mismatches = [i for i in range(region) if member_oracle(view, i) != bool(covered[i])]
        assert mismatches == []

    def test_seeded_equivalence(self):
        rng = random.Random(7)
        for _ in range(100):
            view = random_view(rng)
            region = 512
            covered = bytearray(region)
            for start, length in enumerate_extents(view, region):
                for i in range(start, start + length):
                    covered[i] = 1
            for i in range(region):
                assert member_oracle(view, i) == bool(covered[i])


class TestDistributionMap:
    def test_two_server_sizes(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        assert [e.selection.total(72) for e in dmap.entries] == [30, 42]
        assert [len(e.extents) for e in dmap.entries] == [6, 6]
        assert [e.host for e in dmap.entries] == [
            "vipios.pri.univie.ac.at",
            "vipclus9.pri.univie.ac.at",
        ]

    def test_size_zero_empty(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 0)
        assert all(e.extents == () for e in dmap.entries)

    def test_single_noview_takes_whole_file(self):
        island = IslandDecl("i", (ServerDecl("h", (DeviceDecl("/dev/a", noview=True),)),))
        doc = parse_document(MINIMAL_XML)
        doc = type(doc)(
            version=doc.version,
            timestamp=doc.timestamp,
            types=doc.types,
            island=island,
        )
        dmap = build_distribution_map(doc, 64)
        assert dmap.entries[0].extents == ((0, 64),)

    def test_noview_beside_views_gets_nothing(self, two_server_doc):
        island = two_server_doc.island
        extra = ServerDecl("spare", (DeviceDecl("/dev/z", noview=True),))
        doc = type(two_server_doc)(
            version="1.0",
            timestamp="t_x",
            types=two_server_doc.types,
            island=IslandDecl(island.name, island.servers + (extra,)),
        )
        dmap = build_distribution_map(doc, 72)
        assert dmap.entries[2].extents == ()

    def test_negative_file_size_is_refused(self, two_server_doc):
        with pytest.raises(ValueError, match="file_size must be >= 0, got -1"):
            build_distribution_map(two_server_doc, -1)

    def test_no_devices(self):
        doc = parse_document(MINIMAL_XML)
        with pytest.raises(DescriptorError, match="island 'lonely' declares no device to place bytes on"):
            build_distribution_map(doc, 10)


class TestPartition:
    def entry(self, device, pairs):
        return entry_of("i", "h", device, tuple(pairs))

    def test_two_server_exact(self, two_server_doc):
        for size in (0, 1, 36, 72, 75):
            dmap = build_distribution_map(two_server_doc, size)
            assert check_partition(dmap).status is PartitionStatus.EXACT_PARTITION, size

    def test_identical_claims_overlap(self):
        dmap = DistributionMap(10, (self.entry("a", [(0, 10)]), self.entry("b", [(0, 10)])))
        verdict = check_partition(dmap)
        assert verdict.status is PartitionStatus.HAS_OVERLAPS
        assert tuple(verdict.overlaps) == (((0, 10), ("i/h/a", "i/h/b")),)

    def test_gap_reported(self):
        dmap = DistributionMap(10, (self.entry("a", [(0, 3), (7, 3)]),))
        verdict = check_partition(dmap)
        assert verdict.status is PartitionStatus.HAS_GAPS
        assert tuple(verdict.gaps) == ((3, 4),)

    def test_misaligned_three_server(self, three_server_doc):
        dmap = build_distribution_map(three_server_doc, 82)
        verdict = check_partition(dmap)
        assert verdict.status is PartitionStatus.GAPS_AND_OVERLAPS
        # cross-check against coverage counts painted per device
        coverage = [0] * 82
        for server in three_server_doc.island.servers:
            per_device = naive_coverage(server.devices[0].view, 82)
            for i, c in enumerate(per_device):
                coverage[i] += c
        gap_bytes = {i for i, c in enumerate(coverage) if c == 0}
        overlap_bytes = {i for i, c in enumerate(coverage) if c > 1}
        assert gap_bytes == {i for start, length in verdict.gaps for i in range(start, start + length)}
        assert overlap_bytes == {i for (start, length), _ in verdict.overlaps for i in range(start, start + length)}

    def test_balanced_three_server_exact(self, balanced_doc):
        dmap = build_distribution_map(balanced_doc, 82)
        assert check_partition(dmap).status is PartitionStatus.EXACT_PARTITION

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_status_is_order_insensitive(self, seed, data):
        rng = random.Random(seed)
        entries = tuple(
            entry_of("i", "h", f"d{j}", enumerate_extents(random_view(rng, pmax=8), 64))
            for j in range(rng.randint(1, 4))
        )
        dmap = DistributionMap(64, entries)
        baseline = check_partition(dmap).status
        perm = data.draw(st.permutations(range(len(entries))))
        shuffled = DistributionMap(64, tuple(entries[i] for i in perm))
        assert check_partition(shuffled).status is baseline


class TestViewSelecting:
    def test_rebuilds_extents(self):
        extents = tuple([(3, 4), (10, 1), (20, 12)])
        view = view_selecting(extents, 40)
        assert enumerate_extents(view, 40) == extents

    def test_empty_selection(self):
        view = view_selecting((), 40)
        assert enumerate_extents(view, 40) == ()

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            view_selecting(tuple([(5, 2), (0, 2)]), 10)

    def test_seeded_random_extent_sets(self):
        rng = random.Random(40)
        for _ in range(200):
            region = rng.randint(1, 200)
            pos, extents = 0, []
            while pos < region and rng.random() < 0.8:
                pos += rng.randint(0, 5)
                length = rng.randint(1, 9)
                if pos + length > region:
                    break
                extents.append((pos, length))
                pos += length
            view = view_selecting(tuple(extents), region)
            merged = []
            for start, length in extents:
                if merged and sum(merged[-1]) == start:
                    merged[-1] = (merged[-1][0], merged[-1][1] + length)
                else:
                    merged.append((start, length))
            assert enumerate_extents(view, region) == tuple(merged)


class TestPlanRendering:
    def test_format(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        text = render_plan(dmap)
        lines = text.splitlines()
        assert lines[0] == (
            "island1.pri.univie.ac.at/vipios.pri.univie.ac.at//dev/vda1\t"
            "0:5,12:5,24:5,36:5,48:5,60:5"
        )
        assert lines[-1] == "partition: exact"

    def test_verdict_words(self, three_server_doc):
        dmap = build_distribution_map(three_server_doc, 82)
        assert render_plan(dmap).splitlines()[-1] == "partition: gaps+overlaps"
