import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdgdl import (
    DistributionMap,
    Extent,
    ExtraFragment,
    Fragment,
    LengthMismatch,
    MapEntry,
    MissingFragment,
    NotAPartition,
    SizeMismatch,
    build_distribution_map,
    gather,
    member_oracle,
    scatter,
    view_selecting,
)


def pattern_bytes(n: int) -> bytes:
    alphabet = b"ABCDEFGHIJKL"
    return bytes(alphabet[i % len(alphabet)] for i in range(n))


def whole_file_map(n: int) -> DistributionMap:
    return DistributionMap(n, (MapEntry("i", "h", "d", (Extent(0, n),)),))


def random_partition_map(rng: random.Random, size: int, devices: int) -> DistributionMap:
    """Deal [0, size) to devices in random chunks, then wrap as views."""
    owned = [[] for _ in range(devices)]
    pos = 0
    while pos < size:
        length = min(rng.randint(1, 9), size - pos)
        owned[rng.randrange(devices)].append(Extent(pos, length))
        pos += length
    entries = []
    for d, extents in enumerate(owned):
        view = view_selecting(tuple(extents), size)
        # re-deriving through the engine keeps extents canonical (merged)
        from xdgdl import enumerate_extents

        entries.append(MapEntry("isle", f"h{d}", f"/dev/{d}", enumerate_extents(view, size)))
    return DistributionMap(size, tuple(entries))


class TestScatter:
    def test_two_server_payloads(self, two_server_doc):
        data = pattern_bytes(72)
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter(data, dmap)
        assert len(frags) == 2
        view1 = two_server_doc.island.servers[0].devices[0].view
        expected = bytes(b for i, b in enumerate(data) if member_oracle(view1, i))
        assert frags[0].payload == expected
        assert len(frags[0].payload) == 30
        assert len(frags[1].payload) == 42

    def test_single_extent_is_identity(self):
        data = pattern_bytes(40)
        (frag,) = scatter(data, whole_file_map(40))
        assert frag.payload == data

    def test_overlap_rejected(self):
        dmap = DistributionMap(
            8,
            (
                MapEntry("i", "h", "a", (Extent(0, 8),)),
                MapEntry("i", "h", "b", (Extent(0, 8),)),
            ),
        )
        with pytest.raises(NotAPartition) as err:
            scatter(b"x" * 8, dmap)
        assert err.value.verdict.overlaps

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            scatter(b"abc", whole_file_map(4))

    def test_empty_payloads_materialized(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 0)
        frags = scatter(b"", dmap)
        assert [f.payload for f in frags] == [b"", b""]


class TestGather:
    def test_round_trip_two_server(self, two_server_doc):
        data = pattern_bytes(72)
        dmap = build_distribution_map(two_server_doc, 72)
        assert gather(scatter(data, dmap), dmap) == data

    def test_round_trip_balanced_three_server(self, balanced_doc):
        data = bytes(random.Random(3).randbytes(82))
        dmap = build_distribution_map(balanced_doc, 82)
        assert gather(scatter(data, dmap), dmap) == data

    def test_zero_size(self):
        dmap = whole_file_map(0)
        assert gather(scatter(b"", dmap), dmap) == b""

    def test_missing_fragment(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter(pattern_bytes(72), dmap)
        with pytest.raises(MissingFragment) as err:
            gather(frags[:1], dmap)
        assert "vipclus9" in str(err.value)

    def test_length_mismatch(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter(pattern_bytes(72), dmap)
        broken = [Fragment(frags[0].device_ref, frags[0].payload + b"!"), frags[1]]
        with pytest.raises(LengthMismatch) as err:
            gather(broken, dmap)
        assert "vipios.pri" in str(err.value)

    def test_fragments_out_of_entry_order_rejected(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter(pattern_bytes(72), dmap)
        with pytest.raises(MissingFragment) as err:
            gather(frags[::-1], dmap)
        assert "vipios.pri" in str(err.value) and "position 0" in str(err.value)

    def test_extra_fragment(self):
        dmap = whole_file_map(4)
        frags = scatter(b"abcd", dmap)
        with pytest.raises(ExtraFragment):
            gather(frags + [Fragment(("x", "y", "z"), b"")], dmap)

    def test_duplicate_device_refs_match_in_order(self):
        dmap = DistributionMap(
            4,
            (
                MapEntry("i", "h", "d", (Extent(0, 2),)),
                MapEntry("i", "h", "d", (Extent(2, 2),)),
            ),
        )
        frags = scatter(b"abcd", dmap)
        assert frags[0].device_ref == frags[1].device_ref
        assert gather(frags, dmap) == b"abcd"


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 5))
    def test_gather_inverts_scatter(self, seed, size, devices):
        rng = random.Random(seed)
        dmap = random_partition_map(rng, size, devices)
        data = rng.randbytes(size)
        frags = scatter(data, dmap)
        assert sum(len(f.payload) for f in frags) == size
        assert gather(frags, dmap) == data
