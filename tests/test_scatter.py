import errno
import importlib
import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import entry_of, gather_bytes, scatter_bytes
from reference import view_selecting
from xdgdl import (
    DistributionMap,
    IoFailure,
    NotAPartition,
    XdgdlError,
    build_distribution_map,
    gather,
    member_oracle,
    scatter,
)

scatter_module = importlib.import_module("xdgdl.scatter")  # the package's ``scatter`` is the function


def pattern_bytes(n: int) -> bytes:
    alphabet = b"ABCDEFGHIJKL"
    return bytes(alphabet[i % len(alphabet)] for i in range(n))


class FailingStream(io.BytesIO):
    """A named stream whose ``readinto`` fails as a device would, with EIO."""

    name = "failing.bin"

    def readinto(self, buffer):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def whole_file_map(n: int) -> DistributionMap:
    return DistributionMap(n, (entry_of("i", "h", "d", ((0, n),)),))


def random_partition_map(rng: random.Random, size: int, devices: int) -> DistributionMap:
    """Deal [0, size) to devices in random chunks, then wrap as views."""
    owned = [[] for _ in range(devices)]
    pos = 0
    while pos < size:
        length = min(rng.randint(1, 9), size - pos)
        owned[rng.randrange(devices)].append((pos, length))
        pos += length
    entries = []
    for d, extents in enumerate(owned):
        view = view_selecting(tuple(extents), size)
        # re-deriving through the engine keeps extents canonical (merged)
        from xdgdl import enumerate_extents

        entries.append(entry_of("isle", f"h{d}", f"/dev/{d}", enumerate_extents(view, size)))
    return DistributionMap(size, tuple(entries))


class TestScatter:
    def test_two_server_payloads(self, two_server_doc):
        data = pattern_bytes(72)
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter_bytes(data, dmap)
        assert len(frags) == 2
        view1 = two_server_doc.island.servers[0].devices[0].view
        expected = bytes(b for i, b in enumerate(data) if member_oracle(view1, i))
        assert frags[0] == expected
        assert len(frags[0]) == 30
        assert len(frags[1]) == 42

    def test_single_extent_is_identity(self):
        data = pattern_bytes(40)
        (frag,) = scatter_bytes(data, whole_file_map(40))
        assert frag == data

    def test_overlap_rejected(self):
        dmap = DistributionMap(
            8,
            (
                entry_of("i", "h", "a", ((0, 8),)),
                entry_of("i", "h", "b", ((0, 8),)),
            ),
        )
        with pytest.raises(NotAPartition) as err:
            scatter_bytes(b"x" * 8, dmap)
        assert next(err.value.verdict.overlaps, None)

    def test_size_mismatch(self):
        for data in (b"abc", b"abcde"):  # a source that ends early or goes on past the map
            with pytest.raises(IoFailure, match="size changed while copying"):
                scatter_bytes(data, whole_file_map(4))

    @pytest.mark.parametrize(
        "count, message",
        [(2, "no fragment for device .*/vipclus10"), (4, "4 fragments for 3 map entries")],
        ids=["2-MissingFragment", "4-ExtraFragment"],
    )
    def test_sink_count_is_checked_before_a_byte_moves(self, balanced_doc, count, message):
        dmap = build_distribution_map(balanced_doc, 82)
        src, sinks = io.BytesIO(pattern_bytes(82)), [io.BytesIO() for _ in range(count)]
        with pytest.raises(XdgdlError, match=message):
            scatter(src, dmap, sinks)
        assert src.tell() == 0
        assert [sink.getvalue() for sink in sinks] == [b""] * count

    def test_empty_payloads_materialized(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 0)
        assert scatter_bytes(b"", dmap) == [b"", b""]

    def test_a_failed_source_read_names_the_source(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        with pytest.raises(IoFailure) as err:
            scatter(FailingStream(), dmap, [io.BytesIO(), io.BytesIO()])
        assert err.value.path == "failing.bin"
        assert str(err.value) == f"cannot read source file ({os.strerror(errno.EIO)}): failing.bin"


class TestGather:
    def test_round_trip_two_server(self, two_server_doc):
        data = pattern_bytes(72)
        dmap = build_distribution_map(two_server_doc, 72)
        assert gather_bytes(scatter_bytes(data, dmap), dmap) == data

    def test_round_trip_balanced_three_server(self, balanced_doc):
        data = bytes(random.Random(3).randbytes(82))
        dmap = build_distribution_map(balanced_doc, 82)
        assert gather_bytes(scatter_bytes(data, dmap), dmap) == data

    def test_a_failed_fragment_read_names_the_fragment(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter_bytes(pattern_bytes(72), dmap)
        sources = [io.BytesIO(frags[0]), FailingStream(frags[1])]  # the right length, unreadable
        with pytest.raises(IoFailure) as err:
            gather(sources, dmap, io.BytesIO())
        assert err.value.path == "failing.bin"
        assert str(err.value) == f"cannot read fragment ({os.strerror(errno.EIO)}): failing.bin"

    def test_zero_size(self):
        dmap = whole_file_map(0)
        assert gather_bytes(scatter_bytes(b"", dmap), dmap) == b""

    def test_missing_fragment(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter_bytes(pattern_bytes(72), dmap)
        with pytest.raises(XdgdlError, match="no fragment for device") as err:
            gather_bytes(frags[:1], dmap)
        assert "vipclus9" in str(err.value)

    def test_length_mismatch(self, two_server_doc):
        dmap = build_distribution_map(two_server_doc, 72)
        frags = scatter_bytes(pattern_bytes(72), dmap)
        broken = [frags[0] + b"!", frags[1]]
        with pytest.raises(XdgdlError, match="has 31 bytes, extents total 30") as err:
            gather_bytes(broken, dmap)
        assert "vipios.pri" in str(err.value)

    def test_extra_fragment(self):
        dmap = whole_file_map(4)
        frags = scatter_bytes(b"abcd", dmap)
        with pytest.raises(XdgdlError, match="2 fragments for 1 map entries"):
            gather_bytes(frags + [b""], dmap)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p[:1], "no fragment for device .*/vipclus9"),
            (lambda p: p + [b""], "3 fragments for 2 map entries"),
            (lambda p: [p[0][1:], p[1]], "fragment for .*/vipios.* has 29 bytes, extents total 30"),
        ],
        ids=["<lambda>-MissingFragment", "<lambda>-ExtraFragment", "<lambda>-LengthMismatch"],
    )
    def test_checks_come_before_any_allocation_or_write(self, two_server_doc, monkeypatch, damage, message):
        dmap = build_distribution_map(two_server_doc, 72)
        payloads = damage(scatter_bytes(pattern_bytes(72), dmap))

        class Untouched(io.RawIOBase):
            def write(self, data):
                raise AssertionError("written before the checks passed")

        def no_buffer(*args):
            raise AssertionError("allocated before the checks passed")

        monkeypatch.setattr(scatter_module, "bytearray", no_buffer, raising=False)
        with pytest.raises(XdgdlError, match=message):
            gather([io.BytesIO(p) for p in payloads], dmap, Untouched())


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 5))
    def test_gather_inverts_scatter(self, seed, size, devices):
        rng = random.Random(seed)
        dmap = random_partition_map(rng, size, devices)
        data = rng.randbytes(size)
        frags = scatter_bytes(data, dmap)
        assert sum(map(len, frags)) == size
        assert gather_bytes(frags, dmap) == data
