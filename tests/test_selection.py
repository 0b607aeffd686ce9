"""Cross-checks of the compiled selection data path.

Scatter/gather payloads and byte totals are compared with the naive
painter in reference.py, on both sides of the strided/run switch; the
one-period partition certificate is compared with the full extent sweep;
maps of a 1 TiB file must plan and certify without enumerating it; and
unvalidated views with negative parameters, whose selections are
irregular, keep the behaviour of a plain extent list.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE, MINIMAL_XML, TWO_SERVER_XML
from gen import random_document, random_view
from reference import naive_coverage, naive_period
from strategies import view_decls
from xdgdl import (
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    DeviceDecl,
    DimensionDecl,
    Distribution,
    DistributionMap,
    EtypeDecl,
    Extent,
    IslandDecl,
    MapEntry,
    NoDevices,
    NotAPartition,
    PartitionStatus,
    ProcessorsDecl,
    ServerDecl,
    ViewDecl,
    build_distribution_map,
    check_partition,
    compile_hpf_mapping,
    default_descriptor,
    gather,
    ownermap_to_views,
    parse_config,
    parse_document,
    render_plan,
    scatter,
    view_selecting,
)
from xdgdl.scatter import _copy_plan
from xdgdl.views import Selection, _sweep

EXACT = PartitionStatus.EXACT_PARTITION


def doc_of(views):
    """One device per view; None marks a NOVIEW device."""
    servers = tuple(
        ServerDecl(f"h{i}", (DeviceDecl(f"/dev/d{i}", view=v, noview=v is None),))
        for i, v in enumerate(views)
    )
    base = parse_document(MINIMAL_XML)
    return type(base)(version="1.0", timestamp="t_sel", types=base.types, island=IslandDecl("i", servers))


def complement(coverage) -> ViewDecl:
    """A view selecting exactly the bytes the coverage leaves unclaimed."""
    runs: list[Extent] = []
    for i, c in enumerate(coverage):
        if c == 0:
            if runs and runs[-1].end == i:
                runs[-1] = Extent(runs[-1].start, runs[-1].length + 1)
            else:
                runs.append(Extent(i, 1))
    return view_selecting(runs, len(coverage))


def expected_payloads(views, data: bytes) -> list[bytes]:
    if all(v is None for v in views):
        return [data] + [b""] * (len(views) - 1)
    return [
        # the painter never ends on a block-less view with a zero period
        b"" if v is None or not v.blocks else bytes(b for b, c in zip(data, naive_coverage(v, len(data))) if c)
        for v in views
    ]


def assert_moves_like_the_painter(views, size: int, seed: int = 0):
    data = random.Random(seed).randbytes(size)
    dmap = build_distribution_map(doc_of(views), size)
    assert check_partition(dmap).status is EXACT
    frags = scatter(data, dmap)
    expected = expected_payloads(views, data)
    assert [f.payload for f in frags] == expected
    assert [e.total_bytes for e in dmap.entries] == [len(p) for p in expected]
    assert gather(frags, dmap) == data
    return dmap


def strided(dmap, device: int = 0) -> bool:
    return bool(_copy_plan(dmap.entries[device], dmap.file_size)[1])


def byte_view(offset, repeat, count, stride, skip=0, skip_header=0):
    return ViewDecl(skip_header, skip, (BlockDecl(offset, repeat, count, stride, ByteBlock()),))


def round_robin(chunk: int, devices: int) -> list[ViewDecl]:
    return [byte_view(d * chunk, 1, chunk, 0, skip=(devices - 1 - d) * chunk) for d in range(devices)]


class TestScatterAgainstPainter:
    @settings(max_examples=120, deadline=None)
    @given(view_decls(), st.integers(0, 40), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
    def test_random_view_and_its_complement(self, view, periods, extra, seed):
        period = naive_period(view)
        size = min(4000, view.skip_header + periods * period + extra % (period + 1))
        coverage = naive_coverage(view, size)
        assert_moves_like_the_painter([view, complement(coverage)], size, seed)

    @pytest.mark.parametrize(
        "views, size, strided_path",
        [
            (round_robin(1, 2), 16, True),  # 1-byte cyclic
            (round_robin(1, 2), 17, True),  # ... with a clipped tail
            (round_robin(8, 3), 100, False),  # 8 bytes per period, 4 whole periods
            (round_robin(8, 3), 1000, True),  # 41 whole periods, 16-byte tail
            (round_robin(8, 3), 1020, True),  # tail clipped inside device 1's chunk
            (round_robin(8, 3), 0, False),
            (round_robin(8, 3), 5, False),  # no whole period at all
        ],
    )
    def test_both_sides_of_the_switch(self, views, size, strided_path):
        dmap = assert_moves_like_the_painter(views, size)
        assert strided(dmap) is strided_path

    @pytest.mark.parametrize("size", [0, 10, 11, 12, 200])
    def test_skip_header_at_or_past_the_size(self, size):
        view = byte_view(0, 1, 1, 0, skip=1, skip_header=11)
        views = [view, complement(naive_coverage(view, size))]
        dmap = assert_moves_like_the_painter(views, size)
        assert strided(dmap) is (size == 200)

    @pytest.mark.parametrize("size", [0, 1, 2, 1000])
    def test_all_noview_whole_file_device(self, size):
        dmap = assert_moves_like_the_painter([None, None], size)
        assert not strided(dmap)  # one run, never a per-byte copy

    @pytest.mark.parametrize("size", [0, 1, 7, 300])
    def test_block_less_views_select_nothing(self, size):
        views = [ViewDecl(0, 5, ()), byte_view(0, 1, 1, 0), ViewDecl(3, 0, ()), None]
        dmap = assert_moves_like_the_painter(views, size)
        assert [e.total_bytes for e in dmap.entries] == [0, size, 0, 0]
        assert strided(dmap, 1) is (size >= 2)


def random_tiling(rng: random.Random) -> list[ViewDecl]:
    """Views that partition every file size, half the time with one view
    nudged or added so that gaps or overlaps appear somewhere, possibly
    only after a few periods."""
    period = rng.randint(1, 24)
    owned: list[list[Extent]] = [[] for _ in range(rng.randint(1, 4))]
    pos = 0
    while pos < period:
        length = rng.randint(1, min(5, period - pos))
        owned[rng.randrange(len(owned))].append(Extent(pos, length))
        pos += length
    views = []
    for extents in filter(None, owned):
        # the same bytes behind a header: the pieces move left by it
        header = rng.randint(0, extents[0].start)
        inner = view_selecting(tuple(Extent(e.start - header, e.length) for e in extents), period)
        # ... and over 1-3 periods, so the periods differ
        views.append(ViewDecl(header, 0, (BlockDecl(0, rng.randint(1, 3), 1, 0, inner),)))
    if rng.random() < 0.5:
        i = rng.randrange(len(views))
        v = views[i]
        nudged = rng.choice(
            [
                ViewDecl(v.skip_header + rng.choice([-1, 1]) if v.skip_header else 1, v.skip, v.blocks),
                ViewDecl(v.skip_header, v.skip + 1, v.blocks),
                ViewDecl(v.skip_header + rng.randint(1, 4) * period, v.skip, v.blocks),
                random_view(rng, pmax=6),
            ]
        )
        if rng.random() < 0.5:
            views[i] = nudged
        else:
            views.append(nudged)
    return views


class TestPartitionCertificate:
    def agree(self, dmap):
        assert check_partition(dmap) == _sweep(dmap)

    def test_random_documents(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(400):
            doc = random_document(rng)
            for size in (rng.randint(0, 50), rng.randint(0, 1500)):
                try:
                    dmap = build_distribution_map(doc, size)
                except NoDevices:
                    continue
                self.agree(dmap)
                checked += 1
        assert checked > 400

    def test_random_tilings_and_near_misses(self):
        rng = random.Random(29)
        statuses = set()
        for _ in range(500):
            doc = doc_of(random_tiling(rng))
            for size in (rng.randint(0, 40), rng.randint(0, 400), rng.randint(0, 2000)):
                dmap = build_distribution_map(doc, size)
                self.agree(dmap)
                statuses.add(check_partition(dmap).status)
        assert statuses == set(PartitionStatus)


def two_server_views():
    return [srv.devices[0].view for srv in parse_document(TWO_SERVER_XML).island.servers]


def round_robin_views():
    cfg = parse_config(CONFIG_TEMPLATE.format(root="/grid"))
    return [srv.devices[0].view for srv in default_descriptor(cfg, 0, "t_rr").island.servers]


def hpf_cyclic_1b_views():
    arr = ArrayDecl(
        element=EtypeDecl("CHAR", 1),
        dims=(DimensionDecl(upper=64, distribute=Distribution.CYCLIC, dist_skalar=1),),
        distribute_onto="P",
    )
    return ownermap_to_views(compile_hpf_mapping(arr, ProcessorsDecl("P", ((1, 2),))), 1)


class TestSizeIndependence:
    @pytest.mark.parametrize("make_views", [two_server_views, round_robin_views, hpf_cyclic_1b_views])
    def test_one_tebibyte_plans_and_certifies(self, make_views):
        views = make_views()
        size = 1 << 40
        dmap = build_distribution_map(doc_of(views), size)
        assert check_partition(dmap).status is EXACT
        for entry, view in zip(dmap.entries, views):
            header, period = view.skip_header, naive_period(view)
            one_period = naive_coverage(view, header + period)[header:]
            full, rest = divmod(size - header, period)
            assert entry.total_bytes == full * sum(one_period) + sum(one_period[:rest])
        assert sum(e.total_bytes for e in dmap.entries) == size


ONE_VIEW_XML = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="irregular">
  <TYPE>
    <ETYPE TYPE="CHAR" LENGTH="1"/>
  </TYPE>
  <ISLAND NAME="i">
    <SERVER HOST="h">
      <DEVICE DEVICE_ID="/dev/d">
        <VIEW SKIP_HEADER="0" SKIP="{skip}">
          <BLOCK OFFSET="0" REPEAT="{repeat}" COUNT="3" STRIDE="{stride}">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
  </ISLAND>
</PARSTORAGE>
"""


def random_irregular_view(rng: random.Random, depth: int = 0) -> ViewDecl:
    """Unvalidated view: parameters may be negative or zero."""
    blocks = []
    for _ in range(rng.randint(0, 2)):
        child = ByteBlock() if depth or rng.random() < 0.7 else random_irregular_view(rng, 1)
        blocks.append(BlockDecl(rng.randint(-5, 6), rng.randint(-1, 3), rng.randint(-2, 4), rng.randint(-5, 6), child))
    return ViewDecl(rng.randint(-4, 5), rng.randint(-5, 6), tuple(blocks))


def painted_status(dmap) -> PartitionStatus:
    """Verdict status from painting the entries' extents byte by byte."""
    coverage = [0] * dmap.file_size
    for entry in dmap.entries:
        for e in entry.extents:
            for i in range(max(0, e.start), min(dmap.file_size, e.end)):
                coverage[i] += 1
    gaps, overlaps = 0 in coverage, any(c > 1 for c in coverage)
    if gaps and overlaps:
        return PartitionStatus.GAPS_AND_OVERLAPS
    return PartitionStatus.HAS_GAPS if gaps else PartitionStatus.HAS_OVERLAPS if overlaps else EXACT


class TestIrregularViews:
    @pytest.mark.parametrize(
        "skip, repeat, stride",
        [
            (-1, 1, 0),  # period 2 under a 3-byte take: every period overlaps the next
            (-3, 1, 0),  # period 0 selects nothing
            (-5, 1, 0),  # period -2 selects nothing
            (0, 3, -2),  # takes stacked on one another
        ],
    )
    def test_negative_skip_or_stride_is_not_a_partition(self, skip, repeat, stride):
        doc = parse_document(ONE_VIEW_XML.format(skip=skip, repeat=repeat, stride=stride))
        dmap = build_distribution_map(doc, 10)
        assert not dmap.entries[0].selection.regular or not dmap.entries[0].selection.pieces
        with pytest.raises(NotAPartition):
            scatter(bytes(10), dmap)
        with pytest.raises(NotAPartition):
            gather([], dmap)

    def test_unsorted_pieces_move_in_walk_order(self):
        # the second block steps back over the first: pieces (2,2), (0,2), period 4
        view = ViewDecl(0, 2, (BlockDecl(2, 1, 2, 0, ByteBlock()), BlockDecl(-4, 1, 2, 0, ByteBlock())))
        data = bytes(range(12))
        dmap = build_distribution_map(doc_of([view]), 12)
        (entry,) = dmap.entries
        assert not entry.selection.regular
        assert render_plan(dmap) == "i/h0//dev/d0\t2:2,0:2,6:2,4:2,10:2,8:2\npartition: exact\n"
        (frag,) = scatter(data, dmap)
        assert frag.payload == bytes([2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9])
        assert gather([frag], dmap) == data
        # a period's walk stops at its first piece past the end, as in an extent list
        assert check_partition(build_distribution_map(doc_of([view]), 10)).gaps == (Extent(8, 2),)

    def test_random_views_behave_as_their_extents(self):
        rng = random.Random(31)
        for _ in range(1500):
            views = [random_irregular_view(rng) for _ in range(rng.randint(1, 3))]
            size = rng.randint(0, 60)
            dmap = build_distribution_map(doc_of(views), size)
            verdict = check_partition(dmap)
            assert verdict.status is painted_status(dmap)
            assert [e.total_bytes for e in dmap.entries] == [sum(x.length for x in e.extents) for e in dmap.entries]
            data = rng.randbytes(size)
            if verdict.status is not EXACT:
                with pytest.raises(NotAPartition):
                    scatter(data, dmap)
                continue
            frags = scatter(data, dmap)
            assert [f.payload for f in frags] == [
                b"".join(data[x.start : x.end] for x in e.extents) for e in dmap.entries
            ]


class TestMapEntry:
    def test_hand_built_extents_are_kept_as_given(self):
        given = (Extent(4, 4), Extent(0, 4))
        entry = MapEntry("i", "h", "d", given)
        assert entry.extents == given and entry.total_bytes == 8
        dmap = DistributionMap(8, (entry,))
        (frag,) = scatter(bytes(range(8)), dmap)
        assert frag.payload == bytes([4, 5, 6, 7, 0, 1, 2, 3])
        assert gather([frag], dmap) == bytes(range(8))
        # an extent past the file end claims nothing, even ahead of the others
        dmap = DistributionMap(8, (MapEntry("i", "h", "d", (Extent(12, 2), Extent(0, 8))),))
        assert check_partition(dmap).status is EXACT
        assert scatter(bytes(range(8)), dmap)[0].payload == bytes(range(8))

    def test_extents_or_selection_not_both(self):
        with pytest.raises(TypeError):
            MapEntry("i", "h", "d", (Extent(0, 1),), selection=Selection(0, 1, ((0, 1),)), size=1)
        with pytest.raises(TypeError):
            MapEntry("i", "h", "d")
        entry = MapEntry("i", "h", "d", selection=Selection(0, 2, ((0, 1),)), size=5)
        assert entry.extents == (Extent(0, 1), Extent(2, 1), Extent(4, 1))
        assert dataclasses.replace(entry, size=3).extents == (Extent(0, 1), Extent(2, 1))
