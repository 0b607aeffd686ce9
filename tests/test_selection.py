"""Cross-checks of the compiled selection data path.

Scatter/gather payloads and byte totals are compared with the naive
painter in reference.py, on both sides of the strided/run switch; the
one-period partition certificate is compared with the full extent sweep;
maps of a 1 TiB file must plan and certify without enumerating it; and
views with negative parameters are rejected by the library and the
command line alike.
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
    validate_document,
    view_selecting,
)
from xdgdl.cli import main
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
    assert [e.selection.total(size) for e in dmap.entries] == [len(p) for p in expected]
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
        assert [e.selection.total(size) for e in dmap.entries] == [0, size, 0, 0]
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
    return [srv.devices[0].view for srv in default_descriptor(cfg, "t_rr").island.servers]


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
            assert entry.selection.total(size) == full * sum(one_period) + sum(one_period[:rest])
        assert sum(e.selection.total(size) for e in dmap.entries) == size


ONE_VIEW_XML = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="invalid">
  <TYPE>
    <ETYPE TYPE="CHAR" LENGTH="1"/>
  </TYPE>
  <ISLAND NAME="i">
    <SERVER HOST="h">
      <DEVICE DEVICE_ID="/dev/d">
        <VIEW SKIP_HEADER="{skip_header}" SKIP="{skip}">
          <BLOCK OFFSET="{offset}" REPEAT="{repeat}" COUNT="{count}" STRIDE="{stride}">
            <BYTEBLOCK/>
          </BLOCK>{second}
        </VIEW>
      </DEVICE>
    </SERVER>
  </ISLAND>
</PARSTORAGE>
"""

VIEW_PATH = "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]"
# the second block steps back over the first: pieces (2,2), (0,2), period 4
STEP_BACK = '\n          <BLOCK OFFSET="-4" REPEAT="1" COUNT="2" STRIDE="0"><BYTEBLOCK/></BLOCK>'
TWO_BYTES = '\n          <BLOCK OFFSET="0" REPEAT="1" COUNT="2" STRIDE="0"><BYTEBLOCK/></BLOCK>'
# a nested take of -1 inner periods selects no inner run
NESTED_BACK = """
          <BLOCK OFFSET="0" REPEAT="1" COUNT="-1" STRIDE="0">
            <VIEW SKIP_HEADER="0" SKIP="0">
              <BLOCK OFFSET="0" REPEAT="1" COUNT="2" STRIDE="0"><BYTEBLOCK/></BLOCK>
            </VIEW>
          </BLOCK>"""


class TestInvalidViews:
    @pytest.mark.parametrize(
        "params, rule, path",
        [
            pytest.param({"skip_header": -2}, "nonnegative-int", VIEW_PATH, id="skip_header"),
            # period 2 under a 3-byte take: every period overlaps the next
            pytest.param({"skip": -1}, "nonnegative-int", VIEW_PATH, id="skip"),
            pytest.param({"offset": -1}, "nonnegative-int", f"{VIEW_PATH}/BLOCK[1]", id="offset"),
            # takes stacked on one another
            pytest.param({"repeat": 3, "stride": -2}, "nonnegative-int", f"{VIEW_PATH}/BLOCK[1]", id="stride"),
            # the trailing SKIP keeps the period positive
            pytest.param({"count": -3, "skip": 6}, "positive-int", f"{VIEW_PATH}/BLOCK[1]", id="count"),
            pytest.param({"skip": 4, "second": NESTED_BACK}, "positive-int", f"{VIEW_PATH}/BLOCK[2]", id="nested_count"),
            pytest.param(
                {"offset": 2, "count": 2, "skip": 2, "second": STEP_BACK},
                "nonnegative-int",
                f"{VIEW_PATH}/BLOCK[2]",
                id="unsorted_pieces",
            ),
            # no take, yet the closed-form span would move the next block
            pytest.param(
                {"repeat": 0, "second": TWO_BYTES}, "positive-int", f"{VIEW_PATH}/BLOCK[1]", id="repeat_zero"
            ),
            pytest.param({"repeat": -1, "skip": 6}, "positive-int", f"{VIEW_PATH}/BLOCK[1]", id="repeat_negative"),
        ],
    )
    def test_rejected_by_library_and_cli(self, params, rule, path, tmp_path, capsys):
        fields = {"skip_header": 0, "skip": 0, "offset": 0, "repeat": 1, "count": 3, "stride": 0, "second": ""}
        xml = ONE_VIEW_XML.format(**{**fields, **params})
        with pytest.raises(ValueError):
            build_distribution_map(parse_document(xml), 12)

        desc, data, frags, out = (tmp_path / n for n in ("desc.xml", "data.bin", "frags", "out"))
        desc.write_text(xml)
        data.write_bytes(bytes(range(12)))
        frags.mkdir()
        (frags / "000.frag").write_bytes(bytes(range(12)))
        for argv in (
            ["plan", str(desc), "--size", "12"],
            ["scatter", str(data), str(desc), "--out", str(out)],
            ["gather", str(desc), "--frags", str(frags), "--size", "12", "--out", str(out)],
        ):
            assert main(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert f"[{rule}] {path}:" in captured.err and not captured.out, argv[0]
            assert not out.exists(), argv[0]

    @pytest.mark.parametrize(
        "header, period, pieces",
        [
            (-1, 4, ()),
            (0, 4, ((2, 2), (0, 2))),  # unsorted
            (0, 4, ((0, 3), (2, 2))),  # overlapping
            (0, 4, ((0, -1),)),
            (0, 4, ((2, 3),)),  # past the period
            (0, 0, ((0, 0),)),  # no byte lies inside [0, 0)
            (0, -2, ()),
        ],
    )
    def test_selection_rule(self, header, period, pieces):
        with pytest.raises(ValueError):
            Selection(header, period, pieces)


class TestIrregularViews:
    """Views whose selections would step back or overlap are refused, not walked."""

    @pytest.mark.parametrize(
        "skip, repeat, stride",
        [
            (-1, 1, 0),  # period 2 under a 3-byte take: every period overlaps the next
            (-3, 1, 0),  # period 0
            (-5, 1, 0),  # period -2
            (0, 3, -2),  # takes stacked on one another
        ],
    )
    def test_negative_skip_or_stride_is_not_a_partition(self, skip, repeat, stride):
        fields = {"skip_header": 0, "skip": skip, "offset": 0, "repeat": repeat, "count": 3, "stride": stride}
        doc = parse_document(ONE_VIEW_XML.format(**fields, second=""))
        assert "nonnegative-int" in [v.rule for v in validate_document(doc).violations]
        with pytest.raises(ValueError):
            build_distribution_map(doc, 10)


class TestMapEntry:
    def test_hand_built_extents_are_merged_or_rejected(self):
        entry = MapEntry("i", "h", "d", (Extent(0, 4), Extent(4, 4)))
        assert entry.extents == (Extent(0, 8),) and entry.selection.total(8) == 8
        dmap = DistributionMap(8, (entry,))
        (frag,) = scatter(bytes(range(8)), dmap)
        assert frag.payload == bytes(range(8))
        assert gather([frag], dmap) == bytes(range(8))
        for unsorted_or_overlapping in ((Extent(4, 4), Extent(0, 4)), (Extent(0, 4), Extent(3, 4))):
            with pytest.raises(ValueError):
                MapEntry("i", "h", "d", unsorted_or_overlapping)
        # an extent past the file end claims nothing: plan, scatter and
        # gather all clip the entry at the map's file size
        dmap = DistributionMap(8, (MapEntry("i", "h", "d", (Extent(0, 8), Extent(12, 2))),))
        assert check_partition(dmap).status is EXACT
        assert render_plan(dmap) == "i/h/d\t0:8\npartition: exact\n"
        frags = scatter(bytes(range(8)), dmap)
        assert frags[0].payload == bytes(range(8))
        assert gather(frags, dmap) == bytes(range(8))

    def test_extents_or_selection_not_both(self):
        with pytest.raises(TypeError):
            MapEntry("i", "h", "d", (Extent(0, 1),), selection=Selection(0, 1, ((0, 1),)), size=1)
        with pytest.raises(TypeError):
            MapEntry("i", "h", "d")
        entry = MapEntry("i", "h", "d", selection=Selection(0, 2, ((0, 1),)), size=5)
        assert entry.extents == (Extent(0, 1), Extent(2, 1), Extent(4, 1))
        assert dataclasses.replace(entry, size=3).extents == (Extent(0, 1), Extent(2, 1))
