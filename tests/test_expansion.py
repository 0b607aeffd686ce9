"""Cross-checks of the bulk expansions used for planning.

``render_plan``, ``MapEntry.extents`` and ``enumerate_extents`` all read
the merged runs of ``Selection.progressions``; they are compared with the
naive painter in reference.py, on random views and on random selections
whose runs wrap across periods.  ``check_partition``'s gap and overlap
report is compared with painted coverage.  The HPF owner formula, and
the bytes its lowered views select, are compared with the per-element
owners in reference.py.  A cost guard counts the Python-level steps of
planning, which must not grow with the file size, of lowering an HPF
array, which must not grow with its extents, and of the streaming
window maps, which must not grow with the period.
"""

import dataclasses
import gc
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE
from gen import random_view
from reference import naive_coverage, naive_owners, painted_report, painted_runs, view_selecting
from strategies import view_decls
from test_selection import byte_view, doc_of, round_robin
from xdgdl import (
    ArrayDecl,
    DimensionDecl,
    Distribution,
    DistributionMap,
    EtypeDecl,
    Major,
    MapEntry,
    PartitionStatus,
    ProcessorsDecl,
    build_distribution_map,
    check_partition,
    compile_hpf_mapping,
    default_descriptor,
    enumerate_extents,
    ownermap_to_views,
    parse_config,
    render_plan,
)
from xdgdl import views
from xdgdl.scatter import WINDOW_BYTES, _windows
from xdgdl.views import Selection

EXACT = PartitionStatus.EXACT_PARTITION


def plan_runs(text: str) -> list[list[tuple[int, int]]]:
    """Per-device runs parsed back from plan text."""
    devices = []
    for line in text.splitlines()[:-1]:
        _, runs = line.split("\t")
        devices.append([tuple(map(int, run.split(":"))) for run in runs.split(",") if run])
    return devices


def selection_coverage(sel: Selection, size: int) -> list[bool]:
    """Byte i is selected if it lies past the header inside a piece,
    taken modulo the period."""
    return [
        i >= sel.header and any(a <= (i - sel.header) % sel.period < a + n for a, n in sel.pieces)
        for i in range(size)
    ]


def assert_expands_like_the_painter(sel: Selection, size: int, expected: list[tuple[int, int]]):
    assert list(sel.runs(size)) == expected
    entry = MapEntry("i", "h", "d", selection=sel, size=size)
    assert entry.extents == tuple(expected)
    assert entry.selection.total(size) == sum(n for _, n in expected)
    assert plan_runs(render_plan(DistributionMap(size, (entry,)))) == [expected]


@st.composite
def selections(draw, wrap: bool):
    """A valid selection from a random byte mask of one period; a
    wrapping one selects the first and the last byte of its period."""
    period = draw(st.integers(1, 12))
    mask = draw(st.lists(st.booleans(), min_size=period, max_size=period))
    if wrap:
        mask[0] = mask[-1] = True
    return Selection(draw(st.integers(0, 8)), period, tuple(painted_runs(mask)))


class TestRunsAgainstPainter:
    @settings(max_examples=150, deadline=None)
    @given(view_decls(), st.integers(0, 3), st.integers(0, 60))
    def test_random_views(self, view, periods, extra):
        size = view.skip_header + periods * view.period + extra
        expected = painted_runs(naive_coverage(view, size))
        assert enumerate_extents(view, size) == tuple(expected)
        dmap = build_distribution_map(doc_of([view]), size)
        assert dmap.entries[0].extents == enumerate_extents(view, size)
        assert plan_runs(render_plan(dmap)) == [expected]

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(selections))
    def test_random_selections_at_every_size(self, sel):
        """Covers wrapping runs, size 0, sizes at or below the header
        and tails clipped inside any piece."""
        for size in range(sel.header + 3 * sel.period + 2):
            assert_expands_like_the_painter(sel, size, painted_runs(selection_coverage(sel, size)))

    def test_wrapping_selection_merges_across_periods(self):
        sel = Selection(3, 10, ((0, 2), (4, 1), (7, 3)))
        # the rotated selection starts at the second piece and its last
        # piece absorbs the next period's first
        assert list(sel.runs(27)) == [(3, 2), (7, 1), (10, 5), (17, 1), (20, 5)]
        assert list(sel.runs(24)) == [(3, 2), (7, 1), (10, 5), (17, 1), (20, 4)]
        assert list(sel.runs(4)) == [(3, 1)] and list(sel.runs(3)) == []

    def test_tail_clipped_inside_its_first_piece(self):
        view = byte_view(2, 2, 3, 1, skip=4, skip_header=5)  # period 13, pieces (2,3), (6,3)
        size = 5 + 2 * 13 + 2 + 1
        assert enumerate_extents(view, size)[-1] == (5 + 2 * 13 + 2, 1)
        assert enumerate_extents(view, size) == tuple(painted_runs(naive_coverage(view, size)))

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 12289])
    def test_one_device_round_robin_is_one_run(self, size, tmp_path):
        cfg = parse_config(CONFIG_TEMPLATE.format(root=tmp_path))
        cfg = dataclasses.replace(cfg, device_paths=cfg.device_paths[:1])
        dmap = build_distribution_map(default_descriptor(cfg, "t"), size)
        assert plan_runs(render_plan(dmap)) == [[(0, size)] if size else []]
        assert render_plan(dmap).endswith("partition: exact\n")

    @pytest.mark.parametrize("size", [0, 1, 7, 100])
    def test_all_noview_whole_file(self, size):
        dmap = build_distribution_map(doc_of([None, None]), size)
        assert plan_runs(render_plan(dmap)) == [[(0, size)] if size else [], []]
        assert [len(e.extents) for e in dmap.entries] == [1 if size else 0, 0]


class TestTiledPlan:
    """Plans that take the tiled path (whole decimal blocks formatted once
    per phase) equal a naive ``start:length`` join of the painter's runs:
    round robins of 1 B x 2 and 8 B x 3, pieces of uneven lengths whose
    period does not divide the block, a wrapping selection and the
    nested three-server layout, behind headers of 0, 999 and 10**d, and
    10**d + 1 for the block sizes d they tile with (10**3 and 10**4).
    A header of 0 or 10**d starts a run on a block boundary."""

    @pytest.fixture
    def cells(self, monkeypatch):
        """The start formats ``views._format`` is called with."""
        cells, real = [], views._format

        def spy(starts, lengths, first=0, cell="%d"):
            cells.append(cell)
            return real(starts, lengths, first, cell)

        monkeypatch.setattr(views, "_format", spy)
        return cells

    @staticmethod
    def assert_plans_like_the_painter(layout, size):
        dmap = build_distribution_map(doc_of(layout), size)
        lines = [
            f"{entry.label}\t" + ",".join(f"{start}:{length}" for start, length in painted_runs(naive_coverage(view, size)))
            for entry, view in zip(dmap.entries, layout)
        ]
        assert render_plan(dmap) == "\n".join([*lines, f"partition: {dmap.verdict.status.value}"]) + "\n"

    @pytest.mark.parametrize(
        "layout, least, most",
        [
            (round_robin(1, 2), 20_000, 60_000),
            (round_robin(8, 3), 130_000, 200_000),
            ([view_selecting([(1, 2), (6, 3)], 14)], 30_000, 50_000),
            ([view_selecting([(0, 2), (5, 1), (9, 3)], 12)], 15_000, 30_000),
        ],
        ids=["1B-x-2", "8B-x-3", "uneven", "wrapping"],
    )
    def test_round_robins_and_irregular_selections(self, cells, layout, least, most):
        rng = random.Random(21)
        for header in (0, 999, 1000, 1001, 10_000, 10_001):
            cells.clear()
            headed = [dataclasses.replace(view, skip_header=header) for view in layout]
            self.assert_plans_like_the_painter(headed, header + rng.randint(least, most))
            assert any("\0" in cell for cell in cells), header

    def test_nested_three_servers_at_2_mib(self, cells, balanced_doc):
        layout = [device.view for server in balanced_doc.island.servers for device in server.devices]
        self.assert_plans_like_the_painter(layout, (2 << 20) + random.Random(21).randrange(82))
        assert sum("\0" in cell for cell in cells) == 3 * 41  # every device tiles its 41 phases


class TestPartitionReport:
    def test_gaps_and_overlaps_of_random_maps(self):
        rng = random.Random(4)
        inexact = 0
        for _ in range(200):
            views = [random_view(rng) for _ in range(rng.randint(1, 3))]
            size = rng.randint(0, 300)
            dmap = build_distribution_map(doc_of(views), size)
            verdict = check_partition(dmap)
            labels = [e.label for e in dmap.entries]
            gaps, overlaps = painted_report([naive_coverage(v, size) for v in views], labels, size)
            assert (tuple(verdict.gaps), tuple(verdict.overlaps)) == (gaps, overlaps)
            assert (verdict.status is EXACT) == (not gaps and not overlaps)
            inexact += verdict.status is not EXACT
        assert inexact > 150


def random_array(rng: random.Random) -> tuple[ArrayDecl, ProcessorsDecl]:
    dims = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice([Distribution.BLOCK, Distribution.CYCLIC, Distribution.NO, None])
        lower = rng.choice([0, 1, 2])
        skalar = rng.randint(1, 4) if kind is not Distribution.BLOCK else 1
        dims.append(DimensionDecl(upper=lower + rng.randint(0, 8), lower=lower, distribute=kind, dist_skalar=skalar))
    axes = sum(d.distribute in (Distribution.BLOCK, Distribution.CYCLIC) for d in dims) + rng.randint(0, 1)
    procs = ProcessorsDecl("P", tuple((1, rng.randint(1, 4)) for _ in range(max(1, axes))))
    arr = ArrayDecl(EtypeDecl("CHAR", 1), tuple(dims), major=rng.choice(list(Major)), distribute_onto="P")
    return arr, procs


class TestOwnerTable:
    def test_random_arrays_match_the_owner_formula(self):
        rng = random.Random(9)
        for _ in range(400):
            arr, procs = random_array(rng)
            om = compile_hpf_mapping(arr, procs)
            assert om.owners == tuple(naive_owners(arr, procs.shape)), (arr, procs)
            assert om.num_targets == math.prod(procs.shape)

    def test_lowered_views_select_the_owned_bytes(self):
        rng = random.Random(10)
        for _ in range(400):
            arr, procs = random_array(rng)
            element_bytes = rng.randint(1, 3)
            owners = naive_owners(arr, procs.shape)
            size = len(owners) * element_bytes
            views = ownermap_to_views(compile_hpf_mapping(arr, procs), element_bytes)
            assert len(views) == math.prod(procs.shape)
            for target, view in enumerate(views):
                coverage = [o == target for o in owners for _ in range(element_bytes)]
                assert list(enumerate_extents(view, size)) == painted_runs(coverage), (
                    arr,
                    procs,
                    target,
                )
            assert check_partition(build_distribution_map(doc_of(views), size)).status is EXACT, (arr, procs)

    @pytest.mark.parametrize("skalar", [0, -2])
    def test_cyclic_group_below_one_is_rejected(self, skalar):
        arr = ArrayDecl(
            EtypeDecl("CHAR", 1),
            (DimensionDecl(upper=8, distribute=Distribution.CYCLIC, dist_skalar=skalar),),
            distribute_onto="P",
        )
        with pytest.raises(ValueError):
            compile_hpf_mapping(arr, ProcessorsDecl("P", ((1, 2),)))


def python_steps(fn) -> int:
    """Trace events (Python-level calls, returns and executed lines) of
    fn(): a loop in Python code adds at least one per iteration, a loop
    inside a builtin adds none.  The garbage collector is paused while
    tracing: a collection would run the Python ``gc.callbacks`` that
    other libraries install (hypothesis times collections) and count
    their steps too."""
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        steps += 1
        return trace

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return steps


class TestCostGuard:
    """Planning expands runs in bulk and the partition verdict sweeps one
    period: the Python-level steps each takes are the same for a file 16
    times larger.  Lowering an HPF array
    takes the same steps for extents 16 times larger.  A window's
    map is built from only the pieces that meet the window: the steps
    are the same for a period 4 times longer."""

    def test_render_plan(self, balanced_doc):
        # about 64 KiB and 1 MiB, alike modulo the 82-byte period, so the
        # clipped tails (at most one period's pieces) are alike too
        sizes = 64 << 10, (64 << 10) + 82 * 12_000
        small, big = (build_distribution_map(balanced_doc, size) for size in sizes)
        assert sum(len(e.extents) for e in big.entries) > 70_000
        render_plan(small), render_plan(big)  # memoized selections are built once
        assert python_steps(lambda: render_plan(big)) == python_steps(lambda: render_plan(small))
        # 1 B x 2 formats whole blocks once per phase: 64 KiB and 1 MiB alike
        small, big = (build_distribution_map(doc_of(round_robin(1, 2)), size) for size in (64 << 10, 1 << 20))
        render_plan(small), render_plan(big)
        assert python_steps(lambda: render_plan(big)) == python_steps(lambda: render_plan(small))

    def test_check_partition(self, three_server_doc):
        # about 64 KiB and 1 MiB, alike modulo the 3526-byte common period;
        # the report is not exact, and it is tiled only when read
        sizes = 64 << 10, (64 << 10) + 3526 * 279
        small, big = (build_distribution_map(three_server_doc, size) for size in sizes)
        assert big.coverage_period() == (0, 3526)
        assert check_partition(small).status is check_partition(big).status is PartitionStatus.GAPS_AND_OVERLAPS
        assert python_steps(lambda: check_partition(big)) == python_steps(lambda: check_partition(small))

    def test_compile_hpf_mapping(self):
        def lowering(extent, rank, kind, skalar):
            dims = (DimensionDecl(upper=extent, distribute=kind, dist_skalar=skalar),) * rank
            arr = ArrayDecl(EtypeDecl("CHAR", 1), dims, distribute_onto="P")
            procs = ProcessorsDecl("P", ((1, 2),) * rank)
            return lambda: ownermap_to_views(compile_hpf_mapping(arr, procs), 1)

        # 512 and 8192 leave the same partial turn of CYCLIC(3) over 2
        for rank, kind, skalar in [(1, Distribution.CYCLIC, 1), (2, Distribution.BLOCK, 1), (2, Distribution.CYCLIC, 3)]:
            small, big = lowering(512, rank, kind, skalar), lowering(8192, rank, kind, skalar)
            assert python_steps(big) == python_steps(small), (rank, kind, skalar)

    def test_window_maps(self):
        # two devices dealt alternate 32 KiB runs of one long period: the
        # first 4 MiB are alike, and the longer period has 4 times the pieces
        chunk, size = 32 << 10, 4 << 20

        def windows(period):
            halves = [[(a, chunk) for a in range(first, period, 2 * chunk)] for first in (0, chunk)]
            dmap = build_distribution_map(doc_of([view_selecting(runs, period) for runs in halves]), size)
            return lambda: list(_windows(dmap))

        short, long = windows(size), windows(4 * size)
        assert [n for n, _ in short()] == [WINDOW_BYTES] * (size // WINDOW_BYTES)  # the period is longer than the budget
        assert [[s.pieces for s in sels] for _, sels in short()] == [[s.pieces for s in sels] for _, sels in long()]
        assert python_steps(long) == python_steps(short)
