"""Cross-checks of the bulk expansions used for planning.

``render_plan``, ``MapEntry.extents`` and ``enumerate_extents`` all read
the merged runs of ``Selection.progressions``; they are compared with the
naive painter in reference.py, on random views and on random selections
whose runs wrap across periods.  ``check_partition``'s gap and overlap
report is compared with painted coverage.  The HPF owner table and the
cyclic group size are compared with the per-element formulas in
reference.py.  A cost guard counts the Python-level steps of planning,
which must not grow with the file size.
"""

import dataclasses
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE
from gen import random_view
from reference import naive_coverage, naive_group_size, naive_owners, painted_runs
from strategies import view_decls
from test_selection import byte_view, doc_of
from xdgdl import (
    ArrayDecl,
    DimensionDecl,
    Distribution,
    DistributionMap,
    EtypeDecl,
    Extent,
    Major,
    MapEntry,
    OwnerMap,
    PartitionStatus,
    ProcessorsDecl,
    build_distribution_map,
    check_partition,
    compile_hpf_mapping,
    default_descriptor,
    enumerate_extents,
    parse_config,
    render_plan,
    view_period,
)
from xdgdl.hpf import _cyclic_group_size
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
    assert entry.extents == tuple(Extent(s, n) for s, n in expected)
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
        size = view.skip_header + periods * view_period(view) + extra
        expected = painted_runs(naive_coverage(view, size))
        assert enumerate_extents(view, size) == tuple(Extent(s, n) for s, n in expected)
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
        assert enumerate_extents(view, size)[-1] == Extent(5 + 2 * 13 + 2, 1)
        assert enumerate_extents(view, size) == tuple(
            Extent(s, n) for s, n in painted_runs(naive_coverage(view, size))
        )

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


def painted_report(coverages: list[list[int]], labels: list[str], size: int):
    """Gaps and overlaps of painted coverages, as maximal runs; an
    overlap run also ends where its set of claimants changes."""
    gaps, overlaps = [], []
    for i in range(size):
        who = tuple(sorted(label for label, cov in zip(labels, coverages) for _ in range(cov[i])))
        if not who:
            if gaps and gaps[-1][1] == i:
                gaps[-1][1] = i + 1
            else:
                gaps.append([i, i + 1])
        elif len(who) >= 2:
            if overlaps and overlaps[-1][1] == i and overlaps[-1][2] == who:
                overlaps[-1][1] = i + 1
            else:
                overlaps.append([i, i + 1, who])
    return (
        tuple(Extent(lo, hi - lo) for lo, hi in gaps),
        tuple((Extent(lo, hi - lo), who) for lo, hi, who in overlaps),
    )


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
            assert (verdict.gaps, verdict.overlaps) == (gaps, overlaps)
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
            assert _cyclic_group_size(om) == naive_group_size(om.owners, om.num_targets)

    def test_group_size_of_random_and_nearly_cyclic_tables(self):
        rng = random.Random(10)
        for _ in range(400):
            targets, n = rng.randint(1, 4), rng.randint(1, 30)
            if rng.random() < 0.5:
                owners = [rng.randrange(targets) for _ in range(n)]
            else:
                k = rng.randint(1, 5)
                owners = [(i // k) % targets for i in range(n)]
                if rng.random() < 0.5:
                    owners[rng.randrange(n)] = rng.randrange(targets)
            om = OwnerMap("x", targets, tuple(owners))
            assert _cyclic_group_size(om) == naive_group_size(owners, targets), om

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
    inside a builtin adds none."""
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        steps += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return steps


class TestCostGuard:
    """Planning expands runs and owner tables in bulk: the Python-level
    steps it takes are the same for a file 16 times larger."""

    def test_render_plan(self, balanced_doc):
        # about 64 KiB and 1 MiB, alike modulo the 82-byte period, so the
        # clipped tails (at most one period's pieces) are alike too
        sizes = 64 << 10, (64 << 10) + 82 * 12_000
        small, big = (build_distribution_map(balanced_doc, size) for size in sizes)
        assert sum(len(e.extents) for e in big.entries) > 70_000
        render_plan(small), render_plan(big)  # memoized selections are built once
        assert python_steps(lambda: render_plan(big)) == python_steps(lambda: render_plan(small))

    def test_compile_hpf_mapping(self):
        def array(records):
            dim = DimensionDecl(upper=records, distribute=Distribution.CYCLIC)
            return ArrayDecl(EtypeDecl("CHAR", 1), (dim,), distribute_onto="P")

        procs = ProcessorsDecl("P", ((1, 2),))
        small, big = array(4 << 10), array(64 << 10)
        assert python_steps(lambda: compile_hpf_mapping(big, procs)) == python_steps(
            lambda: compile_hpf_mapping(small, procs)
        )
