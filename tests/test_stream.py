"""The windowed data path: ``cp-in``, ``cp-out``, ``xdgdl scatter`` and
``xdgdl gather`` move files window by window through one window buffer,
``scatter`` writing each window's fragment shares straight from it by
``os.writev`` and ``gather`` reading them straight into it by
``os.readv``.  Most tests shrink ``WINDOW_BYTES`` to one to three lcm
periods so that small files cross many windows."""

import dataclasses
import errno
import importlib
import io
import math
import os
import pathlib
import random
import tempfile
import threading
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE, THREE_SERVER_BALANCED_XML
from gen import gather_bytes, random_partition_views, scatter_bytes
from test_selection import byte_view, doc_of, expected_payloads, round_robin
from xdgdl import (
    BlockDecl,
    ByteBlock,
    IoFailure,
    ViewDecl,
    build_distribution_map,
    copy_in,
    copy_out,
    get_file,
    init_store,
    parse_config,
    parse_document,
    put_file,
    serialize_document,
)
from xdgdl import cli
from xdgdl.cli import main

stream = importlib.import_module("xdgdl.scatter")  # the package's ``scatter`` is the function
store = importlib.import_module("xdgdl.store")
vipfs = importlib.import_module("xdgdl.vipfs")

BALANCED_VIEWS = [d.view for s in parse_document(THREE_SERVER_BALANCED_XML).island.servers for d in s.devices]


@pytest.fixture
def cfg(tmp_path):
    return parse_config(CONFIG_TEMPLATE.format(root=tmp_path / "grid"))


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    conf = tmp_path / "ViPIOS.conf"
    conf.write_text(CONFIG_TEMPLATE.format(root=tmp_path / "grid"))
    monkeypatch.setenv("VIP_CONF", str(conf))
    monkeypatch.delenv("VIP_DIR", raising=False)
    return tmp_path


def lcm_of(dmap) -> int:
    return math.lcm(*(e.selection.period for e in dmap.entries if e.selection.pieces))


def window_sizes(dmap) -> list[int]:
    """0, the largest header and a window past it, both sides of the
    first window edges, and two sizes for maps whose one window is longer
    than any test file.  The window width is the first window of a file
    of ``WINDOW_BYTES`` bytes, which no window is longer than."""
    width, _ = next(stream._windows(dataclasses.replace(dmap, file_size=stream.WINDOW_BYTES)))
    header = max((e.selection.header for e in dmap.entries if e.selection.pieces), default=0)
    edges = [header + width + 1, *(j * width + d for j in range(1, 4) for d in (-1, 0, 1))]
    return sorted({0, 1, 37, header, *(s for s in edges if 0 <= s <= 20_000)})


def counting(monkeypatch, name: str) -> list[int]:
    """The number of buffers of every ``os.readv`` or ``os.writev`` call
    (``name``) from now on."""
    calls: list[int] = []
    real = getattr(os, name)
    monkeypatch.setattr(os, name, lambda fd, buffers: calls.append(len(buffers)) or real(fd, buffers))
    return calls


def counting_tables(monkeypatch) -> set[int]:
    """The ids of the window views of every slot table built from now on:
    a table is one ``_slots`` per entry, all on one new window view.  The
    views are held, so no id is handed on to a later one."""
    tables, held = set(), []
    real = stream._slots
    monkeypatch.setattr(stream, "_slots", lambda sel, w: held.append(w) or tables.add(id(w)) or real(sel, w))
    return tables


def traced_peaks(ops) -> dict[str, int]:
    """The traced peak of each operation, run in order; each returns 0."""
    peaks = {}
    tracemalloc.start()
    try:
        for name, op in ops.items():
            tracemalloc.reset_peak()
            assert op() == 0, name
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peaks


def short_by(real):
    """An ``os.readv`` or ``os.writev`` that moves at most 7 bytes, to or
    from the first buffer that takes any."""
    return lambda fd, buffers: real(fd, [memoryview(next((b for b in buffers if len(b)), buffers[0]))[:7]])


def get_bytes(layout, name) -> bytes:
    out = io.BytesIO()
    get_file(layout, name, out)
    return out.getvalue()


def assert_stored_as_painted(cfg, name: str, data: bytes) -> None:
    """The fragments stored for ``name`` are the painter's fragments of
    ``data`` under the stored descriptor."""
    layout = init_store(cfg)
    doc = parse_document((layout.root / f".vd.{name}").read_bytes())
    views = [d.view for s in doc.island.servers for d in s.devices]
    frags = [(d.directory / f"{doc.timestamp}.frag").read_bytes() for d in layout.devices[: len(views)]]
    assert frags == expected_payloads(views, data)


def test_windowed_paths_match_the_painter_and_the_library(cfg, monkeypatch, tmp_path):
    rng = random.Random(2024)
    layout = init_store(cfg)
    seen = {"multi": 0, "strided": 0, "runs": 0, "wrapping": 0, "noview": 0, "readv": 0}
    seen |= {"shorter_than_the_period": 0, "starts_in_a_header": 0}
    readv = counting(monkeypatch, "readv")
    for case in range(60):
        devices = rng.randint(1, 3)
        if case % 15 == 0:  # all NOVIEW: the first device takes the whole file
            views = [None] * devices
        else:
            views = random_partition_views(rng, devices, rng.randint(1, 24), rng.choice([1, 2, 9]))
        doc = doc_of(views)
        seen["noview"] += None in views
        header, period = build_distribution_map(doc, 0).coverage_period()
        # 1-3 periods, or a window shorter than the period and, mostly, the header
        window = rng.randint(1, 3) * period if case % 4 else rng.randint(1, min(period, max(2, header)))
        monkeypatch.setattr(stream, "WINDOW_BYTES", window)
        for size in window_sizes(build_distribution_map(doc, 0)):
            data = rng.randbytes(size)
            dmap = build_distribution_map(doc, size)
            expected = expected_payloads(views, data)
            assert scatter_bytes(data, dmap) == expected, (case, size)
            calls = len(readv)
            assert gather_bytes(expected, dmap) == data
            assert len(readv) == calls  # io.BytesIO sources are read by readinto

            name = f"c{case}_{size}"
            put_file(layout, name, io.BytesIO(data), dataclasses.replace(doc, timestamp=name))
            assert [(d.directory / f"{name}.frag").read_bytes() for d in layout.devices[: len(views)]] == expected
            assert get_bytes(layout, name) == data
            seen["readv"] += len(readv) > calls  # fragment files are read by os.readv

            windows = list(stream._windows(dmap))
            assert sum(n for n, _ in windows) == size and all(n <= window for n, _ in windows)
            if len(windows) > 1:
                seen["multi"] += 1
                for n, sels in windows[1:]:
                    for sel in (s for s in sels if s.pieces):
                        seen["strided" if stream._slots(sel, memoryview(bytearray(n)))[2] else "runs"] += 1
                        seen["wrapping"] += sel.pieces[0][0] == 0 and sum(sel.pieces[-1]) == sel.period
                        seen["shorter_than_the_period"] += n < sel.period
                        seen["starts_in_a_header"] += sel.header > 0
    assert all(seen.values()), seen


def test_cli_commands_cross_windows(store_env, monkeypatch, capsys):
    tmp_path = store_env
    doc = parse_document(THREE_SERVER_BALANCED_XML)
    period = lcm_of(build_distribution_map(doc, 0))
    monkeypatch.setattr(stream, "WINDOW_BYTES", 2 * period)
    for size in (0, 2 * period - 1, 2 * period + 1, 7 * period + 3):
        data = random.Random(size).randbytes(size)
        work = tmp_path / f"w{size}"
        work.mkdir()
        (work / "f").write_bytes(data)
        (work / ".vd.f").write_text(THREE_SERVER_BALANCED_XML.replace("regular_multilevel", f"t{size}"))
        expected = expected_payloads(BALANCED_VIEWS, data)
        assert main(["cp-in", str(work / "f")]) == 0
        assert main(["cp-out", "f", str(work / "back")]) == 0
        assert (work / "back").read_bytes() == data
        assert main(["scatter", str(work / "f"), str(work / ".vd.f"), "--out", str(work / "frags")]) == 0
        assert [(work / "frags" / f"00{i}.frag").read_bytes() for i in range(3)] == expected
        gathered = str(work / "g")
        assert main(["gather", str(work / ".vd.f"), "--frags", str(work / "frags"), "--size", str(size), "--out", gathered]) == 0
        assert (work / "g").read_bytes() == data
        assert not list(work.rglob("*.tmp"))


def test_steady_window_plan_is_built_once(monkeypatch):
    doc = parse_document(THREE_SERVER_BALANCED_XML)
    period = lcm_of(build_distribution_map(doc, 0))
    monkeypatch.setattr(stream, "WINDOW_BYTES", period)
    built = []
    real = stream._slots
    monkeypatch.setattr(stream, "_slots", lambda sel, window: built.append((sel, len(window))) or real(sel, window))
    # one plan for every full window and one for the clipped last window,
    # per entry; then a file of one window
    for size, windows in ((50 * period + 7, 2), (period, 1)):
        built.clear()
        dmap = build_distribution_map(doc, size)
        data = random.Random(5).randbytes(size)
        payloads = scatter_bytes(data, dmap)
        assert len(built) == windows * 3
        assert gather_bytes(payloads, dmap) == data
        assert len(built) == 2 * windows * 3  # as many again to gather
        assert payloads == expected_payloads(BALANCED_VIEWS, data)
    # the one window plans the whole file, once per entry in each direction
    assert built[:3] == built[3:6] == [(e.selection, period) for e in dmap.entries]


def test_cp_out_reads_each_window_with_one_readv_per_entry(store_env, monkeypatch):
    src = store_env / "f"
    src.write_bytes(random.Random(9).randbytes(3 * (1 << 20) + 5000))  # default 3 x 4096 stripe: 9 windows
    assert main(["cp-in", str(src)]) == 0
    readv, tables, written = counting(monkeypatch, "readv"), counting_tables(monkeypatch), []
    real_write = stream.write_all
    monkeypatch.setattr(stream, "write_all", lambda sink, data: written.append(data.obj) or real_write(sink, data))
    assert main(["cp-out", "f", str(store_env / "back")]) == 0
    assert (store_env / "back").read_bytes() == src.read_bytes()
    assert len(written) == 9  # 8 of 32 periods (384 KiB; the rule counts a 128 KiB share these run-moved entries never take), then the last 5000 bytes
    assert len(readv) == 3 * len(written) and max(readv) <= 1024  # 33 slots an entry a window
    assert len(tables) <= 2  # every full window's, then the clipped last one's
    assert all(buf is written[0] for buf in written)  # one window buffer


def test_cp_in_writes_each_window_with_one_writev_per_entry(store_env, cfg, monkeypatch):
    src = store_env / "f"
    data = random.Random(9).randbytes(3 * (1 << 20) + 5000)  # default 3 x 4096 stripe: 9 windows
    src.write_bytes(data)
    writev, tables = counting(monkeypatch, "writev"), counting_tables(monkeypatch)
    assert main(["cp-in", str(src)]) == 0
    assert len(writev) == 3 * 9 and max(writev) <= 1024  # 33 slots an entry a window
    assert len(tables) <= 2  # every full window's, then the clipped last one's
    assert_stored_as_painted(cfg, "f", data)


def test_short_writev_carries_on_where_it_stopped(store_env, cfg, monkeypatch):
    monkeypatch.setattr(stream, "WINDOW_BYTES", 2 * 82)
    src = store_env / "f"
    data = random.Random(12).randbytes(5000)
    src.write_bytes(data)
    (store_env / ".vd.f").write_text(THREE_SERVER_BALANCED_XML)
    monkeypatch.setattr(os, "writev", short_by(os.writev))
    writev = counting(monkeypatch, "writev")
    assert main(["cp-in", str(src)]) == 0
    assert writev
    assert_stored_as_painted(cfg, "f", data)


def test_sinks_without_writev_take_the_plain_write_path(tmp_path, monkeypatch):
    data = random.Random(13).randbytes(5000)
    expected = expected_payloads(BALANCED_VIEWS, data)
    writev = counting(monkeypatch, "writev")
    assert scatter_bytes(data, build_distribution_map(parse_document(THREE_SERVER_BALANCED_XML), 5000)) == expected
    assert writev == []  # io.BytesIO sinks are written by write
    monkeypatch.delattr(os, "writev")
    src, desc, frags = tmp_path / "f", tmp_path / "d.xml", tmp_path / "frags"
    src.write_bytes(data)
    desc.write_text(THREE_SERVER_BALANCED_XML)
    assert main(["scatter", str(src), str(desc), "--out", str(frags)]) == 0
    assert [(frags / f"00{i}.frag").read_bytes() for i in range(3)] == expected


def test_cp_in_out_of_space_leaves_nothing(store_env, monkeypatch, capsys):
    src = store_env / "full"
    src.write_bytes(random.Random(14).randbytes(40_000))

    def no_space(fd, buffers):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "writev", no_space)
    assert main(["cp-in", str(src)]) == 4
    assert "cannot write (No space left on device)" in capsys.readouterr().err
    assert [p.name for p in (store_env / "grid").rglob("*") if p.is_file()] == []


def test_short_readv_carries_on_where_it_stopped(store_env, monkeypatch):
    monkeypatch.setattr(stream, "WINDOW_BYTES", 2 * 82)
    src = store_env / "f"
    data = random.Random(11).randbytes(5000)
    src.write_bytes(data)
    (store_env / ".vd.f").write_text(THREE_SERVER_BALANCED_XML)
    assert main(["cp-in", str(src)]) == 0
    monkeypatch.setattr(os, "readv", short_by(os.readv))
    assert main(["cp-out", "f", str(store_env / "back")]) == 0
    assert (store_env / "back").read_bytes() == data


@pytest.fixture(scope="module")
def many_runs():
    """The views, the bytes and the painter's fragments of a file whose
    windows hold more than IOV_MAX runs an entry.  2000 pieces of 128
    bytes per device in a period of 512,000 bytes: a period and its
    256,000-byte share do not fit the budget, so every full window holds one
    period, 2000 runs per entry.  Two full windows under one map, then a
    clipped last one of 586 runs an entry."""
    views = [
        ViewDecl(0, 128, (BlockDecl(0, 2000, 128, 128, ByteBlock()),)),
        ViewDecl(0, 0, (BlockDecl(128, 2000, 128, 128, ByteBlock()),)),
    ]
    data = random.Random(10).randbytes(2 * 512_000 + 150_001)
    return views, data, expected_payloads(views, data)


def test_windows_of_more_than_iov_max_runs_match_the_painter(tmp_path, monkeypatch, many_runs):
    views, data, expected = many_runs
    size = len(data)
    desc, frags = tmp_path / "d.xml", tmp_path / "frags"
    desc.write_text(serialize_document(doc_of(views)))
    frags.mkdir()
    for i, payload in enumerate(expected):
        (frags / f"00{i}.frag").write_bytes(payload)
    readv = counting(monkeypatch, "readv")
    assert main(["gather", str(desc), "--frags", str(frags), "--size", str(size), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g").read_bytes() == data
    # two calls per entry for each full window, one for the last window's 586 runs
    assert len(readv) == 2 * 2 * 2 + 2 and max(readv) == 1024
    assert gather_bytes(expected, build_distribution_map(doc_of(views), size)) == data


def test_scatter_of_more_than_iov_max_runs_matches_the_painter(tmp_path, monkeypatch, many_runs):
    views, data, expected = many_runs
    src, desc, frags = tmp_path / "f", tmp_path / "d.xml", tmp_path / "frags"
    src.write_bytes(data)
    desc.write_text(serialize_document(doc_of(views)))
    writev = counting(monkeypatch, "writev")
    assert main(["scatter", str(src), str(desc), "--out", str(frags)]) == 0
    assert [(frags / f"00{i}.frag").read_bytes() for i in range(2)] == expected
    # two calls per entry for each full window (its share's slot and 2000 runs), one for the last window's 586 runs
    assert len(writev) == 2 * 2 * 2 + 2 and max(writev) == 1024


def one_byte(offset: int, count: int, skip: int = 0, skip_header: int = 0) -> ViewDecl:
    return ViewDecl(skip_header, skip, (BlockDecl(offset, 1, count, 0, ByteBlock()),))


# periods far longer than any window: the first device takes the whole file,
# or its first 4 KiB, and the second device everything past its SKIP_HEADER
LONG_PERIODS = {
    "all_noview": doc_of([None, None, None]),
    "skip_header": doc_of([one_byte(0, 4096, skip=1 << 40), one_byte(0, 1, skip_header=4096)]),
}


def test_memory_is_bounded_by_the_window(cfg, tmp_path):
    data = bytes(range(256)) * 262144  # 64 MiB
    for layout in ("round_robin", *LONG_PERIODS):
        work = tmp_path / layout
        work.mkdir()
        src, desc, frags = work / layout, work / "d.xml", work / "frags"
        src.write_bytes(data)
        if layout == "round_robin":  # no sidecar: cp-in takes the default descriptor
            desc.write_text(serialize_document(vipfs.default_descriptor(cfg, layout)))
        else:
            desc.write_text(serialize_document(dataclasses.replace(LONG_PERIODS[layout], timestamp=layout)))
            (work / f".vd.{layout}").write_text(desc.read_text())
        gather_argv = ["gather", str(desc), "--frags", str(frags), "--size", str(len(data)), "--out", str(work / "g")]
        ops = {
            "cp-in": lambda: (copy_in(cfg, src), 0)[1],
            "cp-out": lambda: copy_out(cfg, layout, work / "back") and 0,
            "scatter": lambda: main(["scatter", str(src), str(desc), "--out", str(frags)]),
            "gather": lambda: main(gather_argv),
        }
        peaks = traced_peaks(ops)
        assert max(peaks.values()) < 4 << 20, (layout, peaks)
        for copy in ("back", "g"):
            with open(work / copy, "rb") as rebuilt:
                for i in range(0, len(data), 1 << 20):
                    assert rebuilt.read(1 << 20) == data[i : i + (1 << 20)], (layout, copy, i)


# traced past a copy's buffers: the parsed descriptor, the slot table and the interpreter's own
SLACK = 96 << 10


def test_scatter_and_cp_in_hold_one_window_and_no_joined_share(cfg, tmp_path):
    """Fragments are written straight from the window buffer: 16 MiB in
    the default round-robin peaks under the budget plus slack."""
    data = bytes(range(256)) * 65536
    src, desc = tmp_path / "big", tmp_path / "d.xml"
    src.write_bytes(data)
    desc.write_text(serialize_document(vipfs.default_descriptor(cfg, "big")))
    ops = {
        "cp-in": lambda: copy_in(cfg, src) and 0,
        "scatter": lambda: main(["scatter", str(src), str(desc), "--out", str(tmp_path / "frags")]),
    }
    peaks = traced_peaks(ops)
    assert max(peaks.values()) < stream.WINDOW_BYTES + SLACK, peaks


@pytest.mark.parametrize("layout, maps", [("all_noview", 2), ("skip_header", 7)])
def test_windows_of_a_long_period_share_equal_maps(monkeypatch, layout, maps):
    """A period longer than the budget cuts windows at changing phases;
    a window whose runs are those of the window before is still the same
    tuple object.  All-NOVIEW: one for every full window, then the last.
    The SKIP_HEADER descriptor: one each for the five windows that start
    inside its 4096-byte header, one for every later full window, then
    the last.  The windows are held while their ids are counted: a freed
    window's id can be handed to the next one."""
    monkeypatch.setattr(stream, "WINDOW_BYTES", 1000)
    dmap = build_distribution_map(LONG_PERIODS[layout], 10_500)
    windows = list(stream._windows(dmap))
    assert len({id(window) for window in windows}) == maps


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 24), st.sampled_from([1, 2, 9]), st.integers(1, 300), st.integers(0, 2000))
def test_one_budget_holds_each_window_and_its_share(seed, devices, period, run_max, budget, size):
    """Random partitions under a small ``WINDOW_BYTES``.  The windows tile
    the file in order.  When one lcm period and the share its densest
    entry needs of it fit the budget, every table's window and share fit
    it together; otherwise a full window is the period or the budget,
    whichever is shorter.  Scatter and gather, in memory and through
    ``os.writev``/``os.readv`` on real files, agree with the painter."""
    rng = random.Random(seed)
    views = random_partition_views(rng, devices, period, run_max)
    dmap = build_distribution_map(doc_of(views), size)
    _, lcm = dmap.coverage_period()
    densest = max((e.selection.per_period * (lcm // e.selection.period) for e in dmap.entries if e.selection.pieces), default=0)
    data = rng.randbytes(size)
    expected = expected_payloads(views, data)
    with mock.patch.object(stream, "WINDOW_BYTES", budget):
        windows, start = list(stream._windows(dmap)), 0
        for n, sels in windows:
            assert 0 < n <= budget and sels == tuple(e.selection.shifted(start, n) for e in dmap.entries)
            start += n
        assert start == size and len({n for n, _ in windows[:-1]}) <= 1
        held = [(len(window), len(share)) for _, window, share, _ in stream._tabled_windows(dmap)]
        if lcm + densest <= budget:
            assert all(n % lcm == 0 for n, _ in windows[:-1]) and all(n + share <= budget for n, share in held)
        else:
            assert all(n == min(lcm, budget) for n, _ in windows[:-1])
        assert scatter_bytes(data, dmap) == expected
        assert gather_bytes(expected, dmap) == data
        with tempfile.TemporaryDirectory() as tmp:
            frags = [pathlib.Path(tmp, f"{i}.frag") for i in range(devices)]
            with io.BytesIO(data) as src, ExitStack() as files:
                stream.scatter(src, dmap, [files.enter_context(open(frag, "wb", buffering=0)) for frag in frags])
            assert [frag.read_bytes() for frag in frags] == expected
            with io.BytesIO() as dst, ExitStack() as files:
                stream.gather([files.enter_context(open(frag, "rb", buffering=0)) for frag in frags], dmap, dst)
                assert dst.getvalue() == data


@pytest.mark.parametrize("chunk, goes_strided", [(1, True), (8, True), (256, True), (4096, False)])
def test_slots_choose_strided_or_runs_and_one_share_serves_every_entry(chunk, goes_strided):
    """Round-robin stripes on 3 devices over a full window, three
    quarters of the budget (a period and its share, a third of it, fill
    the budget 4 periods to 3): 1 B, 8 B and 256 B stripes move strided,
    4 KiB ones by runs.  This pins
    the choice; a rule that counts bytes moved (ROADMAP item 2) may move
    the 256 B row.  The table's share is as long as the largest entry's
    body, not the sum of the bodies."""
    dmap = build_distribution_map(doc_of(round_robin(chunk, 3)), 2 << 20)
    n, sels = next(stream._windows(dmap))
    assert n == stream.WINDOW_BYTES // 4 * 3
    plans = [stream._slots(sel, memoryview(bytearray(n))) for sel in sels]
    assert [bool(strided) for _, _, strided in plans] == [goes_strided] * 3
    bodies = [body for body, _, _ in plans]
    _, _, share, table = next(stream._tabled_windows(dmap))
    assert len(share) == max(bodies) and (len(share) < sum(bodies) if goes_strided else bodies == [0, 0, 0])
    assert [len(slots[0]) for slots, _ in table] == bodies  # each entry's body is the head of the one share


def headed_cyclic(header: int) -> list[ViewDecl]:
    """The first device takes the first ``header`` bytes once (its SKIP
    is far past any test file); past that SKIP_HEADER the other two share
    the file byte by byte."""
    return [byte_view(0, 1, header, 0, skip=1 << 40), byte_view(0, 1, 1, 0, skip=1, skip_header=header), byte_view(1, 1, 1, 0, skip_header=header)]


@pytest.mark.parametrize("size", [5 * 64 + 21, 5 * 64])
def test_tables_of_different_share_lengths_match_the_painter(tmp_path, monkeypatch, size):
    """A 40-byte header in 64-byte windows: the head window's strided
    bodies (12 bytes) are shorter than a steady window's (32), so the
    share grows once, and the clipped last window's (10) reuse it.
    Scatter and gather agree with the painter to real files, by
    ``os.writev`` and ``os.readv``, and to ``io.BytesIO``, by ``write``
    and ``readinto``."""
    monkeypatch.setattr(stream, "WINDOW_BYTES", 64)
    views = headed_cyclic(40)
    dmap = build_distribution_map(doc_of(views), size)
    tables = []  # (share length, table) per table built, each held so the next is told apart by identity
    for _, _, share, table in stream._tabled_windows(dmap):
        if not tables or table is not tables[-1][1]:
            tables.append((len(share), table))
    assert [max(len(slots[0]) for slots, _ in table) for _, table in tables] == ([12, 32, 10] if size % 64 else [12, 32])
    assert [share for share, _ in tables] == ([12, 32, 32] if size % 64 else [12, 32])
    data = random.Random(size).randbytes(size)
    expected = expected_payloads(views, data)
    assert scatter_bytes(data, dmap) == expected
    assert gather_bytes(expected, dmap) == data
    writev, readv = counting(monkeypatch, "writev"), counting(monkeypatch, "readv")
    src, back, frags = tmp_path / "src", tmp_path / "back", [tmp_path / f"{i}.frag" for i in range(3)]
    src.write_bytes(data)
    with open(src, "rb", buffering=0) as source:
        sinks = [open(frag, "wb", buffering=0) for frag in frags]
        with sinks[0], sinks[1], sinks[2]:
            stream.scatter(source, dmap, sinks)
    assert [frag.read_bytes() for frag in frags] == expected
    with open(back, "wb", buffering=0) as dst:
        sources = [open(frag, "rb", buffering=0) for frag in frags]
        with sources[0], sources[1], sources[2]:
            stream.gather(sources, dmap, dst)
    assert back.read_bytes() == data
    assert len(writev) == len(readv) == 3 * -(-size // 64)  # one call per entry per window


def copy_peaks(cfg, tmp_path, name: str, data: bytes, text: str) -> dict[str, int]:
    """The traced peaks of ``cp-in`` (with ``text`` as the sidecar),
    ``cp-out``, ``xdgdl scatter`` and ``xdgdl gather`` (with ``text`` as
    the descriptor) of ``data``, each copy checked to read back."""
    src, desc, frags = tmp_path / name, tmp_path / "d.xml", tmp_path / "frags"
    src.write_bytes(data)
    desc.write_text(text)
    (tmp_path / f".vd.{name}").write_text(text)
    peaks = traced_peaks({
        "cp-in": lambda: copy_in(cfg, src) or 0,  # no sidecar diagnostic: the descriptor is used
        "cp-out": lambda: copy_out(cfg, name, tmp_path / "back") and 0,
        "scatter": lambda: main(["scatter", str(src), str(desc), "--out", str(frags)]),
        "gather": lambda: main(["gather", str(desc), "--frags", str(frags), "--size", str(len(data)), "--out", str(tmp_path / "g")]),
    })
    assert (tmp_path / "back").read_bytes() == (tmp_path / "g").read_bytes() == data
    return peaks


def test_nested_layout_holds_one_window_and_one_share(cfg, tmp_path):
    """8 MiB in the nested three-server layout (that of
    ``bench/nested_3srv.xml``), every entry strided: ``cp-in``,
    ``cp-out``, ``xdgdl scatter`` and ``xdgdl gather`` each peak under
    the budget, a window and one share of its largest entry's part
    together, plus slack, not a second window of per-entry shares."""
    peaks = copy_peaks(cfg, tmp_path, "nested", random.Random(15).randbytes(8 << 20), THREE_SERVER_BALANCED_XML)
    assert max(peaks.values()) < stream.WINDOW_BYTES + SLACK, peaks


def test_densest_layout_holds_the_budget_and_one_column(cfg, tmp_path):
    """8 MiB dealt byte by byte to two devices, each selecting half of
    every 2-byte period: a window of 174,762 periods (349,524 bytes) and
    its share (174,762) fill the budget.  The step slice that moves one
    byte offset of every period, one column of the window, is the one
    buffer more."""
    doc = dataclasses.replace(doc_of(round_robin(1, 2)), timestamp="cyclic")
    data = random.Random(16).randbytes(8 << 20)
    n, _ = next(stream._windows(build_distribution_map(doc, len(data))))
    column = n // 2
    assert n + column <= stream.WINDOW_BYTES < n + column + 3
    peaks = copy_peaks(cfg, tmp_path, "cyclic", data, serialize_document(doc))
    assert max(peaks.values()) < stream.WINDOW_BYTES + column + SLACK, peaks


class ShortReads(io.FileIO):
    """A file whose every read delivers one byte less than asked, so it
    ends before its stat size."""

    def read(self, n=-1):
        return super().read(max(0, n - 1))

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[: max(0, len(buffer) - 1)])


class OneByteMore(io.FileIO):
    """A file that has grown by one byte since its size was taken."""

    def seek(self, pos, whence=os.SEEK_SET):
        end = super().seek(pos, whence)
        return end - 1 if whence == os.SEEK_END else end


class OneByteShort(io.FileIO):
    """A file that has lost its last byte since its size was taken."""

    def seek(self, pos, whence=os.SEEK_SET):
        end = super().seek(pos, whence)
        return end + 1 if whence == os.SEEK_END else end


def opening(cls):
    """An ``open`` that hands out ``cls`` for reading."""
    return lambda path, mode="r", buffering=-1: cls(path) if mode == "rb" else open(path, mode, buffering=buffering)


WINDOWS = pytest.mark.parametrize("window", [None, 64], ids=["one_window", "many_windows"])


@WINDOWS
@pytest.mark.parametrize("reader", [ShortReads, OneByteMore])
def test_cp_in_of_a_changing_source_leaves_nothing(store_env, monkeypatch, capsys, window, reader):
    if window:
        monkeypatch.setattr(stream, "WINDOW_BYTES", window)
    src = store_env / "moving"
    src.write_bytes(random.Random(3).randbytes(40_000))  # past 3 periods of the default 3 x 4096 stripe
    monkeypatch.setattr(vipfs, "open", opening(reader), raising=False)
    assert main(["cp-in", str(src)]) == 4
    assert "size changed while copying" in capsys.readouterr().err
    grid = store_env / "grid"
    assert [p.name for p in grid.rglob("*") if p.is_file()] == []


@WINDOWS
@pytest.mark.parametrize("reader", [ShortReads, OneByteMore])
def test_scatter_of_a_changing_source_leaves_nothing(tmp_path, monkeypatch, capsys, window, reader):
    if window:
        monkeypatch.setattr(stream, "WINDOW_BYTES", window)
    desc = tmp_path / "d.xml"
    desc.write_text(THREE_SERVER_BALANCED_XML)
    src = tmp_path / "in"
    src.write_bytes(random.Random(4).randbytes(5000))
    monkeypatch.setattr(cli, "open", opening(reader), raising=False)
    assert main(["scatter", str(src), str(desc), "--out", str(tmp_path / "frags")]) == 4
    assert "size changed while copying" in capsys.readouterr().err
    assert list((tmp_path / "frags").iterdir()) == []


@WINDOWS
def test_failed_gather_and_cp_out_leave_the_destination_alone(store_env, monkeypatch, capsys, window):
    if window:
        monkeypatch.setattr(stream, "WINDOW_BYTES", window)
    data = random.Random(6).randbytes(40_000)
    src = store_env / "kept"
    src.write_bytes(data)
    desc = store_env / "d.xml"
    desc.write_text(serialize_document(parse_document(THREE_SERVER_BALANCED_XML)))
    assert main(["cp-in", str(src)]) == 0
    assert main(["scatter", str(src), str(desc), "--out", str(store_env / "frags")]) == 0
    for target in ("back", "g"):
        (store_env / target).write_bytes(b"old")
    for frag in store_env.rglob("*.frag"):  # each one byte shorter than its reader reports
        os.truncate(frag, frag.stat().st_size - 1)
    monkeypatch.setattr(store, "open", opening(OneByteShort), raising=False)
    assert main(["cp-out", "kept", str(store_env / "back")]) == 4
    argv = ["gather", str(desc), "--frags", str(store_env / "frags"), "--size", "40000", "--out", str(store_env / "g")]
    assert main(argv) == 4
    assert capsys.readouterr().err.count("size changed while copying") == 2
    assert (store_env / "back").read_bytes() == (store_env / "g").read_bytes() == b"old"
    assert not list(store_env.rglob("*.tmp"))


def test_put_file_of_a_short_stream_raises_io_failure(cfg):
    class Claims(io.BytesIO):  # its end is one byte past its data
        def seek(self, pos, whence=os.SEEK_SET):
            end = super().seek(pos, whence)
            return end + 1 if whence == os.SEEK_END else end

    layout = init_store(cfg)
    with pytest.raises(IoFailure, match="size changed while copying"):
        put_file(layout, "s", Claims(b"x" * 100), parse_document(THREE_SERVER_BALANCED_XML))
    assert not [p for d in layout.devices for p in d.directory.iterdir()]
    assert not list(layout.root.iterdir())


def feeding(path, data: bytes) -> threading.Thread:
    """A started thread that writes ``data`` into the FIFO at ``path``
    once a reader opens it."""

    def feed():
        with open(path, "wb") as fifo:
            fifo.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


def test_scatter_and_cp_in_spool_a_pipe(store_env, monkeypatch):
    monkeypatch.setattr(stream, "WINDOW_BYTES", 64)
    data = random.Random(8).randbytes(5000)
    desc = store_env / "d.xml"
    desc.write_text(THREE_SERVER_BALANCED_XML)
    fifo = store_env / "piped"
    os.mkfifo(fifo)
    writer = feeding(fifo, data)
    assert main(["scatter", str(fifo), str(desc), "--out", str(store_env / "frags")]) == 0
    writer.join(10)
    assert not writer.is_alive()
    expected = expected_payloads(BALANCED_VIEWS, data)
    assert [(store_env / "frags" / f"00{i}.frag").read_bytes() for i in range(3)] == expected
    writer = feeding(fifo, data)
    assert main(["cp-in", str(fifo)]) == 0
    writer.join(10)
    assert not writer.is_alive()
    assert main(["cp-out", "piped", str(store_env / "back")]) == 0
    assert (store_env / "back").read_bytes() == data


def test_cp_in_of_a_pipe_is_bounded_by_the_window(store_env):
    data = bytes(range(256)) * 32768  # 8 MiB, default round-robin
    fifo = store_env / "piped"
    os.mkfifo(fifo)
    writer = feeding(fifo, data)
    tracemalloc.start()
    try:
        assert main(["cp-in", str(fifo)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.join(10)
    assert not writer.is_alive()
    assert peak < 3 << 20, peak
    assert main(["cp-out", "piped", str(store_env / "back")]) == 0
    assert (store_env / "back").read_bytes() == data


def test_unreadable_fragment_is_a_read_failure(store_env, monkeypatch, capsys):
    src = store_env / "locked"
    src.write_bytes(b"x" * 100)
    assert main(["cp-in", str(src)]) == 0

    def denied(path, mode="r", buffering=-1):
        if str(path).endswith(".frag"):
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, mode, buffering=buffering)

    monkeypatch.setattr(store, "open", denied, raising=False)
    assert main(["cp-out", "locked", str(store_env / "back")]) == 4
    err = capsys.readouterr().err
    assert "cannot read fragment (Permission denied)" in err and ".frag" in err
    assert not (store_env / "back").exists() and not list(store_env.rglob("*.tmp"))
