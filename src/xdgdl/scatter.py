"""Splitting file bytes into per-device fragments and reassembling them.

A fragment is the concatenation, in ascending logical offset, of the
bytes a device owns under a distribution map.  Fragments are matched
to devices by position: ``scatter(src, dmap, sinks)`` writes one per
map entry to the sink at the entry's position, and
``gather(sources, dmap, dst)`` reads them back from one stream per entry
in that order, as the store and the CLI keep them (``000.frag``,
``001.frag``, ...).  Both want one stream per entry and a map whose
``verdict`` is an exact partition, checked before a byte moves: only
then is every byte placed exactly once and the round trip an identity.

Both directions move a device's bytes of a window by one plan
(``_slots``), read off its selection as seen from the window's start.
Its whole periods move either as strided slices, one per selected byte
offset of the period (``frag[off+j::per] = data[h+a+j:h+k*p:p]``), or as
one contiguous ``memoryview`` slice per piece per period, whichever
takes fewer slice operations: bytes per period against pieces times
full periods.  A coarse stripe thus moves run by run and a fine one
(1-byte cyclic, nested views) byte offset by byte offset; a selection
of every byte past its header is one run.  The clipped tail after the
last whole period always moves as runs.

Files move window by window, cut from byte 0 by one rule.  One budget,
``WINDOW_BYTES``, holds a window and its share: with H and L the map's
``coverage_period`` and S the most bytes an entry selects per L, every
window but the clipped last one is the most whole periods L that fit it
with their share, ``WINDOW_BYTES // (L + S) * L``, or, when not even one
does, L or the budget, whichever is shorter (so an L past the budget
cuts windows of partial periods, each with its own table).  A window is plain
data: its length and each entry's selection as seen from its start
(``Selection.shifted``), built from only the pieces that meet the
window, so a window of a long period costs its own runs, not the
period's.  A window equal to the previous one is that same tuple, and
its slot table is reused: past H the coverage repeats every L bytes, so
every full window of whole periods there does, without being built.

Each direction moves a window through one reused window buffer, one
reused share that entries take in turn, as ROMIO's data sieving reuses
one buffer (Thakur, Gropp & Lusk, 1999), and one slot table per distinct
window: per entry, the head of the share for its strided body, then the
window's slice for each run, in fragment order.  ``scatter`` reads the
window, then per entry fills the share and writes its slots with one
``os.writev``; ``gather`` per entry reads its slots with one ``os.readv``
and assigns the share into the window, then writes it (``_vectored``).
This is list I/O: no byte is copied to join a share.  A failed read or
write raises IoFailure naming its stream (``errors.failing``).
Memory stays within the budget (past it only when one period and its
share do not fit), plus one transient column, a strided copy's step
slice of one byte per period, and the compiled selections.  Against
1 MiB windows and a share beside them, 8 MiB copies (2-vCPU Xeon,
Python 3.11.7) ran about as fast for a 4 KiB stripe and the nested
three-server layout, and 3-6% slower for 1-byte cyclic over two devices,
whose traced peak fell from 2.0 MiB to 0.7 MiB (README).
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Iterator

from .errors import IoFailure, NotAPartition, XdgdlError, failing
from .views import DistributionMap, PartitionStatus, Selection

__all__ = ["scatter", "gather", "remaining", "require_exact", "WINDOW_BYTES"]

WINDOW_BYTES = 512 << 10  # the most bytes a window and its share hold together, when one period and its share fit
IOV_MAX = 1024  # most buffers one os.readv or os.writev takes: the limit on Linux and the BSDs


def require_exact(dmap: DistributionMap) -> None:
    """Raise NotAPartition unless the map covers its file exactly once."""
    if dmap.verdict.status is not PartitionStatus.EXACT_PARTITION:
        raise NotAPartition(dmap.verdict)


def _require_one_per_entry(streams: list[BinaryIO], dmap: DistributionMap) -> None:
    """Raise XdgdlError unless there is one stream per map entry."""
    if len(streams) < len(dmap.entries):
        raise XdgdlError(f"no fragment for device {dmap.entries[len(streams)].label}")
    if len(streams) > len(dmap.entries):
        raise XdgdlError(f"{len(streams)} fragments for {len(dmap.entries)} map entries")


def _windows(dmap: DistributionMap) -> Iterator[tuple[int, tuple[Selection, ...]]]:
    """Each window of the file, in file order: its length and each
    entry's selection as seen from its start.  A window equal to the
    previous one is the same tuple object.  The width counts a share for
    every entry as if it moved strided, an upper bound: one that
    ``_slots`` moves by runs takes none."""
    size, (header, period) = dmap.file_size, dmap.coverage_period()
    share = max((e.selection.per_period * (period // e.selection.period) for e in dmap.entries if e.selection.pieces), default=0)
    width = WINDOW_BYTES // (period + share) * period or min(period, WINDOW_BYTES)
    window = None
    for start in range(0, size, width):
        n = min(width, size - start)
        # past the headers, a full window of whole periods repeats the one before: nothing to build
        if n < width or start - width < header or width % period:
            sels = tuple(e.selection.shifted(start, n) for e in dmap.entries)
            if window != (n, sels):
                window = n, sels
        yield window


def _name(stream: BinaryIO):
    return getattr(stream, "name", "stream")


def _changed(stream: BinaryIO) -> IoFailure:
    return IoFailure(_name(stream), "size changed while copying")


def remaining(src: BinaryIO) -> int:
    """The count of bytes left in a seekable stream, taken from its end."""
    here = src.tell()
    size = src.seek(0, os.SEEK_END) - here
    src.seek(here)
    return size


def _fill(src: BinaryIO, buf) -> None:
    """Fill ``buf`` from the stream by ``readinto``; a stream that ends first raises IoFailure."""
    view = memoryview(buf)
    while view:
        got = src.readinto(view)
        if not got:
            raise _changed(src)
        view = view[got:]


def write_all(sink: BinaryIO, data) -> None:
    """Write every byte, however many calls an unbuffered sink takes."""
    view, name = memoryview(data), _name(sink)
    while view:
        view = view[failing(name, "write", sink.write, view) :]


def _vectored(stream: BinaryIO, slots: list[memoryview], syscall: str, fallback) -> None:
    """Move the slots in order between the stream and memory: one
    ``syscall`` (``os.readv`` or ``os.writev``) per IOV_MAX slots on an
    unbuffered file, then, after a short transfer or for any other
    stream, ``fallback(stream, rest)`` (``_fill`` or ``write_all``) for
    what is left of each slot."""
    call = getattr(os, syscall, None) if isinstance(stream, io.FileIO) else None
    for i in range(0, len(slots), IOV_MAX):
        chunk = slots[i : i + IOV_MAX]
        done = 0 if call is None else call(stream.fileno(), chunk)
        if done < sum(map(len, chunk)):
            for slot in chunk:
                fallback(stream, slot[min(done, len(slot)) :])
                done = max(0, done - len(slot))


def _slots(sel: Selection, window: memoryview) -> tuple[int, list[memoryview], list[tuple[slice, slice]]]:
    """How one selection moves through a window, allocating no buffer:
    the length of its strided body, which the head of the one share all
    entries take in turn holds, the window's slice for each run, and the
    strided (window slice, share slice) pairs."""
    size = len(window)
    k = sel.full_periods(size)
    if sel.per_period >= len(sel.pieces) * k or sel.per_period == sel.period:  # every byte is one run
        body, strided, runs = 0, [], sel.runs(size)
    else:
        h, p, per = sel.header, sel.period, sel.per_period
        end, body = h + k * p, k * per
        picked = [a + j for a, n in sel.pieces for j in range(n)]  # selected offsets of a period
        strided, runs = [(slice(h + b, end, p), slice(i, body, per)) for i, b in enumerate(picked)], sel.tail(size)
    return body, [window[start : start + n] for start, n in runs], strided


def _tabled_windows(dmap: DistributionMap) -> Iterator[tuple[bytearray, memoryview, bytearray, list]]:
    """Per window of the map, in file order: the window buffer, the
    window's part of it, the share, as long as the largest body yet, and
    the slot table, per entry its slots (body, then runs) and strided
    pairs.  Buffers are reused; a table is built once per distinct window."""
    buf, share, tabled = bytearray(), bytearray(), None
    for window in _windows(dmap):
        if window is not tabled:  # the head, the steady and the last window
            n, sels = tabled = window
            if len(buf) < n:
                buf = bytearray(n)
            view = memoryview(buf)[:n]
            plans = [_slots(sel, view) for sel in sels]
            longest = max((body for body, _, _ in plans), default=0)
            if len(share) < longest:
                share = bytearray(longest)
            table = [([memoryview(share)[:body], *runs], strided) for body, runs, strided in plans]
        yield buf, view, share, table


def scatter(src: BinaryIO, dmap: DistributionMap, sinks: list[BinaryIO]) -> None:
    """Split the next ``dmap.file_size`` bytes of ``src`` into one
    fragment per map entry, written to the sink at the entry's position.
    The map must be an exact partition and the sinks one per entry
    (checked before a byte is read) and the source must end there: a
    short source or one with bytes left raises IoFailure.  Entries share
    one buffer, so a sink's ``write`` must not keep the buffer after it
    returns (the ``io.RawIOBase.write`` contract)."""
    require_exact(dmap)
    _require_one_per_entry(sinks, dmap)
    name, names = _name(src), [_name(sink) for sink in sinks]
    for buf, window, share, table in _tabled_windows(dmap):
        failing(name, "read source file", _fill, src, window)
        for sink, sink_name, (slots, strided) in zip(sinks, names, table):
            for window_slice, share_slice in strided:
                share[share_slice] = buf[window_slice]  # a step slice of bytes copies faster than a strided memoryview
            failing(sink_name, "write", _vectored, sink, slots, "writev", write_all)
    if failing(name, "read source file", src.read, 1):
        raise _changed(src)


def gather(sources: list[BinaryIO], dmap: DistributionMap, dst: BinaryIO) -> None:
    """Rebuild the logical file into ``dst`` from one seekable stream per
    map entry, in entry order, each holding from where it stands exactly
    its entry's fragment; inverse of scatter for exact partitions.  Every
    check passes before a buffer is allocated or a byte written."""
    require_exact(dmap)
    _require_one_per_entry(sources, dmap)
    for entry, src in zip(dmap.entries, sources):
        expected, actual = entry.selection.total(dmap.file_size), remaining(src)
        if actual != expected:
            raise XdgdlError(f"fragment for {entry.label} has {actual} bytes, extents total {expected}")
    names = [_name(src) for src in sources]
    for buf, window, share, table in _tabled_windows(dmap):
        for src, name, (slots, strided) in zip(sources, names, table):
            failing(name, "read fragment", _vectored, src, slots, "readv", _fill)
            for window_slice, share_slice in strided:
                buf[window_slice] = share[share_slice]
        write_all(dst, window)
