"""Splitting file bytes into per-device fragments and reassembling them.

A fragment is the concatenation, in ascending logical offset, of the
bytes a device owns under a distribution map.  Fragments are matched
to devices by position: ``scatter`` returns one per map entry in entry
order and ``gather`` takes them back in that order, as the store and the
CLI keep them (``000.frag``, ``001.frag``, ...).  A fragment's device
reference only has to agree with the entry at its position.
Scatter and gather both insist on an exact partition: only then is
every byte placed exactly once and the round trip an identity.

Both directions share one copy plan per device, read off its compiled
selection and built once per map.  The whole periods move either as
strided slices, one per selected byte offset of the period
(``frag[off+j::per] = data[h+a+j:h+k*p:p]``), or as one contiguous
``memoryview`` slice per piece per period, whichever takes fewer slice
operations: bytes per period against pieces times full periods.  A
coarse stripe thus moves run by run and a fine one (1-byte cyclic,
nested views) byte offset by byte offset.  The clipped tail after the
last whole period always moves as runs.

Files move window by window: ``windows`` reads a source stream and
``fragment_windows`` reads fragment streams, both with one ``readinto``
loop into reused buffers, and each yields every window with its map,
for ``scatter`` and ``gather`` to move as a file of its own.  With H and
L the map's ``coverage_period``, the coverage repeats every L bytes
past H.  The head window is [0, H + k*L), the longest such prefix
within ``WINDOW_BYTES`` but at least one period, and its map is the
file's own selections clipped at the window.  Every later window is the
largest whole number of periods within ``WINDOW_BYTES``, at least one;
each selection, ``shifted`` to the head window's end, meets them all at
the same phase, so one window map, and with it one plan per entry,
serves them all, and only the clipped last window gets its own.  A file
no longer than its head window thus runs exactly the whole-file plan;
so does every file of a map whose period is longer than the file
(coprime periods, or the all-NOVIEW fallback, whose period is the
64-bit range).  Memory stays a few windows of max(``WINDOW_BYTES``,
H + L) bytes, whatever the file size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator

from .errors import ExtraFragment, IoFailure, LengthMismatch, MissingFragment, NotAPartition, SizeMismatch
from .views import DistributionMap, MapEntry, PartitionStatus, Selection, check_partition

__all__ = ["Fragment", "scatter", "gather", "windows", "fragment_windows", "require_exact", "WINDOW_BYTES"]

DeviceRef = tuple[str, str, str]  # (island, host, device_id)
Plan = tuple[int, list[tuple[slice, slice]], list[tuple[int, int]]]

WINDOW_BYTES = 1 << 20  # budget of one window; a window still spans one lcm period at least


@dataclass(frozen=True)
class Fragment:
    device_ref: DeviceRef
    payload: bytes


def _ref(entry: MapEntry) -> DeviceRef:
    return (entry.island, entry.host, entry.device_id)


def require_exact(dmap: DistributionMap) -> None:
    """Raise NotAPartition unless the map covers its file exactly once;
    a map found exact is not checked again."""
    if not dmap.__dict__.get("_exact"):
        verdict = check_partition(dmap)
        if verdict.status is not PartitionStatus.EXACT_PARTITION:
            raise NotAPartition(verdict)
        dmap.__dict__["_exact"] = True  # the map is frozen, so the verdict holds


def _copy_plan(sel: Selection, size: int) -> Plan:
    """How to move the selected bytes of [0, size): the fragment length
    the strided pairs fill, the strided (file slice, fragment slice)
    pairs, then the file runs ``(start, length)`` that follow in the
    fragment."""
    k = sel.full_periods(size)
    if sel.per_period >= len(sel.pieces) * k:
        return 0, [], list(sel.runs(size))
    h, p, per = sel.header, sel.period, sel.per_period
    end, body = h + k * p, k * per
    picked = [a + j for a, n in sel.pieces for j in range(n)]  # selected offsets of a period
    strided = [(slice(h + b, end, p), slice(i, body, per)) for i, b in enumerate(picked)]
    return body, strided, sel.tail(size)


def _plans(dmap: DistributionMap) -> list[Plan]:
    """One copy plan per entry of an exact map, built on first use and
    kept on the (frozen) map, so a window map reused for every window
    plans once."""
    plans = dmap.__dict__.get("_plans")
    if plans is None:
        require_exact(dmap)
        plans = dmap.__dict__["_plans"] = [_copy_plan(e.selection, dmap.file_size) for e in dmap.entries]
    return plans


def _windows(dmap: DistributionMap) -> tuple[int, int]:
    """The head window's end and the width of every later window."""
    header, period = dmap.coverage_period()
    return header + max(1, (WINDOW_BYTES - header) // period) * period, max(1, WINDOW_BYTES // period) * period


def _window_maps(dmap: DistributionMap) -> Iterator[DistributionMap]:
    """The map of each window of the file, in file order: the head
    window's, clipped at the file size, then one map shared by every full
    later window, then the clipped last window's."""
    size = dmap.file_size
    head, width = _windows(dmap)

    def window(sels: list[Selection], n: int) -> DistributionMap:
        wmap = DistributionMap(n, tuple(replace(e, selection=s, size=n) for e, s in zip(dmap.entries, sels)))
        wmap.__dict__["_exact"] = dmap.__dict__.get("_exact")  # a window of an exact map is exact
        return wmap

    yield window([e.selection for e in dmap.entries], min(size, head))
    steady = None
    for start in range(head, size, width):
        if steady is None:  # selections are shifted only for a file past its head window
            steady = window([e.selection.shifted(head) for e in dmap.entries], width)
        yield steady if size - start >= width else window([e.selection for e in steady.entries], size - start)


def _changed(stream: BinaryIO) -> IoFailure:
    return IoFailure(getattr(stream, "name", "stream"), "size changed while copying")


def _read_into(src: BinaryIO, buf: bytearray, n: int) -> bytearray:
    """The next ``n`` bytes of the stream, read with ``readinto`` into
    ``buf``, or into a new buffer if ``buf`` is not ``n`` bytes long.  A
    stream that ends first raises IoFailure."""
    if len(buf) != n:
        buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = src.readinto(view)
        if not got:
            raise _changed(src)
        view = view[got:]
    return buf


def windows(src: BinaryIO, dmap: DistributionMap) -> Iterator[tuple[bytearray, DistributionMap]]:
    """The next ``dmap.file_size`` bytes of ``src``, window by window:
    each window's bytes with its map.  The bytes are read into one reused
    buffer, so a window's bytes are overwritten by the next.  The source
    must end there: a short source or one with bytes left raises
    IoFailure."""
    require_exact(dmap)
    buf = bytearray()
    for wmap in _window_maps(dmap):
        buf = _read_into(src, buf, wmap.file_size)
        yield buf, wmap
    if src.read(1):
        raise _changed(src)


def fragment_windows(
    sources: list[BinaryIO], dmap: DistributionMap
) -> Iterator[tuple[list[Fragment], DistributionMap]]:
    """The fragments of the file, window by window, read from one source
    per map entry holding exactly that entry's fragment (as
    ``store.read_fragments`` checks): each window's share of every
    fragment, in entry order, with the window's map.  Each entry's share
    is read into one reused buffer, so a window's payloads are
    overwritten by the next."""
    require_exact(dmap)
    bufs = [bytearray() for _ in sources]
    for wmap in _window_maps(dmap):
        n = wmap.file_size
        bufs = [_read_into(src, buf, e.selection.total(n)) for e, src, buf in zip(wmap.entries, sources, bufs)]
        yield [Fragment(_ref(e), buf) for e, buf in zip(wmap.entries, bufs)], wmap


def write_all(sink: BinaryIO, data) -> None:
    """Write every byte, however many calls an unbuffered sink takes."""
    view = memoryview(data)
    try:
        while view:
            view = view[sink.write(view) :]
    except OSError as exc:
        raise IoFailure(getattr(sink, "name", "stream"), f"cannot write ({exc.strerror})") from exc


def _split(data: bytes | bytearray, view: memoryview, plan: Plan) -> list:
    """One entry's bytes, as the consecutive parts of its fragment."""
    body, strided, runs = plan
    head = bytearray(body)
    for src, dst in strided:
        head[dst] = data[src]  # a step slice of bytes copies faster than a strided memoryview
    return [head, *(view[start : start + n] for start, n in runs)]


def _merge(out: bytearray, payload: bytes, plan: Plan) -> None:
    """Put one entry's bytes, as ``_split`` took them, back."""
    pos, strided, runs = plan
    for dst, src in strided:
        out[dst] = payload[src]
    view = memoryview(payload)
    for start, n in runs:
        out[start : start + n] = view[pos : pos + n]
        pos += n


def scatter(data: bytes | bytearray, dmap: DistributionMap) -> list[Fragment]:
    """One fragment per map entry, in entry order; empty payloads are
    materialized."""
    if len(data) != dmap.file_size:
        raise SizeMismatch(f"data is {len(data)} bytes but the map addresses {dmap.file_size}")
    plans = _plans(dmap)
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    view = memoryview(data)
    return [Fragment(_ref(entry), b"".join(_split(data, view, plan))) for entry, plan in zip(dmap.entries, plans)]


def gather(fragments: list[Fragment], dmap: DistributionMap) -> bytearray:
    """Rebuild the logical file from one fragment per map entry, in entry
    order; inverse of scatter for exact partitions.  The file comes back
    in the buffer it was rebuilt in, without a copy to ``bytes``."""
    require_exact(dmap)
    if len(fragments) < len(dmap.entries):
        raise MissingFragment(f"no fragment for device {dmap.entries[len(fragments)].label}")
    if len(fragments) > len(dmap.entries):
        raise ExtraFragment(f"{len(fragments)} fragments for {len(dmap.entries)} map entries")
    for i, (entry, frag) in enumerate(zip(dmap.entries, fragments)):
        if frag.device_ref != _ref(entry):
            raise MissingFragment(
                f"position {i} holds the fragment for {'/'.join(frag.device_ref)}, not for device {entry.label}"
            )
        expected = entry.selection.total(dmap.file_size)
        if len(frag.payload) != expected:
            raise LengthMismatch(
                f"fragment for {entry.label} has {len(frag.payload)} bytes, extents total {expected}"
            )
    out = bytearray(dmap.file_size)  # only once the fragments account for every byte
    for frag, plan in zip(fragments, _plans(dmap)):
        _merge(out, frag.payload, plan)
    return out
