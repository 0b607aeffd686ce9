"""Splitting file bytes into per-device fragments and reassembling them.

A fragment is the concatenation, in ascending logical offset, of the
bytes a device owns under a distribution map.  Scatter and gather both
insist on an exact partition: only then is every byte placed exactly
once and the round trip an identity.

Both directions share one copy plan per device, read off its compiled
selection.  The whole periods move either as strided slices, one per
selected byte offset of the period
(``frag[off+j::per] = data[h+a+j:h+k*p:p]``), or as one contiguous
``memoryview`` slice per piece per period, whichever takes fewer slice
operations: bytes per period against pieces times full periods.  A
coarse stripe thus moves run by run and a fine one (1-byte cyclic,
nested views) byte offset by byte offset.  The clipped tail after the
last whole period always moves as runs, and so does an irregular
selection (see ``views.Selection``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ExtraFragment, LengthMismatch, MissingFragment, NotAPartition, SizeMismatch
from .views import DistributionMap, MapEntry, PartitionStatus, check_partition

__all__ = ["Fragment", "scatter", "gather"]

DeviceRef = tuple[str, str, str]  # (island, host, device_id)


@dataclass(frozen=True)
class Fragment:
    device_ref: DeviceRef
    payload: bytes


def _require_exact(dmap: DistributionMap) -> None:
    verdict = check_partition(dmap)
    if verdict.status is not PartitionStatus.EXACT_PARTITION:
        raise NotAPartition(verdict)


def _copy_plan(entry: MapEntry, size: int) -> tuple[int, list[tuple[slice, slice]], list[tuple[int, int]]]:
    """How to move the entry's selected bytes of [0, size): the fragment
    length the strided pairs fill, the strided (file slice, fragment
    slice) pairs, then the file runs ``(start, length)`` that follow in
    the fragment.  An irregular selection moves as its extents."""
    sel = entry.selection
    if not sel.regular:
        return 0, [], [(e.start, e.length) for e in entry.extents]
    k = sel.full_periods(size)
    if sel.per_period >= len(sel.pieces) * k:
        return 0, [], list(sel.runs(size))
    h, p, per = sel.header, sel.period, sel.per_period
    end, body = h + k * p, k * per
    strided = []
    off = 0
    for a, n in sel.pieces:
        strided.extend((slice(h + a + j, end, p), slice(off + j, body, per)) for j in range(n))
        off += n
    return body, strided, list(sel.runs(size, k))


def scatter(data: bytes, dmap: DistributionMap) -> list[Fragment]:
    """One fragment per map entry; empty payloads are materialized."""
    if len(data) != dmap.file_size:
        raise SizeMismatch(f"data is {len(data)} bytes but the map addresses {dmap.file_size}")
    _require_exact(dmap)
    data = bytes(data)
    view = memoryview(data)
    fragments = []
    for entry in dmap.entries:
        body, strided, runs = _copy_plan(entry, dmap.file_size)
        head = bytearray(body)
        for src, dst in strided:
            head[dst] = data[src]  # a bytes step slice copies faster than a strided memoryview
        payload = b"".join([head, *(view[start : start + n] for start, n in runs)])
        fragments.append(Fragment((entry.island, entry.host, entry.device_id), payload))
    return fragments


def gather(fragments: list[Fragment], dmap: DistributionMap) -> bytes:
    """Rebuild the logical file; inverse of scatter for exact partitions.

    Fragments are matched to map entries by device reference (in order,
    should a reference repeat).  Every entry must be matched exactly once.
    """
    _require_exact(dmap)
    pool: dict[DeviceRef, deque[Fragment]] = {}
    for frag in fragments:
        pool.setdefault(frag.device_ref, deque()).append(frag)
    out = bytearray(dmap.file_size)
    for entry in dmap.entries:
        ref = (entry.island, entry.host, entry.device_id)
        queue = pool.get(ref)
        if not queue:
            raise MissingFragment(f"no fragment for device {entry.label}")
        payload = queue.popleft().payload
        expected = entry.total_bytes
        if len(payload) != expected:
            raise LengthMismatch(
                f"fragment for {entry.label} has {len(payload)} bytes, extents total {expected}"
            )
        pos, strided, runs = _copy_plan(entry, dmap.file_size)
        for dst, src in strided:
            out[dst] = payload[src]
        view = memoryview(payload)
        for start, n in runs:
            out[start : start + n] = view[pos : pos + n]
            pos += n
    leftover = [ref for ref, queue in pool.items() if queue]
    if leftover:
        raise ExtraFragment(f"fragments match no map entry: {leftover}")
    return bytes(out)
