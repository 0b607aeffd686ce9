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
selection.  The whole periods move either as strided slices, one per
selected byte offset of the period
(``frag[off+j::per] = data[h+a+j:h+k*p:p]``), or as one contiguous
``memoryview`` slice per piece per period, whichever takes fewer slice
operations: bytes per period against pieces times full periods.  A
coarse stripe thus moves run by run and a fine one (1-byte cyclic,
nested views) byte offset by byte offset.  The clipped tail after the
last whole period always moves as runs.
"""

from __future__ import annotations

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
    the fragment."""
    sel = entry.selection
    k = sel.full_periods(size)
    if sel.per_period >= len(sel.pieces) * k:
        return 0, [], list(sel.runs(size))
    h, p, per = sel.header, sel.period, sel.per_period
    end, body = h + k * p, k * per
    picked = [a + j for a, n in sel.pieces for j in range(n)]  # selected offsets of a period
    strided = [(slice(h + b, end, p), slice(i, body, per)) for i, b in enumerate(picked)]
    return body, strided, sel.tail(size)


def scatter(data: bytes, dmap: DistributionMap) -> list[Fragment]:
    """One fragment per map entry, in entry order; empty payloads are
    materialized."""
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
    """Rebuild the logical file from one fragment per map entry, in entry
    order; inverse of scatter for exact partitions."""
    _require_exact(dmap)
    if len(fragments) < len(dmap.entries):
        raise MissingFragment(f"no fragment for device {dmap.entries[len(fragments)].label}")
    if len(fragments) > len(dmap.entries):
        raise ExtraFragment(f"{len(fragments)} fragments for {len(dmap.entries)} map entries")
    for i, (entry, frag) in enumerate(zip(dmap.entries, fragments)):
        if frag.device_ref != (entry.island, entry.host, entry.device_id):
            raise MissingFragment(
                f"position {i} holds the fragment for {'/'.join(frag.device_ref)}, not for device {entry.label}"
            )
        expected = entry.selection.total(dmap.file_size)
        if len(frag.payload) != expected:
            raise LengthMismatch(
                f"fragment for {entry.label} has {len(frag.payload)} bytes, extents total {expected}"
            )
    out = bytearray(dmap.file_size)  # only once the fragments account for every byte
    for entry, frag in zip(dmap.entries, fragments):
        payload = frag.payload
        pos, strided, runs = _copy_plan(entry, dmap.file_size)
        for dst, src in strided:
            out[dst] = payload[src]
        view = memoryview(payload)
        for start, n in runs:
            out[start : start + n] = view[pos : pos + n]
            pos += n
    return bytes(out)
