"""Evaluation of recursive view selection patterns.

A view describes which bytes of a logical region land on one device.  The
pattern is periodic: within each period, every block first skips
``offset`` bytes, then lays down ``repeat`` takes of ``count`` units with
``stride``-byte gaps between consecutive takes (none after the last), and
the view appends ``skip`` trailing bytes.  ``skip_header`` is consumed
exactly once, before the first period.  A take's unit is one byte under a
BYTEBLOCK leaf; under a nested view it is one full inner period, and the
inner pattern is applied within the take's span (inner header consumed
once per take).  The pattern tiles until the region is exhausted; takes
straddling the region end are clipped, never dropped.

The data path works on each view's compiled ``Selection``: its header,
its period and the merged pieces of one period, walked once and
memoized on the (frozen) view, in the manner of FALLS nested strided
segments or an MPI-IO vector file view.  Distribution maps hold one
selection per device; their extents are expanded only on demand
(plans, tests), byte totals are closed-form, and ``check_partition``
certifies exactness from one common period of the coverage.

Two independent evaluators are kept deliberately separate so they can
check each other: ``enumerate_extents`` expands the compiled selection
period by period with a cursor, while ``member_oracle`` answers per-byte
membership purely arithmetically (modulo the period, then span
subtraction and division).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ArithmeticOverflow, NoDevices
from .model import BlockDecl, ByteBlock, Document, ViewDecl

__all__ = [
    "INT64_MAX",
    "Extent",
    "MapEntry",
    "DistributionMap",
    "PartitionStatus",
    "PartitionVerdict",
    "view_period",
    "selected_bytes_per_period",
    "enumerate_extents",
    "member_oracle",
    "build_distribution_map",
    "check_partition",
    "render_plan",
    "view_selecting",
]

INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Extent:
    """Half-open byte range [start, start+length) of the logical file."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length

    def __str__(self) -> str:
        return f"{self.start}:{self.length}"


@dataclass(frozen=True)
class Selection:
    """A view compiled to one period: bytes [0, header) are skipped once,
    then ``pieces`` -- ``(start, length)`` pairs relative to the period
    origin -- repeat every ``period`` bytes.  No pieces, no bytes.

    A selection is ``regular`` when its header is non-negative and its
    pieces are sorted, disjoint and inside [0, period).  Valid documents
    compile only to regular selections.  The closed-form totals, the
    strided copy, the one-period partition certificate and the clipped
    sweep rely on it; everywhere else -- negative offsets, skips or
    strides in an unvalidated document, unsorted hand-built extents --
    the map entry's expanded extents are used instead.
    """

    header: int
    period: int
    pieces: tuple[tuple[int, int], ...]
    per_period: int = field(init=False)
    regular: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "per_period", sum(n for _, n in self.pieces))
        ends = [0] + [x for start, n in self.pieces for x in (start, start + n)] + [self.period]
        regular = self.header >= 0 and all(a <= b for a, b in zip(ends, ends[1:]))
        object.__setattr__(self, "regular", regular)

    def full_periods(self, size: int) -> int:
        """Periods lying wholly inside [header, size) (regular selections)."""
        if not self.pieces or size <= self.header:
            return 0
        return (size - self.header) // self.period

    def runs(self, size: int, first: int = 0) -> Iterator[tuple[int, int]]:
        """Selected ``(start, length)`` runs of [0, size) from period
        ``first`` on, in period and piece order, clipped at size,
        unmerged across periods; a period's remaining pieces are dropped
        from the first one starting at or past size."""
        if not self.pieces or size <= 0:
            return
        base = self.header + first * self.period
        while base < size:
            for start, length in self.pieces:
                start += base
                if start >= size:
                    break
                yield start, min(length, size - start)
            base += self.period

    def total(self, size: int) -> int:
        """Selected bytes in [0, size): whole periods, then the clipped
        tail (regular selections)."""
        k = self.full_periods(size)
        return k * self.per_period + sum(n for _, n in self.runs(size, k))

    def extents(self, size: int) -> tuple[Extent, ...]:
        return tuple(Extent(start, length) for start, length in _merge(self.runs(size)))


_NOTHING = Selection(0, 1, ())
# every byte, as one run of any file: the all-NOVIEW fallback
_WHOLE = Selection(0, INT64_MAX, ((0, INT64_MAX),))


@dataclass(frozen=True, init=False)
class MapEntry:
    """One device's share of a file: its selection clipped to ``size``.

    ``build_distribution_map`` gives each entry its view's compiled
    selection and the file size.  An entry built by hand from explicit
    extents, ``MapEntry(island, host, device_id, extents)``, is a
    one-period selection of exactly those extents, in the order given:
    header 0 and a period longer than any file, clipped where the
    extents end.  Its ``extents`` are returned as given.
    """

    island: str
    host: str
    device_id: str
    selection: Selection
    size: int

    def __init__(
        self,
        island: str,
        host: str,
        device_id: str,
        extents: Iterable[Extent] | None = None,
        *,
        selection: Selection | None = None,
        size: int | None = None,
    ):
        if extents is not None:
            if selection is not None or size is not None:
                raise TypeError("MapEntry takes either extents or selection and size, not both")
            extents = tuple(extents)
            selection = Selection(0, INT64_MAX, tuple((e.start, e.length) for e in extents))
            size = max((e.end for e in extents), default=0)
            object.__setattr__(self, "extents", extents)  # fills the cached property
        elif selection is None or size is None:
            raise TypeError("MapEntry needs either extents or both selection and size")
        object.__setattr__(self, "island", island)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "device_id", device_id)
        object.__setattr__(self, "selection", selection)
        object.__setattr__(self, "size", size)

    @property
    def label(self) -> str:
        return f"{self.island}/{self.host}/{self.device_id}"

    @cached_property
    def extents(self) -> tuple[Extent, ...]:
        """The selection expanded to merged extents (plans and tests)."""
        return self.selection.extents(self.size)

    @property
    def total_bytes(self) -> int:
        if not self.selection.regular:
            return sum(e.length for e in self.extents)
        return self.selection.total(self.size)


@dataclass(frozen=True)
class DistributionMap:
    """Per-device selections for one file size, in document order."""

    file_size: int
    entries: tuple[MapEntry, ...]


class PartitionStatus(enum.Enum):
    EXACT_PARTITION = "exact"
    HAS_GAPS = "gaps"
    HAS_OVERLAPS = "overlaps"
    GAPS_AND_OVERLAPS = "gaps+overlaps"


@dataclass(frozen=True)
class PartitionVerdict:
    status: PartitionStatus
    gaps: tuple[Extent, ...] = ()
    overlaps: tuple[tuple[Extent, tuple[str, ...]], ...] = ()


def _guard(value: int, what: str) -> int:
    if value > INT64_MAX:
        raise ArithmeticOverflow(f"{what} exceeds the 64-bit range: {value}")
    return value


def view_period(view: ViewDecl) -> int:
    """Bytes one pattern instance spans before it repeats.

    Closed form: sum over blocks of offset + repeat*count*unit +
    (repeat-1)*stride, plus the trailing skip.  The one-time skip_header
    is not part of the period.
    """
    # views are frozen, so the period is memoized on the instance
    cached = view.__dict__.get("_period")
    if cached is not None:
        return cached
    total = view.skip
    for b in view.blocks:
        unit = 1 if isinstance(b.child, ByteBlock) else view_period(b.child)
        total += b.offset + b.repeat * b.count * unit + (b.repeat - 1) * b.stride
    _guard(total, "view period")
    view.__dict__["_period"] = total
    return total


def _walk_one_period(view: ViewDecl) -> tuple[int, list[tuple[int, int]]]:
    """Cursor-walk a single period; pieces are (start, length) relative
    to the period origin, sorted and disjoint."""
    pieces: list[tuple[int, int]] = []
    cursor = 0
    for b in view.blocks:
        cursor += b.offset
        if isinstance(b.child, ByteBlock):
            take = b.count
            inner = [(0, take)]
        else:
            child = _compile(b.child)
            take = b.count * child.period
            inner = _merge(child.runs(take))  # same selection in every take
        for r in range(b.repeat):
            pieces.extend((cursor + start, length) for start, length in inner)
            cursor += take
            if r + 1 < b.repeat:
                cursor += b.stride
        _guard(cursor, "view cursor")
    cursor += view.skip
    return _guard(cursor, "view period"), pieces


def _compile(view: ViewDecl) -> Selection:
    """The view's selection: one walked period, memoized on the view.
    A period below 1 (a block-less view, or negative skips) selects
    nothing.  Pieces are merged only if they form a regular selection;
    an irregular one keeps its walked pieces, empty ones included, as
    each can end the walk of a clipped period."""
    cached = view.__dict__.get("_selection")
    if cached is not None:
        return cached
    period, pieces = _walk_one_period(view)
    selection = Selection(view.skip_header, period, tuple(pieces) if period >= 1 else ())
    if selection.regular:
        selection = Selection(view.skip_header, period, _merge(selection.pieces))
    view.__dict__["_selection"] = selection
    return selection


def _merge(pieces: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    merged: list[list[int]] = []
    for start, length in pieces:
        if length <= 0:
            continue
        if merged and merged[-1][1] == start:
            merged[-1][1] = start + length
        else:
            merged.append([start, start + length])
    return tuple((s, e - s) for s, e in merged)


def enumerate_extents(view: ViewDecl, region_size: int) -> tuple[Extent, ...]:
    """Selected extents of [0, region_size), merged, sorted and disjoint."""
    return _compile(view).extents(region_size)


def _member_plan(view: ViewDecl) -> tuple[int, tuple[tuple[int, int, int, int, ViewDecl | None], ...]]:
    """Per-block constants for the membership arithmetic, memoized on the
    (frozen) view: (offset, take, take+stride, span, nested view or None)."""
    cached = view.__dict__.get("_member_plan")
    if cached is not None:
        return cached
    rows = []
    for b in view.blocks:
        unit = 1 if isinstance(b.child, ByteBlock) else view_period(b.child)
        take = b.count * unit
        span = b.offset + b.repeat * take + (b.repeat - 1) * b.stride
        nested = b.child if isinstance(b.child, ViewDecl) else None
        rows.append((b.offset, take, take + b.stride, span, nested))
    plan = (view_period(view), tuple(rows))
    view.__dict__["_member_plan"] = plan
    return plan


def member_oracle(view: ViewDecl, byte_index: int) -> bool:
    """Arithmetic membership test: does the view select this byte?

    Equivalent to membership in enumerate_extents over an unbounded
    region, but computed by modular reduction and span subtraction with
    no cursor walk, so the two implementations can cross-check.
    """
    if byte_index < view.skip_header:
        return False
    period, rows = _member_plan(view)
    if period < 1:  # block-less views select nothing
        return False
    r = (byte_index - view.skip_header) % period
    for offset, take, step, span, nested in rows:
        if r < span:
            if r < offset:
                return False
            inside = (r - offset) % step
            if inside >= take:
                return False  # stride gap
            if nested is None:
                return True
            return member_oracle(nested, inside)
        r -= span
    return False  # trailing skip


def selected_bytes_per_period(view: ViewDecl) -> int:
    """Bytes one full period places on the device (header excluded).
    Outside valid views (an irregular selection, or a negative REPEAT
    that makes the closed-form period differ from the walked one), the
    extents of the first closed-form period are counted."""
    selection = _compile(view)
    if selection.regular and selection.period == view_period(view):
        return selection.per_period
    region = selection.extents(view.skip_header + view_period(view))
    return sum(e.length for e in region if e.start >= view.skip_header)


def build_distribution_map(doc: Document, file_size: int) -> DistributionMap:
    """Evaluate every device's view against a file of the given size.

    Devices marked NOVIEW receive nothing, unless every device in the
    document is NOVIEW; then the first device of the first server takes
    the whole file sequentially.
    """
    if file_size < 0:
        raise ValueError(f"file_size must be >= 0, got {file_size}")
    devices = [
        (doc.island.name, srv.host, dev)
        for srv in doc.island.servers
        for dev in srv.devices
    ]
    if not devices:
        raise NoDevices(f"island {doc.island.name!r} declares no device to place bytes on")
    all_noview = all(dev.view is None for _, _, dev in devices)
    entries = []
    for i, (island, host, dev) in enumerate(devices):
        if dev.view is not None:
            selection = _compile(dev.view)
        elif all_noview and i == 0:
            selection = _WHOLE
        else:
            selection = _NOTHING
        entries.append(MapEntry(island, host, dev.device_id, selection=selection, size=file_size))
    return DistributionMap(file_size=file_size, entries=tuple(entries))


def check_partition(dmap: DistributionMap) -> PartitionVerdict:
    """Classify coverage of [0, file_size) by the map's selections.

    Exact means every byte is claimed exactly once.  Gaps and overlaps
    are reported as maximal extents; overlap runs split where the
    claimant set changes so each reported extent lists its exact owners.

    When every selection is regular, the sweep first runs on the prefix
    [0, H + L) only, H the largest header and L the lcm of the periods:
    a byte's membership does not depend on the file size, and past its
    header each selection repeats with its period, so past H the
    coverage repeats with period L and the prefix is exact iff the whole
    file is.  Only a map that is not exact is swept in full.
    """
    selections = [e.selection for e in dmap.entries if e.selection.pieces]
    if all(s.regular for s in selections):
        header = max((s.header for s in selections), default=0)
        prefix = header + math.lcm(*(s.period for s in selections))
        if prefix < dmap.file_size:
            verdict = _sweep(replace(dmap, file_size=prefix))
            if verdict.status is PartitionStatus.EXACT_PARTITION:
                return verdict
    return _sweep(dmap)


def _sweep(dmap: DistributionMap) -> PartitionVerdict:
    """Full verdict with the gap and overlap report, by an event sweep
    over every selected run of the file."""
    size = dmap.file_size
    deltas: dict[int, list[tuple[int, str]]] = {}
    for entry in dmap.entries:
        if entry.selection.regular:
            runs = entry.selection.runs(size)
        else:
            runs = ((e.start, e.length) for e in entry.extents)
        for start, length in runs:
            lo = max(0, start)
            hi = min(size, start + length)
            if hi > lo:
                deltas.setdefault(lo, []).append((1, entry.label))
                deltas.setdefault(hi, []).append((-1, entry.label))
    cuts = sorted(set(deltas) | {0, size})
    active: dict[str, int] = {}
    gaps: list[list[int]] = []
    overlaps: list[tuple[int, int, tuple[str, ...]]] = []
    for pos, nxt in zip(cuts, cuts[1:]):
        for delta, label in deltas.get(pos, ()):
            active[label] = active.get(label, 0) + delta
            if active[label] == 0:
                del active[label]
        if pos >= size:
            break
        coverage = sum(active.values())
        if coverage == 0:
            if gaps and gaps[-1][1] == pos:
                gaps[-1][1] = nxt
            else:
                gaps.append([pos, nxt])
        elif coverage >= 2:
            claimants = tuple(sorted(active))
            if overlaps and overlaps[-1][1] == pos and overlaps[-1][2] == claimants:
                overlaps[-1] = (overlaps[-1][0], nxt, claimants)
            else:
                overlaps.append((pos, nxt, claimants))
    gap_extents = tuple(Extent(lo, hi - lo) for lo, hi in gaps)
    overlap_extents = tuple((Extent(lo, hi - lo), who) for lo, hi, who in overlaps)
    if gap_extents and overlap_extents:
        status = PartitionStatus.GAPS_AND_OVERLAPS
    elif gap_extents:
        status = PartitionStatus.HAS_GAPS
    elif overlap_extents:
        status = PartitionStatus.HAS_OVERLAPS
    else:
        status = PartitionStatus.EXACT_PARTITION
    return PartitionVerdict(status, gap_extents, overlap_extents)


def render_plan(dmap: DistributionMap, verdict: PartitionVerdict | None = None) -> str:
    """Plan text: one tab-separated line per device plus a verdict line."""
    if verdict is None:
        verdict = check_partition(dmap)
    lines = [
        f"{entry.label}\t" + ",".join(str(e) for e in entry.extents)
        for entry in dmap.entries
    ]
    lines.append(f"partition: {verdict.status.value}")
    return "\n".join(lines) + "\n"


def view_selecting(extents: tuple[Extent, ...] | list[Extent], region_size: int) -> ViewDecl:
    """Build a single-period view whose selection over region_size equals
    the given extents (sorted, disjoint, within the region).

    An empty selection is encoded as a take placed past the region end,
    which clips to nothing.
    """
    cursor = 0
    for ext in extents:
        if ext.start < cursor or ext.length < 1 or ext.end > region_size:
            raise ValueError(f"extents must be sorted, disjoint and within [0, {region_size}): {ext}")
        cursor = ext.end
    if not extents:
        return ViewDecl(0, 0, (BlockDecl(region_size, 1, 1, 0, ByteBlock()),))
    blocks = []
    cursor = 0
    for ext in extents:
        blocks.append(BlockDecl(ext.start - cursor, 1, ext.length, 0, ByteBlock()))
        cursor = ext.end
    return ViewDecl(0, region_size - cursor, tuple(blocks))
