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
certifies exactness from one common period of the coverage.  A view
with a negative SKIP_HEADER, SKIP, OFFSET, STRIDE or COUNT, or a REPEAT
below 1, which ``validate_document`` rejects, does not compile:
``_compile`` raises ValueError, so it never reaches the data path.

Runs are expanded in bulk, with no Python step per run: the whole
periods' starts interleave one ``range(h + a, h + k*p, p)`` per piece.
A wrapping selection (first piece at 0, last one ending at the period)
merges runs across periods: they are its head run, then the runs of it
rotated to start at its second piece, the last piece absorbing the next
period's first.  Plans, extents, the sweep and scatter read these runs.

Two independent evaluators are kept deliberately separate so they can
check each other: ``enumerate_extents`` expands the compiled selection
period by period, while ``member_oracle`` answers per-byte membership
purely arithmetically (modulo the period, then span subtraction and
division).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle, starmap
from typing import Iterable, Iterator, Sequence

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

    The header is non-negative and the pieces are sorted, disjoint and
    inside [0, period); the constructor raises ValueError otherwise,
    then stores the pieces merged, without empty ones.  The closed-form
    totals, the run expansion, the strided copy, the one-period
    partition certificate and the clipped sweep rely on it.
    """

    header: int
    period: int
    pieces: tuple[tuple[int, int], ...]
    per_period: int = field(init=False)

    def __post_init__(self):
        if self.header < 0 or self.period < 0:
            raise ValueError(f"selection header {self.header} or period {self.period} is negative")
        merged: list[tuple[int, int]] = []
        end = per_period = 0
        for start, length in self.pieces:
            if not end <= start < self.period or length < 0 or start + length > self.period:
                raise ValueError(f"selection piece {start}:{length} is not a run inside [{end}, {self.period})")
            if merged and sum(merged[-1]) == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            elif length:
                merged.append((start, length))
            end = start + length
            per_period += length
        object.__setattr__(self, "pieces", tuple(merged))
        object.__setattr__(self, "per_period", per_period)

    def full_periods(self, size: int) -> int:
        """Periods lying wholly inside [header, size)."""
        if not self.pieces or size <= self.header:
            return 0
        return (size - self.header) // self.period

    def tail(self, size: int) -> list[tuple[int, int]]:
        """The runs of [0, size) past the whole periods, clipped at size."""
        base = self.header + self.full_periods(size) * self.period
        return [(base + a, min(n, size - base - a)) for a, n in self.pieces if base + a < size]

    def progressions(self, size: int) -> list[tuple[Sequence[int], Sequence[int]]]:
        """The merged runs of [0, size) as non-empty progressions
        ``(starts, lengths)``, each the runs ``zip(starts, cycle(lengths))``;
        a wrapping single piece is one run from the header on."""
        h, p, pieces = self.header, self.period, self.pieces
        if pieces and pieces[0][0] == 0 and sum(pieces[-1]) == p and size > h:
            if len(pieces) == 1:
                return [([h], (size - h,))]
            rotated = self.__dict__.get("_rotated") or self._rotate()
            return [([h], (min(pieces[0][1], size - h),)), *rotated.progressions(size)]
        m, k = len(pieces), self.full_periods(size)
        if k > 1:
            starts = [0] * (m * k)
            for i, (a, _) in enumerate(pieces):
                starts[i::m] = range(h + a, h + k * p, p)
        else:  # at most one whole period: nothing to interleave
            starts = [h + a for a, _ in pieces] if k else []
        whole = (starts, [n for _, n in pieces])
        tail = tuple(zip(*self.tail(size))) or ((), ())  # (starts, lengths)
        return [progression for progression in (whole, tail) if progression[0]]

    def runs(self, size: int) -> Iterator[tuple[int, int]]:
        """Selected ``(start, length)`` runs of [0, size), merged, in order."""
        return chain.from_iterable(zip(starts, cycle(lengths)) for starts, lengths in self.progressions(size))

    def _rotate(self) -> Selection:
        """A wrapping selection past its head run (module notes), memoized."""
        (_, n0), (a1, _) = self.pieces[:2]
        al, nl = self.pieces[-1]
        moved = [(a - a1, n) for a, n in self.pieces[1:-1]] + [(al - a1, nl + n0)]
        self.__dict__["_rotated"] = rotated = Selection(self.header + a1, self.period, tuple(moved))
        return rotated

    def total(self, size: int) -> int:
        """Selected bytes in [0, size): whole periods, then the tail."""
        return self.full_periods(size) * self.per_period + sum(n for _, n in self.tail(size))


_NOTHING = Selection(0, 1, ())
# every byte, as one run of any file: the all-NOVIEW fallback
_WHOLE = Selection(0, INT64_MAX, ((0, INT64_MAX),))


@dataclass(frozen=True, init=False)
class MapEntry:
    """One device's share of a file: its selection clipped to ``size``.

    ``build_distribution_map`` gives each entry its view's compiled
    selection and the file size.  An entry built by hand from explicit
    extents, ``MapEntry(island, host, device_id, extents)``, is a
    one-period selection of exactly those extents: header 0 and a
    period longer than any file, clipped where the extents end.  The
    extents must be sorted and disjoint (ValueError otherwise);
    ``extents`` returns them merged.  Maps clip entries at their file size.
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
            selection = Selection(0, INT64_MAX, tuple((e.start, e.length) for e in extents))
            size = max((start + n for start, n in selection.pieces), default=0)
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
        """The selection expanded to merged extents."""
        return tuple(starmap(Extent, self.selection.runs(self.size)))


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


def _walk_one_period(view: ViewDecl) -> list[tuple[int, int]]:
    """Cursor-walk a single period; pieces are (start, length) relative
    to the period origin, in walk order and unmerged."""
    pieces: list[tuple[int, int]] = []
    cursor = 0
    for b in view.blocks:
        if b.repeat < 1:
            raise ValueError(f"block REPEAT {b.repeat} is not positive")
        cursor += b.offset
        if isinstance(b.child, ByteBlock):
            take = b.count
            inner = [(0, take)]
        else:
            child = _compile(b.child)
            take = b.count * child.period
            # the same selection in every take; a negative take stays one
            # piece, for the Selection check to reject
            inner = tuple(child.runs(take)) if take >= 0 else [(0, take)]
        for r in range(b.repeat):
            at = cursor + r * (take + b.stride)
            pieces.extend((at + start, length) for start, length in inner)
        cursor = _guard(cursor + b.repeat * take + (b.repeat - 1) * b.stride, "view cursor")
    return pieces


def _compile(view: ViewDecl) -> Selection:
    """The view's selection: one walked period, memoized on the view.
    A view with a negative parameter or a REPEAT below 1 raises
    ValueError here.  A block-less view selects nothing."""
    cached = view.__dict__.get("_selection")
    if cached is None:
        cached = Selection(view.skip_header, view_period(view), tuple(_walk_one_period(view)))
        view.__dict__["_selection"] = cached
    return cached


def enumerate_extents(view: ViewDecl, region_size: int) -> tuple[Extent, ...]:
    """Selected extents of [0, region_size), merged, sorted and disjoint."""
    return tuple(starmap(Extent, _compile(view).runs(region_size)))


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
    """Bytes one full period places on the device (header excluded)."""
    return _compile(view).per_period


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

    The sweep first runs on the prefix [0, H + L) only, H the largest
    header and L the lcm of the periods: a byte's membership does not
    depend on the file size, and past its header each selection repeats
    with its period, so past H the coverage repeats with period L and
    the prefix is exact iff the whole file is.  Only a map that is not
    exact is swept in full.
    """
    selections = [e.selection for e in dmap.entries if e.selection.pieces]
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
        for start, length in entry.selection.runs(size):
            deltas.setdefault(start, []).append((1, entry.label))
            deltas.setdefault(start + length, []).append((-1, entry.label))
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
    lines = [f"{entry.label}\t" + _format_runs(entry.selection.progressions(dmap.file_size)) for entry in dmap.entries]
    lines.append(f"partition: {verdict.status.value}")
    return "\n".join(lines) + "\n"


def _format_runs(progressions: list[tuple[Sequence[int], Sequence[int]]]) -> str:
    """Comma-joined ``start:length`` runs, one ``%`` per progression."""
    return ",".join(
        ",".join([",".join(f"%d:{n}" for n in lengths)] * (len(starts) // len(lengths))) % tuple(starts)
        for starts, lengths in progressions
    )


def round_robin_view(device: int, devices: int, chunk: int) -> ViewDecl:
    """Device ``device`` of ``devices`` takes chunk number ``device`` of
    every period of ``devices * chunk`` bytes."""
    return ViewDecl(
        skip_header=0,
        skip=(devices - 1 - device) * chunk,
        blocks=(BlockDecl(device * chunk, 1, chunk, 0, ByteBlock()),),
    )


def view_selecting(extents: tuple[Extent, ...] | list[Extent], region_size: int) -> ViewDecl:
    """Build a single-period view whose selection over region_size equals
    the given extents (sorted, disjoint, within the region).

    An empty selection is encoded as a take placed past the region end,
    which clips to nothing.
    """
    blocks = []
    cursor = 0
    for ext in extents:
        if ext.start < cursor or ext.length < 1 or ext.end > region_size:
            raise ValueError(f"extents must be sorted, disjoint and within [0, {region_size}): {ext}")
        blocks.append(BlockDecl(ext.start - cursor, 1, ext.length, 0, ByteBlock()))
        cursor = ext.end
    if not blocks:
        return ViewDecl(0, 0, (BlockDecl(region_size, 1, 1, 0, ByteBlock()),))
    return ViewDecl(0, region_size - cursor, tuple(blocks))
