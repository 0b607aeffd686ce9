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
its period and the merged pieces of one period, walked once and kept
on the (frozen) view, in the manner of FALLS nested strided
segments or an MPI-IO vector file view.  ``Selection`` owns the piece
arithmetic, including ``shifted``, the one builder of a selection as
seen from any byte, over a window of any length.  A ``MapEntry`` is a
plain selection and file size per device; extents are expanded only on
demand (plans, tests) and byte totals are closed-form.  One sweep of one
common period of the coverage (``coverage_period``) decides
``check_partition``, which a map keeps as its ``verdict``; the verdict
keeps that one period and tiles its gap and overlap report on demand.
A view with a negative SKIP_HEADER, SKIP, OFFSET, STRIDE or COUNT, or a
REPEAT below 1, which ``validate_document`` rejects, does not compile:
``_compile`` raises ValueError, so it never reaches the data path.

Runs are expanded in bulk, with no Python step per run: the whole
periods' starts interleave one ``range(h + a, h + k*p, p)`` per piece,
and a selection of one piece keeps its ``range``.  A wrapping selection
(first piece at 0, last one ending at the period) merges runs across
periods: they are its head run, then the runs of it shifted to start at
its second piece, where the last piece absorbs the next period's first.
Plans, extents, the sweep and scatter read these runs.

Plan text is one ``%`` per progression or per distinct block phase, so
its Python steps grow with the phases, not with the file size.  A start
s in the decimal block [H*10**d, (H+1)*10**d), H >= 1, prints as H, then
s % 10**d in d digits.  In a progression of period p, block H + phases
holds block H's runs moved by phases*10**d, a multiple of p, where
phases = p / gcd(p, 10**d).  So each whole block inside the progression
is one of ``phases`` texts, formatted once with a placeholder for H, and
every whole block is written by C-level ``str.replace``.  The runs before
the first whole block and after the last are formatted as they are.

A view's constants are properties of the model's records, the ones
validation checks the period by: ``ViewDecl.period``, worked out once
and kept on the (frozen) view, and each block's ``take`` (COUNT units
of its child's period, one byte under a BYTEBLOCK) and ``span``.  The
two evaluators share those constants and nothing else, so they check
each other's use of them: ``enumerate_extents`` expands the selection a
cursor walk of the blocks compiles, and ``member_oracle`` answers
per-byte membership arithmetically (modulo the period, then span
subtraction and division).  A wrong constant would fool both; the test
suite's naive painter derives its own and catches it.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle, repeat
from operator import itemgetter, sub
from typing import Iterator, Sequence

from .errors import DescriptorError
from .model import INT64_MAX, BlockDecl, ByteBlock, Document, ViewDecl, guard_int64

__all__ = [
    "MapEntry",
    "DistributionMap",
    "PartitionStatus",
    "PartitionVerdict",
    "enumerate_extents",
    "member_oracle",
    "build_distribution_map",
    "check_partition",
    "render_plan",
]

_START = itemgetter(0)  # a piece's start: sorted pieces bisect on it
_BLOCK_RUNS = 128  # plan text tiles decimal blocks of about this many runs or more


@dataclass(frozen=True)
class Selection:
    """A view compiled to one period: bytes [0, header) are skipped once,
    then ``pieces`` -- ``(start, length)`` pairs relative to the period
    origin -- repeat every ``period`` bytes.  No pieces, no bytes.

    The header is non-negative and the pieces are sorted, disjoint and
    inside [0, period); the constructor raises ValueError otherwise,
    then stores the pieces merged, without empty ones.  The closed-form
    totals, the run expansion, the strided copy and the one-period
    partition sweep rely on it.
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
            return [([h], (min(pieces[0][1], size - h),)), *self._past_head.progressions(size)]
        m, k = len(pieces), self.full_periods(size)
        if m == 1:  # a range: a 1-byte cyclic plan then tiles its blocks without building a start per run
            starts: Sequence[int] = range(h + pieces[0][0], h + k * p, p)
        else:
            starts = [0] * (m * k)
            for i, (a, _) in enumerate(pieces):
                starts[i::m] = range(h + a, h + k * p, p)
        whole = (starts, [n for _, n in pieces])
        tail = tuple(zip(*self.tail(size))) or ((), ())  # (starts, lengths)
        return [progression for progression in (whole, tail) if progression[0]]

    def runs(self, size: int) -> Iterator[tuple[int, int]]:
        """Selected ``(start, length)`` runs of [0, size), merged, in order."""
        return chain.from_iterable(zip(starts, cycle(lengths)) for starts, lengths in self.progressions(size))

    def shifted(self, start: int, n: int) -> Selection:
        """The selection as seen from ``start``: over [0, n) it selects
        what this one selects in [start, start + n), moved down by start.
        It keeps the period; the part of the header past ``start`` stays
        its header, and its pieces are the selected runs of the window's
        first period past that header, cut at the phase of ``start`` and
        at the window's end.  Only the pieces that meet the window are
        visited, found by bisection, so a window costs its own runs."""
        h, p, pieces = self.header, self.period, self.pieces
        if not pieces:
            return self
        phase = max(0, start - h) % p
        end = phase + min(p, n, start + n - h)  # the window is [phase, end) of this period and the next
        first = bisect_right(pieces, phase, key=sum)  # the first piece ending past the phase
        if end <= p:
            meeting = pieces[first : bisect_left(pieces, end, key=_START)]
        else:
            meeting = chain(pieces[first:], ((a + p, k) for a, k in pieces[: bisect_left(pieces, end - p, key=_START)]))
        cut = [(max(a, phase), min(a + k, end)) for a, k in meeting]
        return Selection(max(0, h - start), p, tuple((a - phase, b - a) for a, b in cut))

    @cached_property
    def _past_head(self) -> Selection:
        """A wrapping selection past its head run (module notes): shifted
        to its second piece, whose start becomes the header."""
        start = self.header + self.pieces[1][0]
        return replace(self.shifted(start, self.period), header=start)

    def total(self, size: int) -> int:
        """Selected bytes in [0, size): whole periods, then the tail."""
        return self.full_periods(size) * self.per_period + sum(n for _, n in self.tail(size))


_NOTHING = Selection(0, 1, ())
# every byte, as one run of any file: the all-NOVIEW fallback
_WHOLE = Selection(0, INT64_MAX, ((0, INT64_MAX),))


@dataclass(frozen=True)
class MapEntry:
    """One device's share of a file: its selection clipped to ``size``.
    Maps clip entries at their file size."""

    island: str
    host: str
    device_id: str
    selection: Selection
    size: int

    @property
    def label(self) -> str:
        return f"{self.island}/{self.host}/{self.device_id}"

    @cached_property
    def extents(self) -> tuple[tuple[int, int], ...]:
        """The selection expanded to merged ``(start, length)`` runs."""
        return tuple(self.selection.runs(self.size))


@dataclass(frozen=True)
class DistributionMap:
    """Per-device selections for one file size, in document order."""

    file_size: int
    entries: tuple[MapEntry, ...]

    def coverage_period(self) -> tuple[int, int]:
        """(H, L): the largest header of the entries' selections and the
        lcm of their periods.  Past H, the coverage repeats every L bytes."""
        selections = [e.selection for e in self.entries if e.selection.pieces]
        return max((s.header for s in selections), default=0), math.lcm(*(s.period for s in selections))

    @cached_property
    def verdict(self) -> PartitionVerdict:
        """The map's ``check_partition``, computed once: the map is frozen."""
        return check_partition(self)


class PartitionStatus(enum.Enum):
    EXACT_PARTITION = "exact"
    HAS_GAPS = "gaps"
    HAS_OVERLAPS = "overlaps"
    GAPS_AND_OVERLAPS = "gaps+overlaps"


@dataclass(frozen=True)
class PartitionVerdict:
    """``check_partition``'s sweep of [0, min(size, header + period)): the
    ``stretches`` ``(start, end, claimants)`` that no entry or two or more
    claim, cut at the header.  ``gaps`` and ``overlaps`` tile them anew."""

    status: PartitionStatus
    size: int
    header: int
    period: int
    stretches: tuple[tuple[int, int, tuple[str, ...]], ...]

    @property
    def gaps(self) -> Iterator[tuple[int, int]]:
        """The maximal unclaimed ``(start, length)`` runs, in file order."""
        return (run for run, _ in self._tiled(claimed=False))

    @property
    def overlaps(self) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
        """``(run, claimants)`` of bytes claimed twice or more, split where the claimants change."""
        return self._tiled(claimed=True)

    def _tiled(self, claimed: bool) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
        """One kind's stretches before the header, then past it every period,
        clipped at the size and joined where they meet with equal claimants."""
        h, size = self.header, self.size
        kept = [s for s in self.stretches if bool(s[2]) is claimed]
        after = [s for s in kept if s[0] >= h]
        periods = range(0, size - h if after else 0, self.period)
        tiled = chain(kept[: len(kept) - len(after)], ((a + k, min(b + k, size), c) for k in periods for a, b, c in after if a + k < size))
        start = end = who = None
        for lo, hi, claimants in chain(tiled, [(None, None, None)]):
            if lo != end or claimants != who:
                if start is not None:
                    yield (start, end - start), who
                start, who = lo, claimants
            end = hi


def _compile(view: ViewDecl) -> Selection:
    """The view's selection, its blocks cursor-walked over one period and
    kept on the (frozen) view; ValueError for a negative parameter or a
    REPEAT below 1 (module notes)."""
    selection = view.__dict__.get("_selection")
    if selection is None:
        period, pieces, cursor = view.period, [], 0
        for b in view.blocks:
            if b.repeat < 1:
                raise ValueError(f"block REPEAT {b.repeat} is not positive")
            take, step = b.take, b.take + b.stride
            # the child's runs, the same in every take; a negative take
            # stays one piece, for the Selection check to reject
            inner = tuple(_compile(b.child).runs(take)) if isinstance(b.child, ViewDecl) and take >= 0 else [(0, take)]
            pieces.extend((cursor + b.offset + r * step + a, n) for r in range(b.repeat) for a, n in inner)
            cursor = guard_int64(cursor + b.span, "view cursor")
        selection = view.__dict__["_selection"] = Selection(view.skip_header, period, tuple(pieces))
    return selection


def enumerate_extents(view: ViewDecl, region_size: int) -> tuple[tuple[int, int], ...]:
    """Selected ``(start, length)`` runs of [0, region_size), merged and sorted."""
    return tuple(_compile(view).runs(region_size))


def member_oracle(view: ViewDecl, byte_index: int) -> bool:
    """Arithmetic membership test: does the view select this byte?

    Equivalent to membership in enumerate_extents over an unbounded
    region, but computed from the same constants by modular reduction
    and span subtraction with no cursor walk, so the two can cross-check.
    """
    if byte_index < view.skip_header:
        return False
    if view.period < 1:  # block-less views select nothing
        return False
    r = (byte_index - view.skip_header) % view.period
    for b in view.blocks:
        span = b.span
        if r < span:
            if r < b.offset:
                return False
            take = b.take
            inside = (r - b.offset) % (take + b.stride)
            if inside >= take:
                return False  # stride gap
            if isinstance(b.child, ByteBlock):
                return True
            return member_oracle(b.child, inside)
        r -= span
    return False  # trailing skip


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
        raise DescriptorError(f"island {doc.island.name!r} declares no device to place bytes on")
    all_noview = all(dev.view is None for _, _, dev in devices)
    entries = []
    for i, (island, host, dev) in enumerate(devices):
        if dev.view is not None:
            selection = _compile(dev.view)
        elif all_noview and i == 0:
            selection = _WHOLE
        else:
            selection = _NOTHING
        entries.append(MapEntry(island, host, dev.device_id, selection, file_size))
    return DistributionMap(file_size=file_size, entries=tuple(entries))


def check_partition(dmap: DistributionMap) -> PartitionVerdict:
    """Classify coverage of [0, file_size) by the map's selections.

    Exact means every byte is claimed exactly once; the verdict's
    ``gaps`` and ``overlaps`` report the bytes that are not.

    One sweep of one period decides: with H and L the map's
    ``coverage_period``, a byte's membership does not depend on the file
    size, and past its header each selection repeats with its period, so
    past H the claimants of every byte repeat with period L.  Only
    [0, min(size, H + L)) is swept, cut at H; the verdict keeps that sweep
    and tiles its report over the file when it is read.
    """
    size, (h, period) = dmap.file_size, dmap.coverage_period()
    stretches = tuple(_stretches(dmap.entries, min(size, h + period), h))
    kinds = {bool(claimants) for _, _, claimants in stretches}  # False for a gap, True for an overlap
    # the statuses in declaration order: exact, gaps, overlaps, both
    return PartitionVerdict(list(PartitionStatus)[(False in kinds) + 2 * (True in kinds)], size, h, period, stretches)


def _stretches(entries: Sequence[MapEntry], size: int, cut: int) -> Iterator[tuple[int, int, tuple[str, ...]]]:
    """The stretches ``(start, end, claimants)`` of [0, size) claimed by no
    entry or by two or more, split where the claimants change and at
    ``cut``, by an event sweep over the entries' runs of [0, size).
    Claimants are the entries' labels, sorted; two entries with one label
    (a device listed twice) are both named."""
    deltas: dict[int, list[tuple[int, int]]] = {}
    for i, entry in enumerate(entries):
        for start, length in entry.selection.runs(size):
            deltas.setdefault(start, []).append((1, i))
            deltas.setdefault(start + length, []).append((-1, i))
    cuts = sorted(set(deltas) | {0, min(cut, size), size})
    active: dict[int, int] = {}
    for pos, nxt in zip(cuts, cuts[1:]):
        for delta, i in deltas.get(pos, ()):
            active[i] = active.get(i, 0) + delta
            if active[i] == 0:
                del active[i]
        if sum(active.values()) != 1:
            yield pos, nxt, tuple(sorted(entries[i].label for i in active))


def render_plan(dmap: DistributionMap) -> str:
    """Plan text: one tab-separated line per device plus a verdict line."""
    verdict = dmap.verdict
    lines = [f"{entry.label}\t" + _format_runs(entry.selection.progressions(dmap.file_size)) for entry in dmap.entries]
    lines.append(f"partition: {verdict.status.value}")
    return "\n".join(lines) + "\n"


def _format_runs(progressions: list[tuple[Sequence[int], Sequence[int]]]) -> str:
    """Comma-joined ``start:length`` runs, one progression at a time."""
    return ",".join(_format_progression(starts, lengths) for starts, lengths in progressions)


def _format(starts: Sequence[int], lengths: Sequence[int], first: int = 0, cell: str = "%d") -> str:
    """The runs ``start:length`` with ``lengths`` cycled from ``lengths[first]``,
    each start written by ``cell``, all with one ``%``."""
    cells = [f"{cell}:{n}" for n in (*lengths[first:], *lengths[:first])]
    whole, rest = divmod(len(starts), len(cells))
    return ",".join([",".join(cells)] * whole + cells[:rest]) % tuple(starts)


def _format_progression(starts: Sequence[int], lengths: Sequence[int]) -> str:
    """One progression's runs (module notes): its whole decimal blocks of
    10**d bytes repeat ``phases`` texts, each formatted once with its
    leading digits left out; the runs before and after them take one
    ``%`` each side."""
    m = len(lengths)
    if len(starts) <= m:
        return _format(starts, lengths)
    period = starts[m] - starts[0]
    # the fewest digits d whose block holds a period and about _BLOCK_RUNS runs or more
    digits = len(str(-(-_BLOCK_RUNS * period // min(m, _BLOCK_RUNS)) - 1))
    block = 10**digits
    phases = period // math.gcd(period, block)
    # blocks lo..hi-1 lie wholly inside the progression; block 0 has no leading digits
    lo, hi = max(1, -(-starts[0] // block)), (starts[0] + len(starts) // m * period) // block
    if hi - lo < 4 * phases:
        return _format(starts, lengths)
    bounds = [bisect_left(starts, (lo + q) * block) for q in range(phases + 1)]
    texts = [
        _format(tuple(map(sub, starts[i:j], repeat((lo + q) * block))), lengths, i % m, f"\0%0{digits}d")
        for q, (i, j) in enumerate(zip(bounds, bounds[1:]))
    ]
    # ask for the whole blocks' text length at once: a plan past memory
    # then fails here, not once the blocks have filled it
    bytes(len(",".join(texts)) * ((hi - lo) // phases))
    tiled = ",".join(map(str.replace, cycle(texts), repeat("\0"), map(str, range(lo, hi))))
    end = bisect_left(starts, hi * block)
    head, tail = _format(starts[: bounds[0]], lengths), _format(starts[end:], lengths, end % m)
    return ",".join(text for text in (head, tiled, tail) if text)


def round_robin_view(device: int, devices: int, chunk: int, child: ViewDecl | ByteBlock = ByteBlock()) -> ViewDecl:
    """Device ``device`` of ``devices`` takes chunk number ``device`` of
    every ``devices`` chunks of ``chunk`` units of ``child``: bytes under
    a BYTEBLOCK, the child's periods under a VIEW."""
    unit = child.period
    return ViewDecl(
        skip_header=0,
        skip=(devices - 1 - device) * chunk * unit,
        blocks=(BlockDecl(device * chunk * unit, 1, chunk, 0, child),),
    )
