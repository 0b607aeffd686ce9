"""Type sizes and array-distribution compilation.

Distributed dimensions are mapped onto processor-array axes positionally,
using the standard block/cyclic owner formulas: a block dimension of
extent N over P targets gives element c to target c // ceil(N/P); a
cyclic dimension with group size k gives it to (c // k) % P.  Both are
one formula, (c // g) % P with group g = ceil(N/P) or k, so an
``OwnerMap`` holds a handful of integers per dimension, never a table.

Lowering builds each target's view from those integers, as
``MPI_Type_create_darray`` builds a file type.  From the fastest
dimension up, a distributed dimension other than the slowest becomes a
VIEW spanning one slab of it: a BLOCK of the whole turns (g units of
every P*g) and a BLOCK of the target's part of the last partial turn.
Its unit is the view of the next faster distributed dimension, or a byte
while none is; an undistributed dimension only multiplies the units
per element.  The slowest dimension tiles with period P*g units
(``round_robin_view``).  A target owning no element selects one byte
past the array.

Sizes, counts and the lowered views' periods are checked against the
64-bit range as they are formed (``guard_int64``).  Every attribute of a
lowered view is at most its period, so a lowering that passes the check
writes only integers that a descriptor may hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import DescriptorError
from .model import (
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    Distribution,
    EtypeDecl,
    Major,
    ProcessorsDecl,
    TypeDecl,
    ViewDecl,
    guard_int64,
)
from .views import round_robin_view

__all__ = [
    "OwnerMap",
    "sizeof_type",
    "compile_hpf_mapping",
    "ownermap_to_views",
]


@dataclass(frozen=True)
class OwnerMap:
    """The owner formula of one distributed array: per dimension, slowest
    first in storage order, ``(extent, group, targets, target_stride)``.
    Coordinate c goes to processor coordinate (c // group) % targets,
    which adds that times target_stride to the target index."""

    num_targets: int
    dims: tuple[tuple[int, int, int, int], ...]

    @property
    def element_count(self) -> int:
        return math.prod(n for n, _, _, _ in self.dims)

    @cached_property
    def owners(self) -> tuple[int, ...]:
        """The target of every element, in storage order, one element at
        a time; the lowering does not read it."""
        columns = [[c // g % p * s for c in range(n)] for n, g, p, s in self.dims]
        return tuple(map(sum, product(*columns)))


def sizeof_type(t: TypeDecl) -> int:
    """Storage footprint of a type tree, in bytes."""
    if isinstance(t, EtypeDecl):
        if t.length_bytes < 1:
            raise ValueError(f"element length must be >= 1, got {t.length_bytes}")
        return t.length_bytes
    if isinstance(t, CompoundDecl):
        total = 0
        for child in t.children:
            total = guard_int64(total + sizeof_type(child), "type size")
        if total < 1:
            raise ValueError("empty TYPE has no storage size")
        return total
    total = sizeof_type(t.element)
    for dim in t.dims:
        if dim.extent < 1:
            raise ValueError(f"dimension extent must be >= 1, got {dim.extent}")
        total = guard_int64(total * dim.extent, "array size")
    return total


def compile_hpf_mapping(arr: ArrayDecl, procs: ProcessorsDecl) -> OwnerMap:
    """Owner formula of a distributed array over a processor array.

    Array dimensions marked BLOCK or CYCLIC consume processor axes in
    order; NO/unmarked dimensions contribute owner coordinate 0.  Element
    indices are linearized per the array's MAJOR (ROW: last dimension
    fastest); target indices are linearized row-major over the processor
    shape.  A group is at most the extent, and is the extent over one
    target.
    """
    if arr.distribute_onto is None or arr.distribute_onto != procs.name:
        raise DescriptorError(
            f"array {arr.name or '<anonymous>'} is distributed onto "
            f"{arr.distribute_onto!r}, not {procs.name!r}"
        )
    proc_shape = procs.shape
    if not proc_shape or any(p < 1 for p in proc_shape):
        raise DescriptorError(f"processor array {procs.name!r} has an empty shape: {proc_shape}")
    extents = tuple(d.extent for d in arr.dims)
    if not extents or any(n < 1 for n in extents):
        raise DescriptorError(f"array {arr.name or '<anonymous>'} has an empty shape: {extents}")
    dist_dims = [i for i, d in enumerate(arr.dims) if d.distribute in (Distribution.BLOCK, Distribution.CYCLIC)]
    if len(dist_dims) > len(proc_shape):
        raise DescriptorError(
            f"{len(dist_dims)} distributed dimensions cannot map onto "
            f"{len(proc_shape)} processor dimensions"
        )
    guard_int64(math.prod(extents), "element count")
    dims = [(n, n, 1, 0) for n in extents]
    for axis, i in enumerate(dist_dims):
        n, p = extents[i], proc_shape[axis]
        group = -(-n // p) if arr.dims[i].distribute is Distribution.BLOCK else arr.dims[i].dist_skalar
        if group < 1:
            raise ValueError(f"DIST_SKALAR must be >= 1, got {group}")
        dims[i] = (n, n if p == 1 else min(group, n), p, math.prod(proc_shape[axis + 1 :]))
    if arr.major is Major.COLUMN:
        dims.reverse()
    return OwnerMap(math.prod(proc_shape), tuple(dims))


def ownermap_to_views(om: OwnerMap, element_bytes: int) -> list[ViewDecl]:
    """Per-target views selecting exactly the owned bytes, each built
    from the per-dimension formula with no step per element (module
    notes).  Element i occupies bytes [i*element_bytes, (i+1)*element_bytes).
    DescriptorError when a view's period exceeds INT64_MAX."""
    if element_bytes < 1:
        raise ValueError(f"element_bytes must be >= 1, got {element_bytes}")
    views = [_target_view(om.dims, t, element_bytes) for t in range(om.num_targets)]
    if not all(views):
        nothing = ViewDecl(0, 0, (BlockDecl(om.element_count * element_bytes, 1, 1, 0, ByteBlock()),))
        views = [view or nothing for view in views]
    for view in views:
        view.period  # the 64-bit check, which bounds every attribute (module notes)
    return views


def _target_view(dims: tuple[tuple[int, int, int, int], ...], target: int, element_bytes: int) -> ViewDecl | None:
    """The target's view, or None when it owns no element."""
    coords = [target // s % p if s else 0 for _, _, p, s in dims]
    if sum(d * s for d, (_, _, _, s) in zip(coords, dims)) != target:
        return None  # a coordinate on a processor axis no dimension uses
    child: ViewDecl | ByteBlock | None = ByteBlock()
    per = element_bytes  # one element of the next slower dimension is ``per`` units of child
    for (n, g, p, _), d in zip(dims[:0:-1], coords[:0:-1]):
        if p == 1:
            per *= n
        else:
            child, per = _slab_view(n * per, g * per, p, d, child), 1
            if child is None:
                return None
    _, g, p, _ = dims[0]
    return round_robin_view(coords[0], p, g * per, child)


def _slab_view(n: int, g: int, p: int, d: int, child: ViewDecl | ByteBlock) -> ViewDecl | None:
    """Coordinate d's part of a slab of n units of child, dealt in groups
    of g units over p coordinates: the whole turns, then its part of the
    last partial turn.  None when that part is empty."""
    unit = child.period
    turns, rest = divmod(n, p * g)
    blocks, end = [], 0  # end: the units laid down so far
    if turns:
        blocks.append(BlockDecl(d * g * unit, turns, g, (p - 1) * g * unit, child))
        end = ((turns - 1) * p + d + 1) * g
    last = min(g, rest - d * g)
    if last > 0:
        start = (turns * p + d) * g
        blocks.append(BlockDecl((start - end) * unit, 1, last, 0, child))
        end = start + last
    return ViewDecl(0, (n - end) * unit, tuple(blocks)) if blocks else None
