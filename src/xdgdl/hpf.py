"""Type sizes and array-distribution compilation.

Distributed dimensions are mapped onto processor-array axes positionally,
using the standard block/cyclic owner formulas: a block dimension of
extent N over P targets gives element c to target c // ceil(N/P); a
cyclic dimension with group size k gives it to (c // k) % P.  Compiled
owner tables can then be lowered to per-target views that select exactly
the owned bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ArithmeticOverflow, DimensionMismatch, UnresolvedProcessors
from .model import (
    ArrayDecl,
    CompoundDecl,
    Distribution,
    EtypeDecl,
    Major,
    ProcessorsDecl,
    TypeDecl,
    ViewDecl,
)
from .views import INT64_MAX, Extent, round_robin_view, view_selecting

__all__ = [
    "SizeResult",
    "OwnerMap",
    "sizeof_type",
    "compile_hpf_mapping",
    "ownermap_to_views",
]


@dataclass(frozen=True)
class SizeResult:
    total_bytes: int
    element_bytes: int
    element_count: int


@dataclass(frozen=True)
class OwnerMap:
    """Element-index -> target table for one distributed array."""

    array_name: str
    num_targets: int
    owners: tuple[int, ...]

    def owner(self, index: int) -> int:
        return self.owners[index]

    @property
    def element_count(self) -> int:
        return len(self.owners)


def sizeof_type(t: TypeDecl) -> SizeResult:
    """Storage footprint of a type tree.

    element_bytes/element_count describe the outermost homogeneous array;
    for non-arrays the whole type counts as a single element.
    """
    if isinstance(t, EtypeDecl):
        if t.length_bytes < 1:
            raise ValueError(f"element length must be >= 1, got {t.length_bytes}")
        return SizeResult(t.length_bytes, t.length_bytes, 1)
    if isinstance(t, CompoundDecl):
        total = 0
        for child in t.children:
            total += sizeof_type(child).total_bytes
            if total > INT64_MAX:
                raise ArithmeticOverflow(f"type size exceeds the 64-bit range: {total}")
        if total < 1:
            raise ValueError("empty TYPE has no storage size")
        return SizeResult(total, total, 1)
    element = sizeof_type(t.element)
    count = 1
    for dim in t.dims:
        if dim.extent < 1:
            raise ValueError(f"dimension extent must be >= 1, got {dim.extent}")
        count *= dim.extent
        if count > INT64_MAX:
            raise ArithmeticOverflow(f"element count exceeds the 64-bit range: {count}")
    total = element.total_bytes * count
    if total > INT64_MAX:
        raise ArithmeticOverflow(f"array size exceeds the 64-bit range: {total}")
    return SizeResult(total, element.total_bytes, count)


def compile_hpf_mapping(arr: ArrayDecl, procs: ProcessorsDecl) -> OwnerMap:
    """Owner table of a distributed array over a processor array.

    Array dimensions marked BLOCK or CYCLIC consume processor axes in
    order; NO/unmarked dimensions contribute owner coordinate 0.  Element
    indices are linearized per the array's MAJOR (ROW: last dimension
    fastest); target indices are linearized row-major over the processor
    shape.
    """
    if arr.distribute_onto is None or arr.distribute_onto != procs.name:
        raise UnresolvedProcessors(
            f"array {arr.name or '<anonymous>'} is distributed onto "
            f"{arr.distribute_onto!r}, not {procs.name!r}"
        )
    proc_shape = procs.shape
    if not proc_shape or any(p < 1 for p in proc_shape):
        raise DimensionMismatch(f"processor array {procs.name!r} has an empty shape: {proc_shape}")
    extents = tuple(d.extent for d in arr.dims)
    if not extents or any(n < 1 for n in extents):
        raise DimensionMismatch(f"array {arr.name or '<anonymous>'} has an empty shape: {extents}")
    dist_dims = [i for i, d in enumerate(arr.dims) if d.distribute in (Distribution.BLOCK, Distribution.CYCLIC)]
    if len(dist_dims) > len(proc_shape):
        raise DimensionMismatch(
            f"{len(dist_dims)} distributed dimensions cannot map onto "
            f"{len(proc_shape)} processor dimensions"
        )
    for i in dist_dims:
        if arr.dims[i].distribute is Distribution.BLOCK and arr.dims[i].dist_skalar != 1:
            warnings.warn("DIST_SKALAR has no effect on BLOCK distribution", stacklevel=2)

    total = math.prod(extents)
    if total > INT64_MAX:
        raise ArithmeticOverflow(f"element count exceeds the 64-bit range: {total}")
    # element-index strides per dimension, honoring MAJOR
    strides = [1] * len(extents)
    order = range(len(extents) - 1, -1, -1) if arr.major is Major.ROW else range(len(extents))
    acc = 1
    for i in order:
        strides[i] = acc
        acc *= extents[i]
    # target strides: row-major over the processor shape
    tstrides = [1] * len(proc_shape)
    acc = 1
    for j in range(len(proc_shape) - 1, -1, -1):
        tstrides[j] = acc
        acc *= proc_shape[j]

    owners = []
    for index in range(total):
        target = 0
        for axis, dim_pos in enumerate(dist_dims):
            coord = (index // strides[dim_pos]) % extents[dim_pos]
            dim = arr.dims[dim_pos]
            p = proc_shape[axis]
            if dim.distribute is Distribution.BLOCK:
                chunk = -(-extents[dim_pos] // p)
                owner = coord // chunk
            else:
                owner = (coord // dim.dist_skalar) % p
            target += owner * tstrides[axis]
        owners.append(target)
    return OwnerMap(arr.name or "", math.prod(proc_shape), tuple(owners))


def _cyclic_group_size(om: OwnerMap) -> int | None:
    """Group size k if owners follow (i // k) % num_targets, else None.

    Block tables always match (k = chunk size), so one periodic emission
    path covers both standard shapes.
    """
    owners = om.owners
    if not owners or owners[0] != 0:
        return None
    k = len(owners)
    for i, o in enumerate(owners):
        if o != 0:
            k = i
            break
    if any(owners[i] != (i // k) % om.num_targets for i in range(len(owners))):
        return None
    return k


def ownermap_to_views(om: OwnerMap, element_bytes: int) -> list[ViewDecl]:
    """Per-target views selecting exactly the owned bytes.

    Element i occupies bytes [i*element_bytes, (i+1)*element_bytes).
    Block and cyclic tables become one-block periodic views with period
    num_targets * k * element_bytes; irregular tables fall back to a
    single-period view enumerating the owned runs.
    """
    if element_bytes < 1:
        raise ValueError(f"element_bytes must be >= 1, got {element_bytes}")
    n = om.element_count
    total = n * element_bytes
    k = _cyclic_group_size(om)
    if k is not None:
        return [round_robin_view(d, om.num_targets, k * element_bytes) for d in range(om.num_targets)]
    views = []
    for d in range(om.num_targets):
        runs: list[Extent] = []
        start = None
        for i in range(n + 1):
            owned = i < n and om.owners[i] == d
            if owned and start is None:
                start = i
            elif not owned and start is not None:
                runs.append(Extent(start * element_bytes, (i - start) * element_bytes))
                start = None
        views.append(view_selecting(runs, total))
    return views

