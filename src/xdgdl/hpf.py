"""Type sizes and array-distribution compilation.

Distributed dimensions are mapped onto processor-array axes positionally,
using the standard block/cyclic owner formulas: a block dimension of
extent N over P targets gives element c to target c // ceil(N/P); a
cyclic dimension with group size k gives it to (c // k) % P.  Compiled
owner tables can then be lowered to per-target views that select exactly
the owned bytes.

Owner tables are tiled from runs, with no Python step per element: per
distributed dimension, runs of ``g`` equal targets (ceil(N/P) for BLOCK,
k for CYCLIC) are cycled up to the extent, stretched by the dimension's
index stride and tiled over the table; the dimensions' tables are summed.
The cyclic group-size check compares a table with one built the same way.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from typing import Iterable

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
    owners: list[int] | tuple[int, ...] = (0,) * total
    for axis, dim_pos in enumerate(dist_dims):
        dim, n, p = arr.dims[dim_pos], extents[dim_pos], proc_shape[axis]
        group = -(-n // p) if dim.distribute is Distribution.BLOCK else dim.dist_skalar
        if group < 1:
            raise ValueError(f"DIST_SKALAR must be >= 1, got {group}")
        stride = math.prod(extents[dim_pos + 1 :] if arr.major is Major.ROW else extents[:dim_pos])
        tstride = math.prod(proc_shape[axis + 1 :])
        span = n * stride
        column = _owner_runs(range(0, p * tstride, tstride), group * stride, span) * (total // span)
        owners = column if axis == 0 else list(map(operator.add, owners, column))
    return OwnerMap(arr.name or "", math.prod(proc_shape), tuple(owners))


def _owner_runs(values: Iterable[int], run: int, length: int) -> list[int]:
    """``values``, each repeated ``run`` times, cycled and cut at ``length``."""
    one = list(islice(chain.from_iterable(map(repeat, values, repeat(run))), length))
    return (one * -(-length // len(one)))[:length]


def _cyclic_group_size(om: OwnerMap) -> int | None:
    """Group size k if owners follow (i // k) % num_targets, else None.

    Block tables always match (k = chunk size), so one periodic emission
    path covers both standard shapes.
    """
    owners = om.owners
    if not owners or owners[0] != 0:
        return None
    k = next(compress(count(), owners), len(owners))  # the first nonzero owner
    if tuple(_owner_runs(range(om.num_targets), k, len(owners))) != owners:
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
    # one pass over the table: a run ends wherever the owner changes
    owners = om.owners
    cuts = [0, *compress(count(1), map(operator.ne, owners, owners[1:])), n]
    runs: list[list[Extent]] = [[] for _ in range(om.num_targets)]
    for lo, hi in zip(cuts, cuts[1:]):
        if 0 <= owners[lo] < om.num_targets:
            runs[owners[lo]].append(Extent(lo * element_bytes, (hi - lo) * element_bytes))
    return [view_selecting(r, total) for r in runs]

