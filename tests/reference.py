"""Straight-line reference implementations the suite checks the package
against.

These deliberately share no code with the package: the byte painter below
walks the selection rules literally, marking coverage counts into a
bytearray, and the period is derived from the same walk; the HPF owner
table is computed one element at a time from the owner formulas.  Slow
and dumb on purpose.
"""

import math

from xdgdl import ArrayDecl, ByteBlock, Distribution, Major, ViewDecl


def naive_period(view: ViewDecl) -> int:
    cursor = 0
    for block in view.blocks:
        cursor += block.offset
        unit = 1 if isinstance(block.child, ByteBlock) else naive_period(block.child)
        for r in range(block.repeat):
            cursor += block.count * unit
            if r + 1 < block.repeat:
                cursor += block.stride
    return cursor + view.skip


def naive_coverage(view: ViewDecl, region: int) -> bytearray:
    """coverage[i] = how many times the view selects byte i of [0, region)."""
    coverage = bytearray(region)
    _mark(view, 0, region, coverage)
    return coverage


def _mark(view: ViewDecl, base: int, end: int, coverage: bytearray) -> None:
    pos = base + view.skip_header
    while pos < end:
        for block in view.blocks:
            pos += block.offset
            unit = 1 if isinstance(block.child, ByteBlock) else naive_period(block.child)
            for r in range(block.repeat):
                take_end = pos + block.count * unit
                if isinstance(block.child, ByteBlock):
                    for i in range(pos, min(take_end, end)):
                        coverage[i] += 1
                else:
                    _mark(block.child, pos, min(take_end, end), coverage)
                pos = take_end
                if r + 1 < block.repeat:
                    pos += block.stride
        pos += view.skip


def painted_runs(coverage) -> list[tuple[int, int]]:
    """Maximal ``(start, length)`` runs of the bytes a coverage claims."""
    runs: list[list[int]] = []
    for i, c in enumerate(coverage):
        if c:
            if runs and runs[-1][0] + runs[-1][1] == i:
                runs[-1][1] += 1
            else:
                runs.append([i, 1])
    return [(s, n) for s, n in runs]


def naive_owners(arr: ArrayDecl, shape: tuple[int, ...]) -> list[int]:
    """Owner of every element of a distributed array, one element at a
    time: BLOCK and CYCLIC dimensions take processor axes in order; an
    element's coordinate c along a BLOCK dimension of extent N over P
    targets owns c // ceil(N/P), along a CYCLIC one with DIST_SKALAR k
    (c // k) % P; elements are numbered per MAJOR (ROW: last dimension
    fastest) and targets row-major over the processor shape."""
    extents = [d.extent for d in arr.dims]
    order = list(range(len(extents)))
    if arr.major is Major.ROW:
        order.reverse()
    distributed = [i for i, d in enumerate(arr.dims) if d.distribute in (Distribution.BLOCK, Distribution.CYCLIC)]
    owners = []
    for index in range(math.prod(extents)):
        coords = [0] * len(extents)
        rest = index
        for i in order:
            rest, coords[i] = divmod(rest, extents[i])
        target = 0
        for axis, i in enumerate(distributed):
            p = shape[axis]
            if arr.dims[i].distribute is Distribution.BLOCK:
                owner = coords[i] // -(-extents[i] // p)
            else:
                owner = (coords[i] // arr.dims[i].dist_skalar) % p
            target = target * p + owner
        for p in shape[len(distributed) :]:
            target *= p
        owners.append(target)
    return owners


def naive_group_size(owners, targets: int):
    """k if owner i is (i // k) % targets for every i, else None."""
    if not owners or owners[0] != 0:
        return None
    k = next((i for i, o in enumerate(owners) if o != 0), len(owners))
    if all(o == (i // k) % targets for i, o in enumerate(owners)):
        return k
    return None
