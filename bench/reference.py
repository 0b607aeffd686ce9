"""Expected outputs for the benchmark, computed without the package.

Nothing here imports ``xdgdl``: the descriptor is read with ElementTree,
the layout is painted byte by byte over one period, and reference
fragments are cut from the source with plain slicing.  Every workload's
layout is periodic from byte 0 (no device has a header), so a byte's
owner is ``pattern[i % len(pattern)]``.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET


def _period(view: ET.Element) -> int:
    total = int(view.get("SKIP"))
    for block in view.findall("BLOCK"):
        inner = block.find("VIEW")
        unit = 1 if inner is None else _period(inner)
        repeat = int(block.get("REPEAT"))
        total += int(block.get("OFFSET")) + repeat * int(block.get("COUNT")) * unit
        total += (repeat - 1) * int(block.get("STRIDE"))
    return total


def _paint(view: ET.Element, base: int, end: int, device: int, owner: list[int | None]) -> None:
    """Mark every byte of [base, end) the view selects as owned by device;
    a byte claimed twice is an error, because the layouts partition."""
    pos = base + int(view.get("SKIP_HEADER"))
    while pos < end:
        for block in view.findall("BLOCK"):
            inner = block.find("VIEW")
            unit = 1 if inner is None else _period(inner)
            repeat = int(block.get("REPEAT"))
            pos += int(block.get("OFFSET"))
            for r in range(repeat):
                take_end = pos + int(block.get("COUNT")) * unit
                if inner is None:
                    for i in range(pos, min(take_end, end)):
                        if owner[i] is not None:
                            raise ValueError(f"byte {i} painted twice")
                        owner[i] = device
                else:
                    _paint(inner, pos, min(take_end, end), device, owner)
                pos = take_end
                if r + 1 < repeat:
                    pos += int(block.get("STRIDE"))
        pos += int(view.get("SKIP"))


def pattern_from_xml(text: bytes | str) -> list[int]:
    """Owner of each byte of one layout period, devices in document order."""
    root = ET.fromstring(text)
    views = [dev.find("VIEW") for dev in root.iter("DEVICE")]
    if any(v is None or v.get("SKIP_HEADER") != "0" for v in views):
        raise ValueError("reference layouts need a VIEW without header on every device")
    period = math.lcm(*(_period(v) for v in views))
    owner: list[int | None] = [None] * period
    for device, view in enumerate(views):
        _paint(view, 0, period, device, owner)
    if None in owner:
        raise ValueError(f"byte {owner.index(None)} of the period has no owner")
    return owner


def round_robin_pattern(chunk: int, devices: int) -> list[int]:
    return [(i // chunk) % devices for i in range(chunk * devices)]


def fragments(data: bytes, pattern: list[int]) -> list[bytes]:
    """Each device's bytes in ascending offset order.

    Short periods use one extended slice per owned offset (``data[o::P]``),
    long ones one contiguous slice per owned run and period.
    """
    period, size = len(pattern), len(data)
    full = size - size % period
    out = []
    for device in range(max(pattern) + 1):
        offsets = [o for o, d in enumerate(pattern) if d == device]
        if period <= 256:
            body = bytearray(len(offsets) * (full // period))
            for j, o in enumerate(offsets):
                body[j :: len(offsets)] = data[o:full:period]
        else:
            runs = _runs(offsets)
            body = bytearray(
                b"".join(data[base + s : base + e] for base in range(0, full, period) for s, e in runs)
            )
        body += bytes(data[full + o] for o in offsets if full + o < size)
        out.append(bytes(body))
    return out


def _runs(offsets: list[int]) -> list[tuple[int, int]]:
    runs: list[list[int]] = []
    for o in offsets:
        if runs and runs[-1][1] == o:
            runs[-1][1] = o + 1
        else:
            runs.append([o, o + 1])
    return [(s, e) for s, e in runs]


def extent_count(pattern: list[int], size: int) -> int:
    """Maximal single-owner runs over [0, size), summed over devices.

    A run starts at byte 0 and wherever the owner changes; past byte 0
    that depends only on the offset within the period.
    """
    period = len(pattern)
    if size == 0:
        return 0
    starts = [pattern[o] != pattern[o - 1] for o in range(period)]  # o-1 wraps to the period end
    total = (size // period) * sum(starts) + sum(starts[: size % period])
    return total - starts[0] + 1
