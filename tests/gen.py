"""Seeded plain-random generators for valid descriptors.

Used where determinism and speed matter (the acceptance criteria run
thousands of cases); the hypothesis strategies in strategies.py cover the
same shapes with shrinking support.
"""

import io
import random
import string

from reference import view_selecting
from xdgdl import (
    AlignDecl,
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    DeviceDecl,
    DimensionDecl,
    Distribution,
    Document,
    EtypeDecl,
    IslandDecl,
    Major,
    ProcessorsDecl,
    ServerDecl,
    ViewDecl,
    gather,
    scatter,
)
from xdgdl.views import INT64_MAX, MapEntry, Selection

_NAME_CHARS = string.ascii_lowercase + string.digits + "._-"


def rand_name(rng: random.Random, prefix: str = "n") -> str:
    return prefix + "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 8)))


def random_view(rng: random.Random, max_depth: int = 3, pmax: int = 16) -> ViewDecl:
    """Valid view tree with parameters <= pmax and depth <= max_depth."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        if max_depth > 1 and rng.random() < 0.35:
            child = random_view(rng, max_depth - 1, pmax)
        else:
            child = ByteBlock()
        blocks.append(
            BlockDecl(
                offset=rng.randint(0, pmax),
                repeat=rng.randint(1, 4),
                count=rng.randint(1, pmax),
                stride=rng.randint(0, pmax),
                child=child,
            )
        )
    return ViewDecl(
        skip_header=rng.randint(0, pmax),
        skip=rng.randint(0, pmax),
        blocks=tuple(blocks),
    )


def random_etype(rng: random.Random, named: bool = False) -> EtypeDecl:
    return EtypeDecl(
        base=rng.choice(["CHAR", "INT", "FLOAT", "DOUBLE", "BYTE"]),
        length_bytes=rng.choice([1, 1, 2, 4, 8]),
        name=rand_name(rng, "e") if named or rng.random() < 0.3 else None,
    )


def random_type(rng: random.Random, proc_names: list[str], depth: int = 2) -> CompoundDecl:
    children = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5 or depth <= 0:
            children.append(random_etype(rng))
        elif roll < 0.8:
            dims = tuple(
                DimensionDecl(
                    upper=rng.randint(1, 12),
                    lower=rng.choice([1, 1, 0, 2]),
                    distribute=rng.choice(list(Distribution)),
                    dist_skalar=rng.randint(1, 3),
                )
                for _ in range(rng.randint(1, 2))
            )
            # keep lower <= upper
            dims = tuple(
                DimensionDecl(d.upper + abs(d.lower), d.lower, d.distribute, d.dist_skalar)
                if d.lower > d.upper
                else d
                for d in dims
            )
            children.append(
                ArrayDecl(
                    element=random_etype(rng),
                    dims=dims,
                    major=rng.choice(list(Major)),
                    distribute_onto=rng.choice(proc_names) if proc_names and rng.random() < 0.4 else None,
                    name=rand_name(rng, "a") if rng.random() < 0.5 else None,
                )
            )
        else:
            children.append(random_type(rng, proc_names, depth - 1))
    return CompoundDecl(
        children=tuple(children),
        name=rand_name(rng, "t") if rng.random() < 0.4 else None,
        typename=rand_name(rng, "ty") if rng.random() < 0.3 else None,
    )


def random_document(rng: random.Random) -> Document:
    """Valid document: parses back from its serialization unchanged."""
    processors = tuple(
        ProcessorsDecl(
            name=f"p{i}_{rand_name(rng)}",
            dims=tuple((1, rng.randint(1, 8)) for _ in range(rng.randint(1, 2))),
        )
        for i in range(rng.randint(0, 2))
    )
    proc_names = [p.name for p in processors]
    types = tuple(random_type(rng, proc_names) for _ in range(rng.randint(1, 3)))

    servers = []
    for s in range(rng.randint(0, 3)):
        devices = []
        for d in range(rng.randint(1, 2)):
            if rng.random() < 0.2:
                devices.append(DeviceDecl(device_id=f"/dev/vd{s}{d}", noview=True))
            else:
                devices.append(DeviceDecl(device_id=f"/dev/vd{s}{d}", view=random_view(rng)))
        servers.append(ServerDecl(host=f"host{s}.{rand_name(rng)}", devices=tuple(devices)))

    # aligns cite only declared names
    declared = [p.name for p in processors]

    def collect(t):
        if t.name:
            declared.append(t.name)
        if isinstance(t, CompoundDecl):
            for c in t.children:
                collect(c)
        elif isinstance(t, ArrayDecl):
            collect(t.element)

    for t in types:
        collect(t)
    aligns = ()
    if len(declared) >= 2 and rng.random() < 0.5:
        aligns = tuple(
            AlignDecl(what=rng.choice(declared), with_target=rng.choice(declared))
            for _ in range(rng.randint(1, 2))
        )

    return Document(
        version=rng.choice(["1.0", "1.1", "2"]),
        timestamp=rand_name(rng, "ts_"),
        types=types,
        island=IslandDecl(name=rand_name(rng, "isle."), servers=tuple(servers)),
        processors=processors,
        aligns=aligns,
    )


def random_partition_views(rng: random.Random, devices: int, period: int, run_max: int) -> list:
    """Views (None for NOVIEW) dealing every byte to exactly one device.

    Runs of 1..run_max bytes of one period go to random devices; each
    device's view skips, as its header, the bytes before its first run
    and then repeats the period rotated to start there, written out one
    to three times, so headers and periods are unequal and a device's
    last piece may wrap into its first.  A device dealt nothing is NOVIEW.
    """
    owner = []
    while len(owner) < period:
        owner += [rng.randrange(devices)] * rng.randint(1, run_max)
    owner = owner[:period]
    views = []
    for d in range(devices):
        if d not in owner:
            views.append(None)
            continue
        header = owner.index(d)
        rotated = (owner[header:] + owner[:header]) * rng.randint(1, 3)
        runs = []
        for i, o in enumerate(rotated):
            if o == d:
                if runs and sum(runs[-1]) == i:
                    runs[-1] = (runs[-1][0], runs[-1][1] + 1)
                else:
                    runs.append((i, 1))
        view = view_selecting(runs, len(rotated))
        views.append(ViewDecl(header, view.skip, view.blocks))
    return views


def entry_of(island: str, host: str, device_id: str, extents) -> MapEntry:
    """A hand-built map entry selecting exactly ``extents``, which must be
    sorted and disjoint (ValueError otherwise): one period longer than any
    file, merged, and clipped where the extents end."""
    selection = Selection(0, INT64_MAX, tuple(extents))
    return MapEntry(island, host, device_id, selection, max((a + n for a, n in selection.pieces), default=0))


def scatter_bytes(data: bytes, dmap) -> list[bytes]:
    """The fragments ``scatter`` writes of in-memory bytes, one
    ``io.BytesIO`` sink per map entry, in entry order."""
    sinks = [io.BytesIO() for _ in dmap.entries]
    scatter(io.BytesIO(data), dmap, sinks)
    return [sink.getvalue() for sink in sinks]


def gather_bytes(fragments: list[bytes], dmap) -> bytes:
    """The file ``gather`` rebuilds from in-memory fragments, one
    ``io.BytesIO`` source per fragment."""
    out = io.BytesIO()
    gather([io.BytesIO(f) for f in fragments], dmap, out)
    return out.getvalue()
