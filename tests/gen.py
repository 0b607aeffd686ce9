"""Seeded plain-random generators for valid descriptors.

Used where determinism and speed matter (the acceptance criteria run
thousands of cases); the hypothesis strategies in strategies.py cover the
same shapes with shrinking support.  ``random_document(rng, shapes=True)``
also draws documents the text grammar refuses (``_grammar_shape``).
"""

import dataclasses
import io
import itertools
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
from xdgdl.model import _SCHEMA, MAX_DEPTH, _write
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


def random_document(rng: random.Random, shapes: bool = False) -> Document:
    """Valid document: parses back from its serialization unchanged.  With
    ``shapes``, half of them get one shape drawn by ``_grammar_shape``
    instead; without, the draws are as they always were."""
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

    doc = Document(
        version=rng.choice(["1.0", "1.1", "2"]),
        timestamp=rand_name(rng, "ts_"),
        types=types,
        island=IslandDecl(name=rand_name(rng, "isle."), servers=tuple(servers)),
        processors=processors,
        aligns=aligns,
    )
    return _grammar_shape(rng, doc) if shapes and rng.random() < 0.5 else doc


# The integer fields of each node type, read from the schema's rows, a PROCESSORS's being
# its (LOWER, UPPER) dims; only a LOWER may be negative.
_INT_FIELDS = {ProcessorsDecl: ("dims",)} | {
    row.node: fields for row in _SCHEMA if row.node is not tuple and (fields := tuple(field for _, field, kind, *_ in row.attrs if kind == "int"))
}


def text_of(doc: Document) -> str:
    """The text the writer makes of ``doc``, valid or not."""
    lines: list[str] = []
    _write(doc, lines, "")
    return "\n".join(lines)


def _rebuild(node, edit):
    """``node`` rebuilt bottom-up, with ``edit`` applied to every declaration
    in it, in document order."""
    if isinstance(node, tuple):
        return tuple(_rebuild(n, edit) for n in node)
    if not dataclasses.is_dataclass(node):
        return node
    fields = {f.name: _rebuild(getattr(node, f.name), edit) for f in dataclasses.fields(node)}
    return edit(dataclasses.replace(node, **fields))


def _edit_one(rng: random.Random, doc: Document, kinds: tuple, change) -> Document | None:
    """``doc`` with ``change`` applied to one of its declarations of the given
    kinds, drawn at random; None when it has none."""
    found = []
    _rebuild(doc, lambda n: found.append(n) or n)
    count = sum(isinstance(n, kinds) for n in found)
    if not count:
        return None
    target, seen = rng.randrange(count), itertools.count()
    return _rebuild(doc, lambda n: change(n) if isinstance(n, kinds) and next(seen) == target else n)


def _nested_view(rng: random.Random, views: int) -> ViewDecl:
    """A view nesting ``views`` VIEWs in all around a small random one."""
    view = random_view(rng, max_depth=1)
    for _ in range(views - 1):
        view = ViewDecl(rng.randint(0, 2), rng.randint(0, 2), (BlockDecl(rng.randint(0, 2), 1, 1, rng.randint(0, 2), view),))
    return view


def _big_integer(rng: random.Random, node):
    """``node`` with one integer past the 64-bit range in magnitude: past
    -INT64_MAX for a LOWER, past INT64_MAX otherwise, so that no other rule
    of the node breaks."""
    big = rng.choice([INT64_MAX + 1, 2**64, 10**30])
    if isinstance(node, ProcessorsDecl):
        i, lower = rng.randrange(len(node.dims)), rng.random() < 0.5
        dims = list(node.dims)
        dims[i] = (-big, dims[i][1]) if lower else (dims[i][0], big)
        return dataclasses.replace(node, dims=tuple(dims))
    field = rng.choice(_INT_FIELDS[type(node)])
    return dataclasses.replace(node, **{field: -big if field == "lower" else big})


def _grammar_shape(rng: random.Random, doc: Document) -> Document:
    """``doc`` with one of three shapes a document built in code can take:
    a device view nesting 118 to 200 VIEWs (past 125 some element is deeper
    than MAX_DEPTH), a bare ETYPE or ARRAY among the top-level types, or one
    integer past the 64-bit range.  Only the first can still be valid."""
    shape = rng.choice(["deep", "bare", "integer"])
    if shape == "deep":
        view = _nested_view(rng, rng.randint((MAX_DEPTH - 20) // 2, 200))
        deep = _edit_one(rng, doc, (DeviceDecl,), lambda d: DeviceDecl(d.device_id, view))
        return deep or dataclasses.replace(doc, island=IslandDecl(doc.island.name, (ServerDecl("h", (DeviceDecl("d", view),)),)))
    if shape == "bare":
        bare = random_etype(rng) if rng.random() < 0.5 else ArrayDecl(random_etype(rng), (DimensionDecl(rng.randint(1, 9)),))
        i = rng.randint(0, len(doc.types))
        return dataclasses.replace(doc, types=(*doc.types[:i], bare, *doc.types[i:]))
    return _edit_one(rng, doc, tuple(_INT_FIELDS), lambda n: _big_integer(rng, n))


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
