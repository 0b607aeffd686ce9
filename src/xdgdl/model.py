"""Document model for grid data-distribution descriptors.

A descriptor is a small XML dialect: a ``PARSTORAGE`` root carries the
logical description (processor arrays, type declarations, alignments) and
the physical description (an ``ISLAND`` of servers, each with storage
devices).  Every device either holds a recursive ``VIEW``/``BLOCK``
selection pattern or an explicit ``NOVIEW`` marker.

This module owns the in-memory tree (frozen dataclasses) and one schema of
the dialect, which parsing from XML text, validation and canonical
serialization each walk by one element rule.  The schema (``_SCHEMA``) has
one row per tag: its node type; its attributes in written order, each with
XML name, field, kind (``text``; ``name``, nonempty; ``id``, an XML ID;
``int``; or the enum members the text spells), least value, and default
or required; its child tags and its children in written order; its
builder; the children it allows once; the field that must not be empty,
with that rule's id, message and severity; and a rule that spans fields
or elements.  The reader (``_read``) checks and reads an element's
attributes in row order before its children; the validator (``_validate``)
checks the same attributes in the same order before the row's other rules
and the children; the writer (``_write``) writes them in that order.  So
the validator refuses what the reader refuses, at the same rule id and
path (siblings indexed per tag), and of several such faults it names the
reader's first: an element nested past ``MAX_DEPTH``, a child tag its row
does not allow, an integer field holding no ``int`` or one past INT64_MAX
in magnitude.  The contract: the text of a document that
``validate_document`` passes reads back equal.  The emitted ``XDGDL.dtd``
doctype reference is never fetched, so parsing stays hermetic.

It also holds the rules the other modules build descriptors by: the 64-bit
range of every integer (``INT64_MAX``, ``parse_size``, ``guard_int64``),
a view's constants as properties of its records (``ViewDecl.period``, kept
on the view and checked by validation; ``BlockDecl.take`` and ``span``),
the walk over type declarations (``type_decls``), the island of one-device
servers (``one_device_island``) and the one output text: serialization
writes ASCII, every other character as a character reference, so the text
is valid under its ISO-8859-1 declaration and the same bytes on any sink,
and refuses a character XML 1.0 cannot carry, so the text reads back.
"""

from __future__ import annotations

import enum
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator

from .errors import DescriptorError, InvalidDocument, ParseError, ValidationError

__all__ = [
    "Major",
    "Distribution",
    "EtypeDecl",
    "ArrayDecl",
    "CompoundDecl",
    "TypeDecl",
    "DimensionDecl",
    "ProcessorsDecl",
    "AlignDecl",
    "ByteBlock",
    "BlockDecl",
    "ViewDecl",
    "DeviceDecl",
    "ServerDecl",
    "IslandDecl",
    "Document",
    "Violation",
    "ValidationReport",
    "parse_document",
    "validate_document",
    "serialize_document",
]


class Major(enum.Enum):
    ROW = "ROW"
    COLUMN = "COLUMN"


class Distribution(enum.Enum):
    BLOCK = "BLOCK"
    CYCLIC = "CYCLIC"
    NO = "NO"
    UNSPECIFIED = "UNSPECIFIED"


def _freeze(obj, *names: str) -> None:
    for name in names:
        object.__setattr__(obj, name, tuple(getattr(obj, name)))


@dataclass(frozen=True)
class EtypeDecl:
    """Primitive element type: a named base type of a fixed byte length."""

    base: str
    length_bytes: int
    name: str | None = None


@dataclass(frozen=True)
class DimensionDecl:
    """One array dimension with an optional element-to-target distribution."""

    upper: int
    lower: int = 1
    distribute: Distribution = Distribution.UNSPECIFIED
    dist_skalar: int = 1

    @property
    def extent(self) -> int:
        return self.upper - self.lower + 1


@dataclass(frozen=True)
class ArrayDecl:
    """Homogeneous array of an element type over one or more dimensions."""

    element: "TypeDecl"
    dims: tuple[DimensionDecl, ...]
    major: Major = Major.ROW
    distribute_onto: str | None = None
    name: str | None = None

    def __post_init__(self):
        _freeze(self, "dims")


@dataclass(frozen=True)
class CompoundDecl:
    """A TYPE element: groups one or more child type declarations."""

    children: tuple["TypeDecl", ...]
    name: str | None = None
    typename: str | None = None

    def __post_init__(self):
        _freeze(self, "children")


TypeDecl = EtypeDecl | ArrayDecl | CompoundDecl


@dataclass(frozen=True)
class ProcessorsDecl:
    """Named processor array; dims are (lower, upper) index bounds."""

    name: str
    dims: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple((l, u) for l, u in self.dims))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l + 1 for l, u in self.dims)


@dataclass(frozen=True)
class AlignDecl:
    what: str
    with_target: str


@dataclass(frozen=True)
class ByteBlock:
    """Leaf marker: a take's unit is one raw byte, its period."""

    period = 1  # a class constant, not a field


@dataclass(frozen=True)
class BlockDecl:
    """One stanza of a view.

    Skips ``offset`` bytes, then lays down ``repeat`` takes of ``count``
    units separated by ``stride``-byte gaps (no gap after the last take).
    The unit is one byte for a ByteBlock child and one full inner period
    for a nested view child.
    """

    offset: int
    repeat: int
    count: int
    stride: int
    child: "ViewDecl | ByteBlock"

    @property
    def take(self) -> int:
        """Bytes of one take: COUNT units of the child's period."""
        return self.count * self.child.period

    @property
    def span(self) -> int:
        """Bytes of the block: OFFSET, then REPEAT takes with STRIDE bytes between them."""
        return self.offset + self.repeat * self.take + (self.repeat - 1) * self.stride


@dataclass(frozen=True)
class ViewDecl:
    """Periodic byte-selection pattern over a region.

    ``skip_header`` bytes are consumed once at the start of the region;
    ``skip`` trailing bytes are appended to every period.
    """

    skip_header: int
    skip: int
    blocks: tuple[BlockDecl, ...]

    def __post_init__(self):
        _freeze(self, "blocks")

    @cached_property
    def period(self) -> int:
        """Bytes one pattern instance spans before it repeats: the blocks'
        spans plus the trailing SKIP, without the one-time SKIP_HEADER.
        DescriptorError past INT64_MAX, and then nothing is kept."""
        return guard_int64(self.skip + sum(b.span for b in self.blocks), "view period")


@dataclass(frozen=True)
class DeviceDecl:
    """Storage device; holds a view or an explicit no-view marker."""

    device_id: str
    view: ViewDecl | None = None
    noview: bool = False


@dataclass(frozen=True)
class ServerDecl:
    host: str
    devices: tuple[DeviceDecl, ...] = ()

    def __post_init__(self):
        _freeze(self, "devices")


@dataclass(frozen=True)
class IslandDecl:
    name: str
    servers: tuple[ServerDecl, ...] = ()

    def __post_init__(self):
        _freeze(self, "servers")


def one_device_island(name: str, devices: Iterable[tuple[str, str, ViewDecl]]) -> IslandDecl:
    """An island of one-device servers, one per ``(host, device_id, view)``."""
    return IslandDecl(name, tuple(ServerDecl(host, (DeviceDecl(device_id, view),)) for host, device_id, view in devices))


@dataclass(frozen=True)
class Document:
    """Parsed descriptor: logical types plus the island placement tree."""

    version: str
    timestamp: str
    types: tuple[TypeDecl, ...]
    island: IslandDecl
    processors: tuple[ProcessorsDecl, ...] = ()
    aligns: tuple[AlignDecl, ...] = ()

    def __post_init__(self):
        _freeze(self, "types", "processors", "aligns")


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    def __post_init__(self):
        _freeze(self, "violations", "warnings")

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------------
# parsing

INT64_MAX = 2**63 - 1  # the largest integer a descriptor, configuration or size may hold
_INT64_DIGITS = len(str(INT64_MAX))
MAX_DEPTH = 256
"""The deepest an element may nest, PARSTORAGE being depth 1: 256.  A deeper
element is refused (``nesting-depth``) by reading before it is read and by
validation before it is walked, so no rule that walks the tree by recursion
comes near Python's recursion limit of 1000 frames; the deepest is a view's
period read first at its outermost VIEW, 5 frames per nested VIEW; 256
elements hold at most 125 nested VIEWs, which map unvalidated at a limit of 629."""
_DECL_ENCODING_RE = re.compile(rb"^\s*<\?xml[^>]*?encoding\s*=\s*[\"']([A-Za-z][A-Za-z0-9._-]*)[\"']")


def _as_bytes(xml_text: str | bytes) -> bytes:
    """Return parser input bytes, honoring a declared encoding on str input.

    The stock expat front end refuses unicode strings that carry an
    encoding declaration, so declared-encoding strings are re-encoded to
    the declared charset (unencodable characters become character
    references, which survive the round-trip).
    """
    if isinstance(xml_text, bytes):
        return xml_text
    m = _DECL_ENCODING_RE.match(xml_text[:200].encode("ascii", "replace"))
    return xml_text.encode(m.group(1).decode("ascii") if m else "utf-8", errors="xmlcharrefreplace")


def parse_document(xml_text: str | bytes) -> Document:
    """Parse descriptor XML into a Document.

    Raises ParseError (with line/column) for malformed XML or a declared
    encoding that cannot be read, and ValidationError for structure the
    model cannot represent: unknown or misplaced elements, an element
    nested deeper than MAX_DEPTH, unknown or missing attributes, and
    attribute values that are not base-10 integers of magnitude at most
    INT64_MAX where one is required.
    Representable rule breaks (an empty VIEW, a dangling reference, a
    negative stride) parse fine and are left for validate_document.
    """
    try:
        root = ET.fromstring(_as_bytes(xml_text))
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        message = str(exc).split(": line ")[0]  # expat repeats the position
        raise ParseError(message, line, column) from exc
    except (LookupError, ValueError) as exc:  # an encoding no codec or expat reads
        raise ParseError(f"declared encoding is unusable: {exc}", 1, 0) from None
    if root.tag != "PARSTORAGE":
        raise ValidationError("unexpected-element", f"/{root.tag}", "document root must be PARSTORAGE")
    return _read(root, "/PARSTORAGE")


def _step(parent: str, tag: str, seen: dict[str, int]) -> str:
    """Path of the next ``tag`` child of ``parent``, siblings indexed per tag."""
    n = seen[tag] = seen.get(tag, 0) + 1
    return f"{parent}/{tag}[{n}]"


def parse_size(raw: str) -> int:
    """A size or count written as ASCII digits, at most INT64_MAX, or
    ValueError: leading zeros accepted, a sign or '_' rejected."""
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError("size must be a non-negative integer")
    if len(raw) > _INT64_DIGITS:
        raw = raw.lstrip("0") or "0"  # int() refuses more than 4300 digits
    if len(raw) > _INT64_DIGITS or (value := int(raw)) > INT64_MAX:
        raise ValueError(f"size must be at most {INT64_MAX}")
    return value


def guard_int64(value: int, what: str) -> int:
    """``value``, or DescriptorError when it exceeds INT64_MAX."""
    if value > INT64_MAX:
        raise DescriptorError(f"{what} exceeds the 64-bit range: {value}")
    return value


# --------------------------------------------------------------------------
# the schema


def type_decls(doc: Document) -> Iterator[TypeDecl]:
    """Every type declaration of the document, in document order, each
    before its children (an array's child is its element type)."""
    stack = list(reversed(doc.types))
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, CompoundDecl):
            stack.extend(reversed(t.children))
        elif isinstance(t, ArrayDecl):
            stack.append(t.element)


class _Validator:
    """One walk's violations and warnings, the names a reference resolves to
    (DISTRIBUTE_ONTO a PROCESSORS NAME; ALIGN, only then collected, any NAME),
    and the rules that span fields or elements, which the rows name."""

    def __init__(self, doc: Document):
        self.violations: list[Violation] = []
        self.warnings: list[Violation] = []
        self.proc_names = {p.name for p in doc.processors if isinstance(p.name, str) and p.name}
        self.names = self.proc_names.union(t.name for t in type_decls(doc) if isinstance(t.name, str) and t.name) if doc.aligns else set()

    def bad(self, rule: str, path: str, message: str) -> None:
        self.violations.append(Violation(rule, path, message))

    def warn(self, rule: str, path: str, message: str) -> None:
        self.warnings.append(Violation(rule, path, message))

    def bounds(self, pair: tuple[int, int], path: str) -> None:  # a PROC_DIMENSION's or DIMENSION's
        lower, upper = pair
        if lower > upper:
            self.bad("dimension-range", path, f"LOWER {lower} exceeds UPPER {upper}")

    def dimension(self, d: DimensionDecl, path: str) -> None:
        self.bounds((d.lower, d.upper), path)
        if d.distribute is Distribution.BLOCK and d.dist_skalar != 1:
            self.warn("block-dist-skalar", path, "DIST_SKALAR has no effect on BLOCK distribution")

    def array(self, t: ArrayDecl, path: str) -> None:
        if t.distribute_onto is not None and t.distribute_onto not in self.proc_names:
            self.bad("unresolved-processors", path, f"DISTRIBUTE_ONTO={t.distribute_onto!r} names no declared PROCESSORS")

    def align(self, a: AlignDecl, path: str) -> None:
        for xml, _, _, _, _, get in _TYPES[AlignDecl].attrs:
            if (value := get(a)) and value not in self.names:
                self.bad("unresolved-align", path, f"{xml}={value!r} names no declared TYPE, ARRAY or PROCESSORS")

    def device(self, d: DeviceDecl, path: str) -> None:
        if (d.view is None) == (not d.noview):
            self.bad("device-access", path, "DEVICE requires exactly one of VIEW or NOVIEW")


def _of(nodes: list, kind) -> tuple:
    """The nodes of one kind, in document order."""
    return tuple(n for n in nodes if isinstance(n, kind))


def _document(values: dict, nodes: list, path: str) -> Document:
    islands = _of(nodes, IslandDecl)
    if len(islands) != 1:
        raise ValidationError("parstorage-structure", path, f"PARSTORAGE requires exactly one ISLAND, found {len(islands)}")
    return Document(types=_of(nodes, TypeDecl), island=islands[0], processors=_of(nodes, ProcessorsDecl), aligns=_of(nodes, AlignDecl), **values)


def _array(values: dict, nodes: list, path: str) -> ArrayDecl:
    element = _of(nodes, TypeDecl)
    if not element:
        raise ValidationError("array-structure", path, "ARRAY requires an element type child")
    return ArrayDecl(element[0], _of(nodes, DimensionDecl), **values)


class _Element:
    """One row of the schema (module notes).  An attribute is ``(XML name,
    field, kind, least, default)``, to which the row adds the field's getter;
    the field indexes a PROC_DIMENSION's (lower, upper) pair.  A builder
    takes the attribute values by field, the children's nodes in document
    order and the path.  ``once`` maps a child tag to the rule and the name a
    second such child is refused by; ``nonempty`` is ``(field, rule, message,
    severity)``, the severity being the ``_Validator`` method that reports it."""

    __slots__ = ("tag", "node", "attrs", "names", "child_tags", "children", "build", "once", "nonempty", "rule")

    def __init__(self, tag, node, attrs, child_tags, children, build, once=None, nonempty=None, rule=None):
        self.attrs = tuple((*a, itemgetter(a[1]) if isinstance(a[1], int) else attrgetter(a[1])) for a in attrs)
        self.names = frozenset(a[0] for a in attrs)
        self.tag, self.node, self.child_tags, self.children, self.build = tag, node, child_tags, children, build
        self.once, self.nonempty, self.rule = once or {}, nonempty, rule


def _enum(*members: enum.Enum) -> dict[str, enum.Enum]:
    """An enum kind: the members the text spells, by their text."""
    return {m.value: m for m in members}


_R = object()  # the default of a required attribute: the text must give it
_LEAF: Callable[[Any], tuple] = lambda _: ()
_SCHEMA = (
    _Element("PARSTORAGE", Document, (("VERSION", "version", "name", None, _R), ("TIMESTAMP", "timestamp", "id", None, _R)),
             ("PROCESSORS", "TYPE", "ALIGN", "ISLAND"), lambda d: (*d.processors, *d.types, *d.aligns, d.island), _document,
             nonempty=("types", "parstorage-types", "at least one TYPE declaration is required", "bad")),
    _Element("PROCESSORS", ProcessorsDecl, (("NAME", "name", "name", None, _R),), ("PROC_DIMENSION",), lambda p: p.dims,
             lambda v, nodes, _: ProcessorsDecl(dims=nodes, **v), nonempty=("dims", "processors-dimensions", "PROCESSORS requires at least one PROC_DIMENSION", "bad")),
    _Element("PROC_DIMENSION", tuple, (("LOWER", 0, "int", None, 1), ("UPPER", 1, "int", None, _R)), (), _LEAF, lambda v, *_: (v[0], v[1]), rule=_Validator.bounds),
    _Element("TYPE", CompoundDecl, (("TYPENAME", "typename", "text", None, None), ("NAME", "name", "text", None, None)), ("ETYPE", "ARRAY", "TYPE"), lambda t: t.children,
             lambda v, nodes, _: CompoundDecl(nodes, **v), nonempty=("children", "type-children", "TYPE requires at least one ETYPE, ARRAY or TYPE child", "bad")),
    _Element("ETYPE", EtypeDecl, (("TYPE", "base", "name", None, _R), ("LENGTH", "length_bytes", "int", 1, _R), ("NAME", "name", "text", None, None)), (), _LEAF,
             lambda v, *_: EtypeDecl(**v)),
    _Element("ARRAY", ArrayDecl, (("NAME", "name", "text", None, None), ("MAJOR", "major", _enum(*Major), None, Major.ROW),
                                  ("DISTRIBUTE_ONTO", "distribute_onto", "text", None, None)),
             ("DIMENSION", "ETYPE", "ARRAY", "TYPE"), lambda t: (t.element, *t.dims), _array, dict.fromkeys(("ETYPE", "ARRAY", "TYPE"), ("array-structure", "element type")),
             ("dims", "array-dimensions", "ARRAY requires at least one DIMENSION", "bad"), _Validator.array),
    _Element("DIMENSION", DimensionDecl, (("LOWER", "lower", "int", None, 1), ("UPPER", "upper", "int", None, _R),
                                          ("DISTRIBUTE", "distribute", _enum(Distribution.BLOCK, Distribution.CYCLIC, Distribution.NO), None, Distribution.UNSPECIFIED),
                                          ("DIST_SKALAR", "dist_skalar", "int", 1, 1)),
             (), _LEAF, lambda v, *_: DimensionDecl(**v), rule=_Validator.dimension),
    _Element("ALIGN", AlignDecl, (("WHAT", "what", "name", None, _R), ("WITH", "with_target", "name", None, _R)), (), _LEAF, lambda v, *_: AlignDecl(**v),
             rule=_Validator.align),
    _Element("ISLAND", IslandDecl, (("NAME", "name", "name", None, _R),), ("SERVER",), lambda i: i.servers, lambda v, nodes, _: IslandDecl(servers=nodes, **v),
             nonempty=("servers", "island-empty", "island declares no servers; nothing can be placed", "warn")),
    _Element("SERVER", ServerDecl, (("HOST", "host", "name", None, _R),), ("DEVICE",), lambda s: s.devices, lambda v, nodes, _: ServerDecl(devices=nodes, **v),
             nonempty=("devices", "server-empty", "server declares no devices", "warn")),
    _Element("DEVICE", DeviceDecl, (("DEVICE_ID", "device_id", "name", None, _R),), ("VIEW", "NOVIEW"), lambda d: (d.view,),
             lambda v, nodes, _: DeviceDecl(view=next(filter(None, nodes), None), noview=None in nodes, **v),
             {"VIEW": ("device-access", "VIEW"), "NOVIEW": ("device-access", "NOVIEW")}, rule=_Validator.device),
    _Element("VIEW", ViewDecl, (("SKIP_HEADER", "skip_header", "int", 0, _R), ("SKIP", "skip", "int", 0, _R)), ("BLOCK",), lambda v: v.blocks,
             lambda v, nodes, _: ViewDecl(blocks=nodes, **v), nonempty=("blocks", "view-blocks", "VIEW requires at least one BLOCK", "bad")),
    _Element("NOVIEW", type(None), (), (), _LEAF, lambda *_: None),
    _Element("BLOCK", BlockDecl, (("OFFSET", "offset", "int", 0, _R), ("REPEAT", "repeat", "int", 1, _R), ("COUNT", "count", "int", 1, _R),
                                  ("STRIDE", "stride", "int", 0, _R)), ("VIEW", "BYTEBLOCK"), lambda b: (b.child,), lambda v, nodes, _: BlockDecl(child=nodes[0], **v)),
    _Element("BYTEBLOCK", ByteBlock, (), (), _LEAF, lambda *_: ByteBlock()),
)
_TAGS = {row.tag: row for row in _SCHEMA}
_TYPES = {row.node: row for row in _SCHEMA}


# --------------------------------------------------------------------------
# reading


def _read(elem: ET.Element, path: str, depth: int = 1) -> Any:
    """The element rule of reading: refuse an element nested past MAX_DEPTH;
    read its attributes in row order, refusing an unknown one first, then a
    missing one or a value its kind cannot hold; refuse text; then, child by
    child in document order, refuse a tag the row does not allow (a BLOCK's
    child count first, all under ``block-child``) or a second child the row
    allows once, and read it by this rule; then build the node."""
    tag = elem.tag
    if depth > MAX_DEPTH:
        raise ValidationError("nesting-depth", path, f"{tag} is nested deeper than {MAX_DEPTH} elements")
    row = _TAGS[tag]
    attrib = elem.attrib
    if not row.names.issuperset(attrib):
        unknown = next(attr for attr in attrib if attr not in row.names)
        raise ValidationError("unknown-attribute", path, f"unknown attribute {unknown!r} on {tag}")
    values = {}
    for xml, field, kind, _, default, _ in row.attrs:
        raw = attrib.get(xml)
        if raw is None:
            if default is _R:
                raise ValidationError("required-attribute", path, f"{tag} requires attribute {xml}")
            values[field] = default
        elif kind == "int":
            try:
                values[field] = -parse_size(raw[1:]) if raw.startswith("-") else parse_size(raw)
            except ValueError:
                raise ValidationError("bad-integer", path, f"attribute {xml} must be a base-10 integer, got {raw!r}") from None
        elif type(kind) is dict:
            if raw not in kind:
                *choices, last = kind
                raise ValidationError("bad-enum", path, f"{xml} must be {', '.join(choices)} or {last}, got {raw!r}")
            values[field] = kind[raw]
        else:
            values[field] = raw
    if elem.text and elem.text.strip():
        raise ValidationError("unexpected-text", path, f"{tag} must not contain text")
    if tag == "BLOCK" and len(elem) != 1:
        raise ValidationError("block-child", path, f"BLOCK requires exactly one VIEW or BYTEBLOCK child, found {len(elem)}")
    seen: dict[str, int] = {}
    named: set[str] = set()
    nodes = []
    for child in elem:
        if child.tail and child.tail.strip():
            raise ValidationError("unexpected-text", path, f"{tag} must not contain text")
        cpath = _step(path, child.tag, seen)
        if child.tag not in row.child_tags:
            if tag != "BLOCK" and child.tag not in _TAGS:
                raise ValidationError("unknown-element", cpath, f"unknown element {child.tag}")
            raise ValidationError("block-child" if tag == "BLOCK" else "unexpected-element", cpath, f"{child.tag} is not allowed under {tag}")
        if child.tag in row.once:
            rule, name = row.once[child.tag]
            if name in named:
                raise ValidationError(rule, cpath, f"{tag} allows a single {name}")
            named.add(name)
        nodes.append(_read(child, cpath, depth + 1))
    return row.build(values, nodes, path)


# --------------------------------------------------------------------------
# validation


def _validate(node: Any, path: str, depth: int, out: _Validator) -> bool:
    """The element rule of validation: past MAX_DEPTH report ``nesting-depth``
    and stop; check the row's attributes in row order, by their kinds (an
    attribute spelled like an element, ETYPE's TYPE, is called ``TYPE
    attribute``; a text field holding no ``str``, unless an unset optional
    one, is ``bad-text``, an enum field holding no member ``bad-enum``);
    then the field that must not be empty and the row's own rule; check each
    child's tag against the row, at the path the reader gives it, and walk
    it; then check a view's period.  False, and the row's rule skipped,
    when a field holds the wrong class or a child is misplaced, so that
    only the innermost view whose period cannot be worked out reports one."""
    row = _TYPES[type(node)]
    tag = row.tag
    if depth > MAX_DEPTH:
        out.bad("nesting-depth", path, f"{tag} is nested deeper than {MAX_DEPTH} elements")
        return False
    sound = True
    for xml, _, kind, least, default, get in row.attrs:
        value = get(node)
        if kind == "int":
            if type(value) is not int or not -INT64_MAX <= value <= INT64_MAX:
                out.bad("bad-integer", path, f"attribute {xml} must be a base-10 integer, got {str(value)!r}")
                sound = sound and type(value) is int
            elif least is not None and value < least:
                out.bad("positive-int" if least else "nonnegative-int", path, f"{xml} must be >= {least}, got {value}")
        elif type(kind) is dict:
            if not isinstance(value, type(default)):
                out.bad("bad-enum", path, f"attribute {xml} must be a {type(default).__name__}, got {value!r}")
                sound = False
        elif not isinstance(value, str) and not (kind == "text" and value is None):
            out.bad("bad-text", path, f"attribute {xml} must be a str, got {value!r}")
            sound = False
        elif kind == "name" and not value:
            out.bad("required-nonempty", path, f"{xml} attribute must be nonempty" if xml in _TAGS else f"{xml} must be nonempty")
        elif kind == "id" and (not (value[:1].isalpha() or value[:1] == "_") or not all(c.isalnum() or c in "._-:" for c in value)):
            out.bad(f"{xml.lower()}-id", path, f"{xml} must be an XML ID (letter or underscore first, no spaces), got {value!r}")
    if row.nonempty and not getattr(node, row.nonempty[0]):
        _, rule, message, severity = row.nonempty
        getattr(out, severity)(rule, path, message)
    if row.rule and sound:
        row.rule(out, node, path)
    seen: dict[str, int] = {}
    for child in row.children(node):
        child_tag = _TYPES[type(child)].tag
        child_path = _step(path, child_tag, seen)
        if child_tag not in row.child_tags:
            out.bad("block-child" if tag == "BLOCK" else "unexpected-element", child_path, f"{child_tag} is not allowed under {tag}")
            sound = False  # no period above a misplaced child
        sound = _validate(child, child_path, depth + 1, out) and sound
    if sound and tag == "VIEW":
        try:
            node.period
        except DescriptorError as exc:
            out.bad("view-period", path, str(exc))
            return False
    return sound


def validate_document(doc: Document) -> ValidationReport:
    """Check every rule by one walk (module notes); violations are data, not exceptions."""
    out = _Validator(doc)
    _validate(doc, "/PARSTORAGE", 1, out)
    return ValidationReport(tuple(out.violations), tuple(out.warnings))


def require_valid(doc: Document) -> Document:
    """The document, or InvalidDocument carrying its report if it breaks a rule."""
    report = validate_document(doc)
    if not report.ok:
        raise InvalidDocument(report)
    return doc


# --------------------------------------------------------------------------
# serialization

_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})
_UNWRITABLE_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # XML 1.0 allows these in no form


def _quoteattr(value: str) -> str:
    """``value`` escaped and quoted as ``xml.sax.saxutils.quoteattr`` does,
    whose module imports ``urllib`` and ``http``: in double quotes unless
    it holds a double quote and no single one.  DescriptorError for a
    character XML 1.0 cannot carry, so the text always reads back."""
    printable = value.isprintable()  # then it holds nothing to refuse and no newline or tab to escape
    if not printable and (bad := _UNWRITABLE_RE.search(value)):
        raise DescriptorError(f"cannot write {value!r}: XML 1.0 cannot carry U+{ord(bad.group()):04X}")
    if not printable or "&" in value or "<" in value or ">" in value:
        value = value.translate(_ATTR_ESCAPES)
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"%s"' % value.replace('"', "&quot;")


def _write(node: object, lines: list[str], indent: str) -> None:
    """The element rule of writing: the open tag with the row's attributes in
    row order (an unset text or an enum member its kind does not spell, such
    as DISTRIBUTE's UNSPECIFIED, left out), the children indented, the close
    tag; a self-closed tag when there are no children, except an ISLAND's,
    kept as written before."""
    row = _TYPES[type(node)]
    tag = row.tag
    attrs = ""
    for xml, _, kind, _, _, get in row.attrs:
        value = get(node)
        if kind == "int":
            attrs += f' {xml}="{value}"'
        elif type(kind) is dict:
            if value.value in kind:
                attrs += f' {xml}="{value.value}"'
        elif value is not None:
            attrs += f" {xml}={_quoteattr(value)}"
    if not (nodes := row.children(node)) and tag != "ISLAND":
        lines.append(f"{indent}<{tag}{attrs}/>")
        return
    lines.append(f"{indent}<{tag}{attrs}>")
    inner = indent + "  "
    for child in nodes:
        _write(child, lines, inner)
    lines.append(f"{indent}</{tag}>")


def serialize_document(doc: Document) -> str:
    """Canonical XML text of a valid document, which parse_document reads back
    equal: attribute defaults written explicitly, ASCII (module notes).
    InvalidDocument otherwise, DescriptorError for a value XML 1.0 cannot carry."""
    require_valid(doc)
    lines = ['<?xml version="1.0" encoding="ISO-8859-1"?>', '<!DOCTYPE PARSTORAGE SYSTEM "XDGDL.dtd">']
    _write(doc, lines, "")
    return ("\n".join(lines) + "\n").encode("ascii", "xmlcharrefreplace").decode("ascii")
