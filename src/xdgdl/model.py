"""Document model for grid data-distribution descriptors.

A descriptor is a small XML dialect: a ``PARSTORAGE`` root carries the
logical description (processor arrays, type declarations, alignments) and
the physical description (an ``ISLAND`` of servers, each with storage
devices).  Every device either holds a recursive ``VIEW``/``BLOCK``
selection pattern or an explicit ``NOVIEW`` marker.

This module owns the in-memory tree (frozen dataclasses), parsing from XML
text, validation, and canonical serialization, each one element rule over one
table.  The reader (``_read``) walks the grammar keyed by tag (``_GRAMMAR``:
attributes, child tags, node builder).  The writer (``_write``) and the
validator (``_validate``) walk one table of each node type's tag, attribute
text and children (``_ELEMENTS``).  The validator refuses what the reader
refuses, at the same rule id and path (siblings indexed per tag): an element
nested past ``MAX_DEPTH``, a child tag the grammar does not allow under its
parent, an integer past INT64_MAX in magnitude; it also runs each type's own
rules (``_RULES``).  So the contract: the text of a document that
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


def _check(elem: ET.Element, path: str) -> list[tuple[ET.Element, str]]:
    """Check an element's attributes, text and child tags against the grammar;
    return the children with their paths.  A BLOCK's child count is checked
    before its child's tag, both under ``block-child``."""
    tag = elem.tag
    optional, required, child_tags, _ = _GRAMMAR[tag]
    for attr in elem.attrib:
        if attr not in required and attr not in optional:
            raise ValidationError("unknown-attribute", path, f"unknown attribute {attr!r} on {tag}")
    for attr in required:
        if attr not in elem.attrib:
            raise ValidationError("required-attribute", path, f"{tag} requires attribute {attr}")
    if elem.text and elem.text.strip():
        raise ValidationError("unexpected-text", path, f"{tag} must not contain text")
    block = tag == "BLOCK"
    seen: dict[str, int] = {}
    children = []
    for child in elem:
        if child.tail and child.tail.strip():
            raise ValidationError("unexpected-text", path, f"{tag} must not contain text")
        cpath = _step(path, child.tag, seen)
        if child.tag not in child_tags and not block:
            if child.tag not in _GRAMMAR:
                raise ValidationError("unknown-element", cpath, f"unknown element {child.tag}")
            raise ValidationError("unexpected-element", cpath, f"{child.tag} is not allowed under {tag}")
        children.append((child, cpath))
    if block:
        if len(children) != 1:
            raise ValidationError("block-child", path, f"BLOCK requires exactly one VIEW or BYTEBLOCK child, found {len(children)}")
        ((child, cpath),) = children
        if child.tag not in child_tags:
            raise ValidationError("block-child", cpath, f"{child.tag} is not allowed under BLOCK")
    return children


def parse_size(raw: str) -> int:
    """A size or count written as ASCII digits, at most INT64_MAX, or
    ValueError: leading zeros accepted, a sign or '_' rejected."""
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError("size must be a non-negative integer")
    digits = raw.lstrip("0") or "0"
    if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:  # int() refuses more than 4300 digits
        raise ValueError(f"size must be at most {INT64_MAX}")
    return int(digits)


def guard_int64(value: int, what: str) -> int:
    """``value``, or DescriptorError when it exceeds INT64_MAX."""
    if value > INT64_MAX:
        raise DescriptorError(f"{what} exceeds the 64-bit range: {value}")
    return value


def _int_attr(elem: ET.Element, attr: str, path: str, default: int | None = None) -> int:
    """A base-10 integer attribute: an optional '-', then ``parse_size``."""
    raw = elem.get(attr)
    if raw is None:
        assert default is not None, f"required integer attribute {attr} unchecked"
        return default
    try:
        return -parse_size(raw[1:]) if raw.startswith("-") else parse_size(raw)
    except ValueError:
        raise ValidationError("bad-integer", path, f"attribute {attr} must be a base-10 integer, got {raw!r}") from None


def _enum_attr(elem: ET.Element, attr: str, path: str, default: enum.Enum, choices: tuple[str, ...]) -> enum.Enum:
    raw = elem.get(attr)
    if raw is None:
        return default
    if raw not in choices:
        raise ValidationError("bad-enum", path, f"{attr} must be {', '.join(choices[:-1])} or {choices[-1]}, got {raw!r}")
    return type(default)(raw)


def _of(nodes: list, kind) -> tuple:
    """The nodes of one kind, in document order."""
    return tuple(n for n in nodes if isinstance(n, kind))


def _document(elem: ET.Element, path: str, nodes: list) -> Document:
    islands = _of(nodes, IslandDecl)
    if len(islands) != 1:
        raise ValidationError("parstorage-structure", path, f"PARSTORAGE requires exactly one ISLAND, found {len(islands)}")
    return Document(elem.get("VERSION"), elem.get("TIMESTAMP"), _of(nodes, TypeDecl), islands[0], _of(nodes, ProcessorsDecl), _of(nodes, AlignDecl))


def _array(elem: ET.Element, path: str, nodes: list) -> ArrayDecl:
    element = _of(nodes, TypeDecl)
    if not element:
        raise ValidationError("array-structure", path, "ARRAY requires an element type child")
    major = _enum_attr(elem, "MAJOR", path, Major.ROW, ("ROW", "COLUMN"))
    return ArrayDecl(element[0], _of(nodes, DimensionDecl), major, elem.get("DISTRIBUTE_ONTO"), elem.get("NAME"))


# The grammar: tag -> (optional attributes, required ones in the order a missing one is
# named, child tags, node builder).  A builder takes the element, its path and its
# children's nodes in document order, and reads the attributes, in the order a bad one
# is named.  A processor dimension reads as a (lower, upper) pair, a NOVIEW as None.
_GRAMMAR: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], Callable[[ET.Element, str, list], Any]]] = {
    "PARSTORAGE": ((), ("VERSION", "TIMESTAMP"), ("PROCESSORS", "TYPE", "ALIGN", "ISLAND"), _document),
    "PROCESSORS": ((), ("NAME",), ("PROC_DIMENSION",), lambda e, p, nodes: ProcessorsDecl(e.get("NAME"), nodes)),
    "PROC_DIMENSION": (("LOWER",), ("UPPER",), (), lambda e, p, _: (_int_attr(e, "LOWER", p, 1), _int_attr(e, "UPPER", p))),
    "TYPE": (("TYPENAME", "NAME"), (), ("ETYPE", "ARRAY", "TYPE"), lambda e, p, nodes: CompoundDecl(nodes, e.get("NAME"), e.get("TYPENAME"))),
    "ETYPE": (("NAME",), ("TYPE", "LENGTH"), (), lambda e, p, _: EtypeDecl(e.get("TYPE"), _int_attr(e, "LENGTH", p), e.get("NAME"))),
    "ARRAY": (("NAME", "MAJOR", "DISTRIBUTE_ONTO"), (), ("DIMENSION", "ETYPE", "ARRAY", "TYPE"), _array),
    "DIMENSION": (
        ("LOWER", "DISTRIBUTE", "DIST_SKALAR"),
        ("UPPER",),
        (),
        lambda e, p, _: DimensionDecl(
            distribute=_enum_attr(e, "DISTRIBUTE", p, Distribution.UNSPECIFIED, ("BLOCK", "CYCLIC", "NO")),
            upper=_int_attr(e, "UPPER", p),
            lower=_int_attr(e, "LOWER", p, 1),
            dist_skalar=_int_attr(e, "DIST_SKALAR", p, 1),
        ),
    ),
    "ALIGN": ((), ("WHAT", "WITH"), (), lambda e, p, _: AlignDecl(e.get("WHAT"), e.get("WITH"))),
    "ISLAND": ((), ("NAME",), ("SERVER",), lambda e, p, nodes: IslandDecl(e.get("NAME"), nodes)),
    "SERVER": ((), ("HOST",), ("DEVICE",), lambda e, p, nodes: ServerDecl(e.get("HOST"), nodes)),
    "DEVICE": ((), ("DEVICE_ID",), ("VIEW", "NOVIEW"), lambda e, p, nodes: DeviceDecl(e.get("DEVICE_ID"), next(filter(None, nodes), None), None in nodes)),
    "VIEW": ((), ("SKIP_HEADER", "SKIP"), ("BLOCK",), lambda e, p, nodes: ViewDecl(_int_attr(e, "SKIP_HEADER", p), _int_attr(e, "SKIP", p), nodes)),
    "NOVIEW": ((), (), (), lambda e, p, _: None),
    "BLOCK": (
        (),
        ("OFFSET", "REPEAT", "COUNT", "STRIDE"),
        ("VIEW", "BYTEBLOCK"),
        lambda e, p, nodes: BlockDecl(_int_attr(e, "OFFSET", p), _int_attr(e, "REPEAT", p), _int_attr(e, "COUNT", p), _int_attr(e, "STRIDE", p), nodes[0]),
    ),
    "BYTEBLOCK": ((), (), (), lambda e, p, _: ByteBlock()),
}

# Child tags a parent allows once: the rule and the name a second one is refused by.
_ONCE = {
    "ARRAY": dict.fromkeys(("ETYPE", "ARRAY", "TYPE"), ("array-structure", "element type")),
    "DEVICE": {"VIEW": ("device-access", "VIEW"), "NOVIEW": ("device-access", "NOVIEW")},
}


def _read(elem: ET.Element, path: str, depth: int = 1) -> Any:
    """The element rule: refuse an element nested past MAX_DEPTH, check it
    against the grammar, read its children in document order by this rule
    (refusing a second child its parent allows once, before reading it),
    then build its node."""
    if depth > MAX_DEPTH:
        raise ValidationError("nesting-depth", path, f"{elem.tag} is nested deeper than {MAX_DEPTH} elements")
    once = _ONCE.get(elem.tag)
    seen: set[str] = set()
    nodes = []
    for child, cpath in _check(elem, path):
        if once and child.tag in once:
            rule, name = once[child.tag]
            if name in seen:
                raise ValidationError(rule, cpath, f"{elem.tag} allows a single {name}")
            seen.add(name)
        nodes.append(_read(child, cpath, depth + 1))
    return _GRAMMAR[elem.tag][3](elem, path, nodes)


# --------------------------------------------------------------------------
# validation


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
    and each node type's own rules, which ``_RULES`` lists."""

    def __init__(self, doc: Document):
        self.violations: list[Violation] = []
        self.warnings: list[Violation] = []
        self.proc_names = {p.name for p in doc.processors if p.name}
        self.names = self.proc_names.union(t.name for t in type_decls(doc) if t.name) if doc.aligns else set()

    def bad(self, rule: str, path: str, message: str) -> None:
        self.violations.append(Violation(rule, path, message))

    def warn(self, rule: str, path: str, message: str) -> None:
        self.warnings.append(Violation(rule, path, message))

    def nonempty(self, path: str, what: str, value: str) -> None:
        if not value:
            self.bad("required-nonempty", path, f"{what} must be nonempty")

    def integer(self, path: str, attr: str, value: int, least: int | None = None) -> None:
        """The one integer rule: ``bad-integer`` past INT64_MAX in magnitude, as the
        reader has it, else ``nonnegative-int`` (least 0) or ``positive-int`` (1)."""
        if abs(value) > INT64_MAX:
            self.bad("bad-integer", path, f"attribute {attr} must be a base-10 integer, got {str(value)!r}")
        elif least is not None and value < least:
            self.bad("positive-int" if least else "nonnegative-int", path, f"{attr} must be >= {least}, got {value}")

    def parstorage(self, d: Document, path: str) -> None:
        self.nonempty(path, "VERSION", d.version)
        ts = d.timestamp  # an XML ID: a letter or underscore, then letters, digits and ._-:
        if not (ts[:1].isalpha() or ts[:1] == "_") or not all(c.isalnum() or c in "._-:" for c in ts):
            self.bad("timestamp-id", path, f"TIMESTAMP must be an XML ID (letter or underscore first, no spaces), got {d.timestamp!r}")
        if not d.types:
            self.bad("parstorage-types", path, "at least one TYPE declaration is required")

    def processors(self, p: ProcessorsDecl, path: str) -> None:
        self.nonempty(path, "NAME", p.name)
        if not p.dims:
            self.bad("processors-dimensions", path, "PROCESSORS requires at least one PROC_DIMENSION")

    def bounds(self, pair: tuple[int, int], path: str) -> None:  # a PROC_DIMENSION's or DIMENSION's
        lower, upper = pair
        self.integer(path, "LOWER", lower)
        self.integer(path, "UPPER", upper)
        if lower > upper:
            self.bad("dimension-range", path, f"LOWER {lower} exceeds UPPER {upper}")

    def compound(self, t: CompoundDecl, path: str) -> None:
        if not t.children:
            self.bad("type-children", path, "TYPE requires at least one ETYPE, ARRAY or TYPE child")

    def etype(self, t: EtypeDecl, path: str) -> None:
        self.nonempty(path, "TYPE attribute", t.base)
        self.integer(path, "LENGTH", t.length_bytes, 1)

    def array(self, t: ArrayDecl, path: str) -> None:
        if not t.dims:
            self.bad("array-dimensions", path, "ARRAY requires at least one DIMENSION")
        if t.distribute_onto is not None and t.distribute_onto not in self.proc_names:
            self.bad("unresolved-processors", path, f"DISTRIBUTE_ONTO={t.distribute_onto!r} names no declared PROCESSORS")

    def dimension(self, d: DimensionDecl, path: str) -> None:
        self.bounds((d.lower, d.upper), path)
        self.integer(path, "DIST_SKALAR", d.dist_skalar, 1)
        if d.distribute is Distribution.BLOCK and d.dist_skalar != 1:
            self.warn("block-dist-skalar", path, "DIST_SKALAR has no effect on BLOCK distribution")

    def align(self, a: AlignDecl, path: str) -> None:
        for attr, value in (("WHAT", a.what), ("WITH", a.with_target)):
            self.nonempty(path, attr, value)
            if value and value not in self.names:
                self.bad("unresolved-align", path, f"{attr}={value!r} names no declared TYPE, ARRAY or PROCESSORS")

    def island(self, i: IslandDecl, path: str) -> None:
        self.nonempty(path, "NAME", i.name)
        if not i.servers:
            self.warn("island-empty", path, "island declares no servers; nothing can be placed")

    def server(self, s: ServerDecl, path: str) -> None:
        self.nonempty(path, "HOST", s.host)
        if not s.devices:
            self.warn("server-empty", path, "server declares no devices")

    def device(self, d: DeviceDecl, path: str) -> None:
        self.nonempty(path, "DEVICE_ID", d.device_id)
        if (d.view is None) == (not d.noview):
            self.bad("device-access", path, "DEVICE requires exactly one of VIEW or NOVIEW")

    def view(self, v: ViewDecl, path: str) -> None:
        self.integer(path, "SKIP_HEADER", v.skip_header, 0)
        self.integer(path, "SKIP", v.skip, 0)
        if not v.blocks:
            self.bad("view-blocks", path, "VIEW requires at least one BLOCK")

    def block(self, b: BlockDecl, path: str) -> None:
        for attr, value, least in (("OFFSET", b.offset, 0), ("STRIDE", b.stride, 0), ("REPEAT", b.repeat, 1), ("COUNT", b.count, 1)):
            self.integer(path, attr, value, least)


# Each node type's own rules; NOVIEW and BYTEBLOCK have none.
_RULES: dict[type, Callable[[_Validator, Any, str], None]] = {
    Document: _Validator.parstorage, ProcessorsDecl: _Validator.processors, tuple: _Validator.bounds, CompoundDecl: _Validator.compound,
    EtypeDecl: _Validator.etype, ArrayDecl: _Validator.array, DimensionDecl: _Validator.dimension, AlignDecl: _Validator.align,
    IslandDecl: _Validator.island, ServerDecl: _Validator.server, DeviceDecl: _Validator.device, type(None): lambda *_: None,
    ViewDecl: _Validator.view, BlockDecl: _Validator.block, ByteBlock: lambda *_: None,
}


def _validate(node: Any, path: str, depth: int, out: _Validator) -> bool:
    """The element rule of validation, over the writer's table: past MAX_DEPTH
    report ``nesting-depth`` and stop; run the node's own rules; check each
    child's tag against the grammar, at the path the reader gives it, and walk
    it; then check a view's period.  False when a period in the element
    cannot be worked out or holds a misplaced child, so that only the
    innermost such view reports one."""
    tag, _, children = _ELEMENTS[type(node)]
    if depth > MAX_DEPTH:
        out.bad("nesting-depth", path, f"{tag} is nested deeper than {MAX_DEPTH} elements")
        return False
    _RULES[type(node)](out, node, path)
    allowed = _GRAMMAR[tag][2]
    seen: dict[str, int] = {}
    sound = True
    for child in children(node):
        child_tag = _ELEMENTS[type(child)][0]
        child_path = _step(path, child_tag, seen)
        if child_tag not in allowed:
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
_DISTRIBUTE = {d: None if d is Distribution.UNSPECIFIED else d.value for d in Distribution}  # UNSPECIFIED is not written


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


def _optional(name: str, value: str | None) -> str:
    return "" if value is None else f" {name}={_quoteattr(value)}"


# Each node type's tag, attribute text and children in document order, for writer and
# validator.  A processor dimension is a (lower, upper) pair; a viewless device's None a NOVIEW.
_LEAF: Callable[[Any], tuple] = lambda _: ()
_ELEMENTS: dict[type, tuple[str, Callable[[Any], str], Callable[[Any], tuple]]] = {
    Document: ("PARSTORAGE", lambda d: f" VERSION={_quoteattr(d.version)} TIMESTAMP={_quoteattr(d.timestamp)}", lambda d: (*d.processors, *d.types, *d.aligns, d.island)),
    ProcessorsDecl: ("PROCESSORS", lambda p: f" NAME={_quoteattr(p.name)}", lambda p: p.dims),
    tuple: ("PROC_DIMENSION", lambda d: f' LOWER="{d[0]}" UPPER="{d[1]}"', _LEAF),
    CompoundDecl: ("TYPE", lambda t: f'{_optional("TYPENAME", t.typename)}{_optional("NAME", t.name)}', lambda t: t.children),
    EtypeDecl: ("ETYPE", lambda t: f' TYPE={_quoteattr(t.base)} LENGTH="{t.length_bytes}"{_optional("NAME", t.name)}', _LEAF),
    ArrayDecl: ("ARRAY", lambda t: f'{_optional("NAME", t.name)} MAJOR="{t.major.value}"{_optional("DISTRIBUTE_ONTO", t.distribute_onto)}', lambda t: (t.element, *t.dims)),
    DimensionDecl: ("DIMENSION", lambda d: f' LOWER="{d.lower}" UPPER="{d.upper}"{_optional("DISTRIBUTE", _DISTRIBUTE[d.distribute])} DIST_SKALAR="{d.dist_skalar}"', _LEAF),
    AlignDecl: ("ALIGN", lambda a: f" WHAT={_quoteattr(a.what)} WITH={_quoteattr(a.with_target)}", _LEAF),
    IslandDecl: ("ISLAND", lambda i: f" NAME={_quoteattr(i.name)}", lambda i: i.servers),
    ServerDecl: ("SERVER", lambda s: f" HOST={_quoteattr(s.host)}", lambda s: s.devices),
    DeviceDecl: ("DEVICE", lambda d: f" DEVICE_ID={_quoteattr(d.device_id)}", lambda d: (d.view,)),
    type(None): ("NOVIEW", lambda _: "", _LEAF),
    ViewDecl: ("VIEW", lambda v: f' SKIP_HEADER="{v.skip_header}" SKIP="{v.skip}"', lambda v: v.blocks),
    BlockDecl: ("BLOCK", lambda b: f' OFFSET="{b.offset}" REPEAT="{b.repeat}" COUNT="{b.count}" STRIDE="{b.stride}"', lambda b: (b.child,)),
    ByteBlock: ("BYTEBLOCK", lambda _: "", _LEAF),
}


def _write(node: object, lines: list[str], indent: str) -> None:
    """The element rule: open tag, children indented, close tag; a self-closed
    tag when there are no children, except an ISLAND's, kept as written before."""
    tag, attrs, children = _ELEMENTS[type(node)]
    if not (nodes := children(node)) and tag != "ISLAND":
        lines.append(f"{indent}<{tag}{attrs(node)}/>")
        return
    lines.append(f"{indent}<{tag}{attrs(node)}>")
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
