"""The descriptor contract: the text of a document that ``validate_document``
passes reads back equal, and a document it refuses for a shape the text
grammar refuses is reported at the rule id and path the reader gives."""

import random
from dataclasses import replace

import pytest

from descriptors import FIRST_DEVICE
from gen import _INT_FIELDS, _big_integer, _edit_one, _nested_view, random_document, text_of
from xdgdl import (
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    DeviceDecl,
    DimensionDecl,
    Document,
    EtypeDecl,
    InvalidDocument,
    IslandDecl,
    ProcessorsDecl,
    ServerDecl,
    ValidationError,
    ViewDecl,
    XdgdlError,
    build_distribution_map,
    parse_document,
    serialize_document,
    validate_document,
)
from xdgdl.model import MAX_DEPTH

BIG = 2**64


def one_view_doc(view: ViewDecl, **changes) -> Document:
    island = IslandDecl("i", (ServerDecl("h", (DeviceDecl("d", view),)),))
    doc = Document("1.0", "t", (CompoundDecl((EtypeDecl("CHAR", 1),)),), island, (ProcessorsDecl("P", ((1, 2),)),))
    return replace(doc, **changes)


def deep_view(views: int) -> ViewDecl:
    """``views`` nested VIEWs of one BLOCK taking one byte."""
    view = ByteBlock()
    for _ in range(views):
        view = ViewDecl(0, 0, (BlockDecl(0, 1, 1, 0, view),))
    return view


SHAPES = {
    "130 nested VIEWs": one_view_doc(deep_view(130)),
    "bare ETYPE": one_view_doc(deep_view(1), types=(EtypeDecl("CHAR", 1),)),
    "bare ARRAY": one_view_doc(deep_view(1), types=(ArrayDecl(EtypeDecl("CHAR", 1), (DimensionDecl(4),)),)),
    "SKIP_HEADER": one_view_doc(ViewDecl(BIG, 0, deep_view(1).blocks)),
    "ETYPE LENGTH": one_view_doc(deep_view(1), types=(CompoundDecl((EtypeDecl("CHAR", BIG),)),)),
    "DIMENSION UPPER": one_view_doc(deep_view(1), types=(CompoundDecl((ArrayDecl(EtypeDecl("CHAR", 1), (DimensionDecl(BIG),)),)),)),
    "PROC_DIMENSION UPPER": one_view_doc(deep_view(1), processors=(ProcessorsDecl("P", ((1, BIG),)),)),
    "PROC_DIMENSION LOWER": one_view_doc(deep_view(1), processors=(ProcessorsDecl("P", ((-BIG, 2),)),)),
}


@pytest.mark.parametrize("name", SHAPES)
def test_each_shape_the_reader_refuses_is_a_violation_where_the_reader_reports_it(name):
    doc = SHAPES[name]
    (violation,) = validate_document(doc).violations
    with pytest.raises(ValidationError) as err:
        parse_document(text_of(doc))
    assert str(violation) == str(err.value)
    with pytest.raises(InvalidDocument):
        serialize_document(doc)


def test_views_nested_far_past_the_depth_bound_are_reported_not_raised():
    """2,000 nested VIEWs: the walk stops at the first element past
    MAX_DEPTH, so neither it nor the period check recurses further."""
    doc = one_view_doc(deep_view(2000))
    (violation,) = validate_document(doc).violations
    assert violation.rule == "nesting-depth"
    assert violation.path == FIRST_DEVICE + "/VIEW[1]/BLOCK[1]" * 126 + "/VIEW[1]"
    assert violation.path.count("/") == MAX_DEPTH + 1
    with pytest.raises(InvalidDocument):
        serialize_document(doc)


def test_125_nested_views_are_valid_and_read_back():
    """The deepest view MAX_DEPTH allows: its BYTEBLOCK is at depth 255."""
    doc = one_view_doc(deep_view(125))
    assert validate_document(doc).ok
    assert parse_document(serialize_document(doc)) == doc


def test_array_violations_come_in_document_order():
    """An ARRAY's own rules, then its element type's, then its DIMENSIONs':
    the order the writer writes them."""
    array = ArrayDecl(EtypeDecl("", 0), (DimensionDecl(1, lower=2), DimensionDecl(3, dist_skalar=0)), distribute_onto="ghost")
    doc = one_view_doc(deep_view(1), types=(CompoundDecl((array,)),))
    at = "/PARSTORAGE/TYPE[1]/ARRAY[1]"
    assert [(v.rule, v.path) for v in validate_document(doc).violations] == [
        ("unresolved-processors", at),
        ("required-nonempty", f"{at}/ETYPE[1]"),
        ("positive-int", f"{at}/ETYPE[1]"),
        ("dimension-range", f"{at}/DIMENSION[1]"),
        ("positive-int", f"{at}/DIMENSION[2]"),
    ]


def test_a_view_period_past_the_64_bit_range_is_reported_after_its_block_integer():
    view = ViewDecl(0, 0, (BlockDecl(0, 1, BIG, 0, ByteBlock()),))
    rules = [(v.rule, v.path.rsplit("/", 1)[1]) for v in validate_document(one_view_doc(view)).violations]
    assert rules == [("bad-integer", "BLOCK[1]"), ("view-period", "VIEW[1]")]


@pytest.mark.parametrize(
    "view, rule, at",
    [
        (ViewDecl(0, 0, (BlockDecl(0, 1, 1, 0, EtypeDecl("CHAR", 1)),)), "block-child", "/BLOCK[1]/ETYPE[1]"),
        (ViewDecl(0, 0, (BlockDecl(0, 1, 1, 0, None),)), "block-child", "/BLOCK[1]/NOVIEW[1]"),
        (ViewDecl(0, 0, (ByteBlock(),)), "unexpected-element", "/BYTEBLOCK[1]"),
    ],
    ids=["ETYPE under BLOCK", "NOVIEW under BLOCK", "BYTEBLOCK under VIEW"],
)
def test_a_misplaced_child_in_a_view_is_reported_not_raised(view, rule, at):
    """A view built in code with a child the grammar refuses has no period:
    the child is reported where the reader refuses it, and no period is
    worked out above it."""
    (violation,) = validate_document(one_view_doc(view)).violations
    assert (violation.rule, violation.path) == (rule, FIRST_DEVICE + "/VIEW[1]" + at)


def test_random_documents_keep_the_contract():
    """A valid document reads back equal and maps without an error outside
    XdgdlError; an invalid one (each has one shape the grammar refuses) is
    first reported at the rule id and path the reader refuses its text at."""
    rng = random.Random(26)
    seen = {True: 0, False: 0}
    for _ in range(300):
        doc = random_document(rng, shapes=True)
        report = validate_document(doc)
        seen[report.ok] += 1
        if report.ok:
            assert parse_document(serialize_document(doc)) == doc
            try:
                build_distribution_map(doc, rng.randint(0, 400)).verdict
            except XdgdlError:
                pass
            continue
        with pytest.raises(ValidationError) as err:
            parse_document(text_of(doc))
        first = report.violations[0]
        assert (first.rule, first.path) == (err.value.rule, err.value.path)
        with pytest.raises(InvalidDocument):
            serialize_document(doc)
    assert min(seen.values()) > 50


def test_nested_views_past_125_are_deeper_than_max_depth():
    rng = random.Random(5)
    for views, ok in ((125, True), (126, False)):
        report = validate_document(one_view_doc(_nested_view(rng, views)))
        assert report.ok is ok


def first_faults(doc: Document) -> tuple[str, str]:
    """The validator's first violation and the reader's error on the writer's text."""
    with pytest.raises(ValidationError) as err:
        parse_document(text_of(doc))
    return str(validate_document(doc).violations[0]), str(err.value)


def test_of_two_out_of_range_integers_validator_and_reader_name_the_same_first():
    rng = random.Random(31)
    for _ in range(400):
        doc = random_document(rng)
        for _ in range(2):
            doc = _edit_one(rng, doc, tuple(_INT_FIELDS), lambda n: _big_integer(rng, n))
        first, read = first_faults(doc)
        assert first == read


TWO_FAULTS = {
    "BLOCK REPEAT and STRIDE": (one_view_doc(ViewDecl(0, 0, (BlockDecl(0, BIG, 1, BIG, ByteBlock()),))), FIRST_DEVICE + "/VIEW[1]/BLOCK[1]", "REPEAT"),
    "DIMENSION LOWER and UPPER": (
        one_view_doc(deep_view(1), types=(CompoundDecl((ArrayDecl(EtypeDecl("CHAR", 1), (DimensionDecl(BIG, -BIG),)),)),)),
        "/PARSTORAGE/TYPE[1]/ARRAY[1]/DIMENSION[1]",
        "LOWER",
    ),
    "VIEW SKIP_HEADER over a BLOCK COUNT": (one_view_doc(ViewDecl(BIG, 0, (BlockDecl(0, 1, BIG, 0, ByteBlock()),))), FIRST_DEVICE + "/VIEW[1]", "SKIP_HEADER"),
}


@pytest.mark.parametrize("name", TWO_FAULTS)
def test_the_first_of_two_faults_is_the_one_the_reader_names(name):
    doc, path, attr = TWO_FAULTS[name]
    first, read = first_faults(doc)
    assert first == read
    assert read.startswith(f"[bad-integer] {path}: attribute {attr} ")


@pytest.mark.parametrize(
    "doc",
    [
        one_view_doc(deep_view(1), types=(CompoundDecl((EtypeDecl("CHAR", True),)),)),
        one_view_doc(ViewDecl(0, 0, (BlockDecl(0, 1, True, 0, ByteBlock()),))),
        one_view_doc(ViewDecl(0, False, deep_view(1).blocks)),
    ],
    ids=["ETYPE LENGTH", "BLOCK COUNT", "VIEW SKIP"],
)
def test_an_integer_field_holding_a_bool_is_refused_as_the_reader_refuses_its_text(doc):
    (violation,) = validate_document(doc).violations
    assert violation.rule == "bad-integer"
    assert violation.message.endswith(("got 'True'", "got 'False'"))
    assert first_faults(doc) == (str(violation), str(violation))
    with pytest.raises(InvalidDocument):
        serialize_document(doc)


def test_an_integer_field_holding_a_string_is_reported_not_raised():
    """Its text would read, but the field holds no int: ``bad-integer``, and
    no rule or period that would compute with it runs."""
    view = ViewDecl(0, 0, (BlockDecl(0, "2", 1, 0, ByteBlock()),))
    (violation,) = validate_document(one_view_doc(view)).violations
    assert str(violation) == f"[bad-integer] {FIRST_DEVICE}/VIEW[1]/BLOCK[1]: attribute REPEAT must be a base-10 integer, got '2'"


def test_an_enum_field_holding_its_text_is_a_violation_and_not_written():
    """``MAJOR="ROW"`` is the text, not the ``Major`` member: ``bad-enum``."""
    array = ArrayDecl(EtypeDecl("CHAR", 1), (DimensionDecl(4),), major="ROW")
    doc = one_view_doc(deep_view(1), types=(CompoundDecl((array,)),))
    (violation,) = validate_document(doc).violations
    assert str(violation) == "[bad-enum] /PARSTORAGE/TYPE[1]/ARRAY[1]: attribute MAJOR must be a Major, got 'ROW'"
    with pytest.raises(InvalidDocument):
        serialize_document(doc)


def test_a_name_field_holding_no_str_is_a_violation_and_not_written():
    """``HOST=5`` would be written as no text can say: ``bad-text``."""
    doc = one_view_doc(deep_view(1), island=IslandDecl("i", (ServerDecl(5, ()),)))
    (violation,) = validate_document(doc).violations
    assert str(violation) == "[bad-text] /PARSTORAGE/ISLAND[1]/SERVER[1]: attribute HOST must be a str, got 5"
    with pytest.raises(InvalidDocument):
        serialize_document(doc)


@pytest.mark.parametrize(
    "doc, path, attr",
    [
        (one_view_doc(deep_view(1), processors=(ProcessorsDecl(["P"], ((1, 2),)),)), "/PARSTORAGE/PROCESSORS[1]", "NAME"),
        (one_view_doc(deep_view(1), timestamp=None), "/PARSTORAGE", "TIMESTAMP"),
        (one_view_doc(deep_view(1), types=(CompoundDecl((ArrayDecl(EtypeDecl("CHAR", 1), (DimensionDecl(4),), distribute_onto=7),)),)),
         "/PARSTORAGE/TYPE[1]/ARRAY[1]", "DISTRIBUTE_ONTO"),
    ],
    ids=["name-unhashable", "id-unset", "text-int"],
)
def test_a_text_field_of_any_kind_holding_no_str_is_bad_text_alone(doc, path, attr):
    """No rule that would look the value up runs on it (an unset optional
    text, such as an ARRAY's NAME here, stays valid)."""
    (violation,) = validate_document(doc).violations
    assert (violation.rule, violation.path) == ("bad-text", path)
    assert violation.message.startswith(f"attribute {attr} must be a str, got ")
    with pytest.raises(InvalidDocument):
        serialize_document(doc)
