import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import FIRST_DEVICE, MINIMAL_XML, TWO_SERVER_XML
from gen import random_document
from xdgdl import (
    AlignDecl,
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    DescriptorError,
    DeviceDecl,
    DimensionDecl,
    Distribution,
    Document,
    EtypeDecl,
    InvalidDocument,
    IslandDecl,
    Major,
    ParseError,
    ProcessorsDecl,
    ServerDecl,
    ValidationError,
    ViewDecl,
    parse_document,
    serialize_document,
    validate_document,
)
from xdgdl.model import _quoteattr

ROOT = Path(__file__).resolve().parent.parent


def small_doc(island=None, types=None, **kw):
    return Document(
        version=kw.pop("version", "1.0"),
        timestamp=kw.pop("timestamp", "t_0"),
        types=types if types is not None else (CompoundDecl((EtypeDecl("CHAR", 1),)),),
        island=island if island is not None else IslandDecl("isle"),
        **kw,
    )


class TestParse:
    def test_two_server_listing(self, two_server_doc):
        doc = two_server_doc
        assert doc.version == "1.0"
        assert doc.timestamp == "testfile_regular"
        assert len(doc.types) == 1
        (etype,) = doc.types[0].children
        assert etype == EtypeDecl("CHAR", 1)
        assert doc.island.name == "island1.pri.univie.ac.at"
        assert [s.host for s in doc.island.servers] == [
            "vipios.pri.univie.ac.at",
            "vipclus9.pri.univie.ac.at",
        ]
        for server in doc.island.servers:
            assert len(server.devices) == 1
            assert server.devices[0].device_id == "/dev/vda1"
        v1 = doc.island.servers[0].devices[0].view
        assert v1.skip_header == 0 and v1.skip == 7
        assert v1.blocks[0].offset == 0
        assert v1.blocks[0].repeat == 3
        assert v1.blocks[0].count == 5
        assert v1.blocks[0].stride == 7
        assert isinstance(v1.blocks[0].child, ByteBlock)

    def test_minimal_document_empty_island(self):
        doc = parse_document(MINIMAL_XML)
        assert doc.island.servers == ()
        assert len(doc.types) == 1

    def test_three_server_nests_a_view(self, three_server_doc):
        child = three_server_doc.island.servers[0].devices[0].view.blocks[0].child
        assert isinstance(child, ViewDecl)
        assert isinstance(child.blocks[0].child, ByteBlock)

    def test_bytes_and_str_inputs_agree(self):
        assert parse_document(TWO_SERVER_XML) == parse_document(TWO_SERVER_XML.encode("iso-8859-1"))

    def test_latin1_bytes_with_declaration(self):
        xml = MINIMAL_XML.replace('NAME="lonely"', 'NAME="dépôt"')
        doc = parse_document(xml.encode("iso-8859-1"))
        assert doc.island.name == "dépôt"
        assert parse_document(xml) == doc

    def test_malformed_xml_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_document("<PARSTORAGE><TYPE></PARSTORAGE>")
        assert err.value.line is not None
        assert err.value.column is not None

    def test_unknown_element_rejected(self):
        xml = MINIMAL_XML.replace("<ISLAND", "<GIZMO/><ISLAND")
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert err.value.rule == "unknown-element"

    def test_unknown_attribute_rejected(self):
        xml = MINIMAL_XML.replace('TYPE="CHAR"', 'TYPE="CHAR" COLOR="red"')
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert err.value.rule == "unknown-attribute"
        assert "COLOR" in str(err.value)

    def test_missing_required_attribute_rejected(self):
        xml = MINIMAL_XML.replace(' LENGTH="1"', "")
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert err.value.rule == "required-attribute"
        assert "LENGTH" in str(err.value)

    @pytest.mark.parametrize("seed", ["0", "5", "8", "9"])
    def test_first_missing_attribute_in_grammar_order_is_named(self, seed):
        """A bare BLOCK and a bare VIEW name the same missing attribute
        whatever the interpreter's hash seed."""
        bare_block = TWO_SERVER_XML.replace(' OFFSET="0" REPEAT="3"\n            COUNT="5" STRIDE="7"', "", 1)
        bare_view = TWO_SERVER_XML.replace(' SKIP_HEADER="0" SKIP="7"', "")
        code = (
            "import sys\n"
            "from xdgdl import ValidationError, parse_document\n"
            "for xml in sys.argv[1:]:\n"
            "    try:\n"
            "        parse_document(xml)\n"
            "    except ValidationError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, "-c", code, bare_block, bare_view]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
        view = "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]"
        assert proc.stdout.splitlines() == [
            f"[required-attribute] {view}/BLOCK[1]: BLOCK requires attribute OFFSET",
            f"[required-attribute] {view}: VIEW requires attribute SKIP_HEADER",
        ]

    def test_non_integer_attribute_names_the_attribute(self):
        xml = MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="one"')
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert err.value.rule == "bad-integer"
        assert "LENGTH" in str(err.value)

    def test_leading_plus_rejected_leading_zeros_accepted(self):
        ok = parse_document(MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="007"'))
        assert ok.types[0].children[0].length_bytes == 7
        with pytest.raises(ValidationError):
            parse_document(MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="+1"'))

    def test_negative_integers_parse(self):
        # range rules live in validation, not parsing
        xml = TWO_SERVER_XML.replace('STRIDE="7"', 'STRIDE="-7"')
        doc = parse_document(xml)
        assert doc.island.servers[0].devices[0].view.blocks[0].stride == -7

    @pytest.mark.parametrize(
        "leaf",
        [
            "/PARSTORAGE/PROCESSORS[1]/PROC_DIMENSION[1]",
            "/PARSTORAGE/TYPE[1]/ARRAY[1]/ETYPE[1]",
            "/PARSTORAGE/TYPE[1]/ARRAY[1]/DIMENSION[1]",
            "/PARSTORAGE/ALIGN[1]",
            "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/NOVIEW[1]",
            "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[2]/VIEW[1]/BLOCK[1]/BYTEBLOCK[1]",
        ],
        ids=lambda leaf: leaf.rsplit("/", 1)[1],
    )
    def test_leaves_reject_children(self, leaf):
        """A child of an element that allows none is rejected at the
        child's path, known tag or not."""
        xml = (
            MINIMAL_XML.replace("<TYPE>", '<PROCESSORS NAME="P"><PROC_DIMENSION UPPER="2"/></PROCESSORS><TYPE>')
            .replace(
                '<ETYPE TYPE="CHAR" LENGTH="1"/>',
                '<ARRAY NAME="a"><ETYPE TYPE="CHAR" LENGTH="1"/><DIMENSION UPPER="2"/></ARRAY>',
            )
            .replace(
                '<ISLAND NAME="lonely"/>',
                '<ALIGN WHAT="a" WITH="P"/><ISLAND NAME="i"><SERVER HOST="h">'
                '<DEVICE DEVICE_ID="d"><NOVIEW/></DEVICE><DEVICE DEVICE_ID="e"><VIEW SKIP_HEADER="0" SKIP="0">'
                '<BLOCK OFFSET="0" REPEAT="1" COUNT="1" STRIDE="0"><BYTEBLOCK/></BLOCK></VIEW></DEVICE>'
                "</SERVER></ISLAND>",
            )
        )
        assert validate_document(parse_document(xml)).ok
        tag = leaf.rsplit("/", 1)[1].split("[")[0]
        for child, message in (
            ("ISLAND", f"[unexpected-element] {leaf}/ISLAND[1]: ISLAND is not allowed under {tag}"),
            ("GIZMO", f"[unknown-element] {leaf}/GIZMO[1]: unknown element GIZMO"),
        ):
            root = ET.fromstring(xml.encode("iso-8859-1"))
            ET.SubElement(root.find(leaf.replace("/PARSTORAGE", ".", 1)), child, NAME="x")
            with pytest.raises(ValidationError) as err:
                parse_document(ET.tostring(root))
            assert str(err.value) == message

    def test_text_content_rejected(self):
        xml = MINIMAL_XML.replace("<ISLAND NAME=\"lonely\"/>", "<ISLAND NAME=\"lonely\">junk</ISLAND>")
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert err.value.rule == "unexpected-text"

    def test_dimension_defaults(self):
        xml = MINIMAL_XML.replace(
            '<ETYPE TYPE="CHAR" LENGTH="1"/>',
            '<ARRAY><ETYPE TYPE="CHAR" LENGTH="1"/><DIMENSION UPPER="9"/></ARRAY>',
        )
        arr = parse_document(xml).types[0].children[0]
        dim = arr.dims[0]
        assert dim == DimensionDecl(upper=9, lower=1, distribute=Distribution.UNSPECIFIED, dist_skalar=1)
        assert arr.major is Major.ROW

    @pytest.mark.parametrize("second", ['<NOVIEW NAME="x"/>', "<NOVIEW>junk</NOVIEW>", "<NOVIEW><GIZMO/></NOVIEW>", "<NOVIEW><ISLAND/></NOVIEW>"])
    def test_a_second_noview_is_refused_before_it_is_read(self, second):
        """A child its parent allows once is refused at its path before its
        own attributes, text and children are checked."""
        xml = MINIMAL_XML.replace('<ISLAND NAME="lonely"/>', f'<ISLAND NAME="i"><SERVER HOST="h"><DEVICE DEVICE_ID="d"><NOVIEW/>{second}</DEVICE></SERVER></ISLAND>')
        with pytest.raises(ValidationError) as err:
            parse_document(xml)
        assert str(err.value) == f"[device-access] {FIRST_DEVICE}/NOVIEW[2]: DEVICE allows a single NOVIEW"

    def test_comments_are_ignored(self):
        xml = MINIMAL_XML.replace("<TYPE>", "<!-- note --><TYPE>")
        assert parse_document(xml) == parse_document(MINIMAL_XML)


class TestValidate:
    def test_listing_is_clean(self, two_server_doc):
        report = validate_document(two_server_doc)
        assert report.ok
        assert report.warnings == ()

    def test_empty_island_warns_but_passes(self):
        report = validate_document(parse_document(MINIMAL_XML))
        assert report.ok
        assert [w.rule for w in report.warnings] == ["island-empty"]

    def test_view_without_blocks(self):
        doc = small_doc(
            island=IslandDecl("i", (ServerDecl("h", (DeviceDecl("d", view=ViewDecl(0, 0, ())),)),))
        )
        report = validate_document(doc)
        assert [v.rule for v in report.violations] == ["view-blocks"]

    def test_dangling_distribute_onto(self):
        doc = small_doc(
            types=(
                CompoundDecl(
                    (
                        ArrayDecl(
                            element=EtypeDecl("INT", 4),
                            dims=(DimensionDecl(upper=8),),
                            distribute_onto="ghost",
                        ),
                    )
                ),
            )
        )
        rules = [v.rule for v in validate_document(doc).violations]
        assert rules == ["unresolved-processors"]

    def test_dangling_align(self):
        doc = small_doc(aligns=(AlignDecl("nope", "alsono"),))
        rules = [v.rule for v in validate_document(doc).violations]
        assert rules == ["unresolved-align", "unresolved-align"]

    def test_align_resolves_to_type_and_processors(self):
        doc = small_doc(
            types=(CompoundDecl((EtypeDecl("CHAR", 1, name="A"),)),),
            processors=(ProcessorsDecl("P", ((1, 4),)),),
            aligns=(AlignDecl("A", "P"),),
        )
        assert validate_document(doc).ok

    def test_device_needs_exactly_one_access(self):
        neither = DeviceDecl("d")
        both = DeviceDecl("d", view=ViewDecl(0, 0, ()), noview=True)
        for dev in (neither, both):
            doc = small_doc(island=IslandDecl("i", (ServerDecl("h", (dev,)),)))
            rules = [v.rule for v in validate_document(doc).violations]
            assert "device-access" in rules

    def test_range_rules(self, two_server_doc):
        bad_view = ViewDecl(
            skip_header=-1,
            skip=0,
            blocks=(
                # repeat and count must be positive, offset and stride nonnegative
                type(two_server_doc.island.servers[0].devices[0].view.blocks[0])(
                    offset=-2, repeat=0, count=0, stride=-3, child=ByteBlock()
                ),
            ),
        )
        doc = small_doc(island=IslandDecl("i", (ServerDecl("h", (DeviceDecl("d", view=bad_view),)),)))
        rules = sorted(v.rule for v in validate_document(doc).violations)
        assert rules == sorted(
            ["nonnegative-int", "nonnegative-int", "nonnegative-int", "positive-int", "positive-int"]
        )

    def test_timestamp_id_rules(self):
        for bad in ("", "1abc", "has space", "-x"):
            report = validate_document(small_doc(timestamp=bad))
            assert [v.rule for v in report.violations] == ["timestamp-id"], bad
        for good in ("a", "_x", "t.0-1:z", "testfile_regular"):
            assert validate_document(small_doc(timestamp=good)).ok, good

    def test_types_required(self):
        report = validate_document(small_doc(types=()))
        assert [v.rule for v in report.violations] == ["parstorage-types"]

    def test_empty_type_flagged(self):
        report = validate_document(small_doc(types=(CompoundDecl(()),)))
        assert [v.rule for v in report.violations] == ["type-children"]

    def test_processors_need_dimensions(self):
        report = validate_document(small_doc(processors=(ProcessorsDecl("P", ()),)))
        assert [v.rule for v in report.violations] == ["processors-dimensions"]

    def test_dimension_range(self):
        doc = small_doc(
            types=(CompoundDecl((ArrayDecl(EtypeDecl("C", 1), (DimensionDecl(upper=1, lower=5),)),)),)
        )
        assert [v.rule for v in validate_document(doc).violations] == ["dimension-range"]

    def test_violations_carry_paths(self):
        doc = small_doc(
            island=IslandDecl("i", (ServerDecl("h", (DeviceDecl("d", view=ViewDecl(0, 0, ())),)),))
        )
        (violation,) = validate_document(doc).violations
        assert violation.path == "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]"

    def test_violation_paths_are_the_xml_paths(self):
        """Paths index siblings per tag, as XPath does: ETYPE[2] is the
        second ETYPE of a TYPE whatever sits between them, and an ARRAY's
        element is named by its own tag."""
        xml = MINIMAL_XML.replace(
            '<ETYPE TYPE="CHAR" LENGTH="1"/>',
            '<ETYPE TYPE="CHAR" LENGTH="1"/>'
            '<ARRAY><ETYPE TYPE="CHAR" LENGTH="0"/><DIMENSION UPPER="2"/></ARRAY>'
            '<ETYPE TYPE="CHAR" LENGTH="0"/>',
        )
        paths = [v.path for v in validate_document(parse_document(xml)).violations]
        assert paths == ["/PARSTORAGE/TYPE[1]/ARRAY[1]/ETYPE[1]", "/PARSTORAGE/TYPE[1]/ETYPE[2]"]
        root = ET.fromstring(xml.encode("iso-8859-1"))
        for path in paths:
            assert root.find(path.replace("/PARSTORAGE", ".", 1)).get("LENGTH") == "0", path


class TestSerialize:
    def test_listing_round_trip(self, two_server_doc):
        assert parse_document(serialize_document(two_server_doc)) == two_server_doc

    def test_declaration_and_doctype(self, two_server_doc):
        text = serialize_document(two_server_doc)
        first, second = text.splitlines()[:2]
        assert first == '<?xml version="1.0" encoding="ISO-8859-1"?>'
        assert second == '<!DOCTYPE PARSTORAGE SYSTEM "XDGDL.dtd">'

    def test_empty_island_serializes(self):
        text = serialize_document(parse_document(MINIMAL_XML))
        assert '<ISLAND NAME="lonely"' in text
        assert "<SERVER" not in text

    def test_server_without_devices_round_trips(self):
        doc = small_doc(island=IslandDecl("isle", (ServerDecl("h"),)))
        text = serialize_document(doc)
        assert '    <SERVER HOST="h"/>' in text.splitlines()
        assert parse_document(text) == doc

    def test_invalid_document_refused(self):
        doc = small_doc(types=())
        with pytest.raises(InvalidDocument):
            serialize_document(doc)

    def test_attribute_escaping_round_trips(self):
        doc = small_doc(island=IslandDecl('isle "<&>é\nx'))
        assert parse_document(serialize_document(doc)) == doc

    def test_non_ascii_is_written_as_character_references(self):
        """The text is ASCII, so it is valid under its ISO-8859-1
        declaration and the same bytes on every sink."""
        doc = small_doc(island=IslandDecl("t\u00e9\u0142"), timestamp="t\u00e9\u0142")
        text = serialize_document(doc)
        assert text.isascii()
        assert '<PARSTORAGE VERSION="1.0" TIMESTAMP="t&#233;&#322;">' in text.splitlines()
        assert '  <ISLAND NAME="t&#233;&#322;">' in text.splitlines()
        assert parse_document(text) == parse_document(text.encode("ascii")) == doc

    @pytest.mark.parametrize(
        "value, quoted",
        [
            ("plain", '"plain"'),
            ('say "hi"', "'say \"hi\"'"),
            ("it's", '"it\'s"'),
            ("it's \"both\"", '"it\'s &quot;both&quot;"'),
            ("a&b<c>d", '"a&amp;b&lt;c&gt;d"'),
            ("l1\nl2\rl3\tl4", '"l1&#10;l2&#13;l3&#9;l4"'),
            ("&amp; \"<'\n'>\"", '"&amp;amp; &quot;&lt;\'&#10;\'&gt;&quot;"'),
            ("", '""'),
        ],
    )
    def test_attribute_values_quote_as_saxutils_does(self, value, quoted):
        """The serializer's attribute quoting matches ``xml.sax.saxutils.quoteattr``."""
        from xml.sax.saxutils import quoteattr

        assert _quoteattr(value) == quoted == quoteattr(value)
        doc = small_doc(island=IslandDecl(value or "x"))
        assert f"<ISLAND NAME={_quoteattr(value or 'x')}>" in serialize_document(doc)
        assert parse_document(serialize_document(doc)) == doc

    def test_importing_the_command_line_leaves_out_urllib_request_and_http(self):
        """The serializer does not import ``xml.sax.saxutils``, which pulls
        in ``urllib.request`` and ``http.client``; ``urllib`` itself comes
        with ``pathlib`` (``urllib.parse``)."""
        code = "import sys, xdgdl.cli; print(sorted(m for m in sys.modules if m.startswith(('urllib.request', 'http', 'xml.sax'))))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "[]\n"

    # every element kind; every optional attribute present and absent; a
    # nested view, a NOVIEW device and a server with no devices
    EVERY_ELEMENT = Document(
        version="1.0",
        timestamp="t_all",
        processors=(ProcessorsDecl("P", ((1, 2), (0, 3))),),
        types=(
            CompoundDecl((EtypeDecl("CHAR", 1), EtypeDecl("INT", 4, name="i")), name="rec", typename="record"),
            CompoundDecl(
                (
                    ArrayDecl(
                        element=CompoundDecl((EtypeDecl("CHAR", 1),)),
                        dims=(DimensionDecl(4, 1, Distribution.CYCLIC, 2), DimensionDecl(3)),
                        major=Major.COLUMN,
                        distribute_onto="P",
                        name="a",
                    ),
                    ArrayDecl(element=EtypeDecl("CHAR", 2), dims=(DimensionDecl(5, 0, Distribution.NO),)),
                ),
                typename="pair",
            ),
        ),
        aligns=(AlignDecl("a", "P"),),
        island=IslandDecl(
            "isle",
            (
                ServerDecl(
                    "h1",
                    (
                        DeviceDecl(
                            "d1",
                            ViewDecl(
                                2,
                                3,
                                (
                                    BlockDecl(0, 2, 1, 4, ByteBlock()),
                                    BlockDecl(1, 1, 2, 0, ViewDecl(0, 1, (BlockDecl(0, 1, 2, 0, ByteBlock()),))),
                                ),
                            ),
                        ),
                        DeviceDecl("d2", noview=True),
                    ),
                ),
                ServerDecl("h2"),
            ),
        ),
    )
    EVERY_ELEMENT_TEXT = """\
<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE PARSTORAGE SYSTEM "XDGDL.dtd">
<PARSTORAGE VERSION="1.0" TIMESTAMP="t_all">
  <PROCESSORS NAME="P">
    <PROC_DIMENSION LOWER="1" UPPER="2"/>
    <PROC_DIMENSION LOWER="0" UPPER="3"/>
  </PROCESSORS>
  <TYPE TYPENAME="record" NAME="rec">
    <ETYPE TYPE="CHAR" LENGTH="1"/>
    <ETYPE TYPE="INT" LENGTH="4" NAME="i"/>
  </TYPE>
  <TYPE TYPENAME="pair">
    <ARRAY NAME="a" MAJOR="COLUMN" DISTRIBUTE_ONTO="P">
      <TYPE>
        <ETYPE TYPE="CHAR" LENGTH="1"/>
      </TYPE>
      <DIMENSION LOWER="1" UPPER="4" DISTRIBUTE="CYCLIC" DIST_SKALAR="2"/>
      <DIMENSION LOWER="1" UPPER="3" DIST_SKALAR="1"/>
    </ARRAY>
    <ARRAY MAJOR="ROW">
      <ETYPE TYPE="CHAR" LENGTH="2"/>
      <DIMENSION LOWER="0" UPPER="5" DISTRIBUTE="NO" DIST_SKALAR="1"/>
    </ARRAY>
  </TYPE>
  <ALIGN WHAT="a" WITH="P"/>
  <ISLAND NAME="isle">
    <SERVER HOST="h1">
      <DEVICE DEVICE_ID="d1">
        <VIEW SKIP_HEADER="2" SKIP="3">
          <BLOCK OFFSET="0" REPEAT="2" COUNT="1" STRIDE="4">
            <BYTEBLOCK/>
          </BLOCK>
          <BLOCK OFFSET="1" REPEAT="1" COUNT="2" STRIDE="0">
            <VIEW SKIP_HEADER="0" SKIP="1">
              <BLOCK OFFSET="0" REPEAT="1" COUNT="2" STRIDE="0">
                <BYTEBLOCK/>
              </BLOCK>
            </VIEW>
          </BLOCK>
        </VIEW>
      </DEVICE>
      <DEVICE DEVICE_ID="d2">
        <NOVIEW/>
      </DEVICE>
    </SERVER>
    <SERVER HOST="h2"/>
  </ISLAND>
</PARSTORAGE>
"""

    def test_canonical_text_of_every_element_kind(self):
        assert serialize_document(self.EVERY_ELEMENT) == self.EVERY_ELEMENT_TEXT
        assert parse_document(self.EVERY_ELEMENT_TEXT) == self.EVERY_ELEMENT

    def test_an_empty_island_keeps_its_close_tag(self):
        text = serialize_document(small_doc(island=IslandDecl("lonely")))
        assert text.splitlines()[-3:] == ['  <ISLAND NAME="lonely">', "  </ISLAND>", "</PARSTORAGE>"]

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    def test_a_character_xml_cannot_carry_is_refused(self, char):
        """XML 1.0 allows these neither raw nor as a character reference,
        so no text holding them reads back."""
        doc = small_doc(island=IslandDecl("isle", (ServerDecl(f"h{char}x"),)))
        assert validate_document(doc).ok
        with pytest.raises(DescriptorError, match=f"XML 1.0 cannot carry U\\+{ord(char):04X}$"):
            serialize_document(doc)

    @pytest.mark.parametrize("value", ["t\u00e9\u0142", "\u20ac\U0001f600", "\u00a0", "a\tb\nc\rd", "\x7f\x85", "\ufffd", "\U0010ffff"])
    def test_every_character_xml_can_carry_round_trips(self, value):
        doc = small_doc(island=IslandDecl(value, (ServerDecl(value),)))
        text = serialize_document(doc)
        assert text.isascii()
        assert parse_document(text) == parse_document(text.encode("ascii")) == doc

    def test_seeded_random_round_trips(self):
        rng = random.Random(20260809)
        for _ in range(100):
            doc = random_document(rng)
            assert validate_document(doc).ok
            assert parse_document(serialize_document(doc)) == doc

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        doc = random_document(random.Random(seed))
        assert parse_document(serialize_document(doc)) == doc


class TestValidationSoundness:
    """Deleting any required attribute or emptying any one-or-more child
    list from a valid document must be rejected somewhere."""

    REQUIRED = {
        "PARSTORAGE": ("VERSION", "TIMESTAMP"),
        "PROCESSORS": ("NAME",),
        "PROC_DIMENSION": ("UPPER",),
        "ETYPE": ("TYPE", "LENGTH"),
        "ALIGN": ("WHAT", "WITH"),
        "ISLAND": ("NAME",),
        "SERVER": ("HOST",),
        "DEVICE": ("DEVICE_ID",),
        "VIEW": ("SKIP_HEADER", "SKIP"),
        "BLOCK": ("OFFSET", "REPEAT", "COUNT", "STRIDE"),
    }
    # PROCESSORS/TYPE/VIEW need one-or-more children; ARRAY, BLOCK and
    # DEVICE have required child structure too (ISLAND and SERVER allow
    # empty lists, so they stay out)
    PLUS_LISTS = ("PROCESSORS", "TYPE", "VIEW", "ARRAY", "BLOCK", "DEVICE")

    @staticmethod
    def _rejected(xml: str) -> bool:
        try:
            doc = parse_document(xml)
        except (ParseError, ValidationError):
            return True
        return not validate_document(doc).ok

    def test_every_single_mutation_is_rejected(self):
        rng = random.Random(1848)
        mutations = 0
        for _ in range(60):
            doc = random_document(rng)
            text = serialize_document(doc)
            base = ET.fromstring(text.encode("iso-8859-1"))
            slots = []
            for i, elem in enumerate(base.iter()):
                for attr in self.REQUIRED.get(elem.tag, ()):
                    if attr in elem.attrib:
                        slots.append((i, "attr", attr))
                if elem.tag in self.PLUS_LISTS and len(elem):
                    slots.append((i, "children", None))
            for index, kind, attr in slots:
                tree = ET.fromstring(text.encode("iso-8859-1"))
                target = list(tree.iter())[index]
                if kind == "attr":
                    del target.attrib[attr]
                else:
                    for child in list(target):
                        target.remove(child)
                mutated = ET.tostring(tree, encoding="unicode")
                assert self._rejected(mutated), (kind, attr, target.tag)
                mutations += 1
        assert mutations > 200
