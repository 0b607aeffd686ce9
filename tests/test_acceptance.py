"""Acceptance criteria for the toolkit, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; a pytest failure on any test is that criterion's FAIL.
"""

import random
from fractions import Fraction

import pytest

from descriptors import (
    CONFIG_TEMPLATE,
    MINIMAL_XML,
    THREE_SERVER_BALANCED_XML,
    THREE_SERVER_XML,
    TWO_SERVER_XML,
)
from gen import entry_of, gather_bytes, random_document, random_view, scatter_bytes
from xdgdl import (
    ParseError,
    PartitionStatus,
    ValidationError,
    build_distribution_map,
    check_partition,
    compile_hpf_mapping,
    enumerate_extents,
    member_oracle,
    ownermap_to_views,
    parse_document,
    serialize_document,
    validate_document,
)
from xdgdl import ArrayDecl, DimensionDecl, Distribution, EtypeDecl, ProcessorsDecl
from xdgdl import DistributionMap
from xdgdl.cli import main as cli_main


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_period_cross_check(two_server_doc):
    """Both two-server views share period 36; per-period bytes split 5:7."""
    view1, view2 = (s.devices[0].view for s in two_server_doc.island.servers)
    periods = (view1.period, view2.period)
    assert periods == (36, 36)
    bytes_per_period = tuple(e.selection.per_period for e in build_distribution_map(two_server_doc, 0).entries)
    assert bytes_per_period == (15, 21)
    assert Fraction(*bytes_per_period) == Fraction(5, 7)
    report(
        "criterion 1 PASS: two-server periods "
        f"{periods[0]}/{periods[1]}, per-period bytes {bytes_per_period[0]}:{bytes_per_period[1]} = 5:7"
    )


def test_criterion_2_two_server_round_trip(two_server_doc):
    """72-byte and 75-byte (mid-period) files partition exactly and round-trip."""
    rng = random.Random(2026)
    for size in (72, 75):
        dmap = build_distribution_map(two_server_doc, size)
        verdict = check_partition(dmap)
        assert verdict.status is PartitionStatus.EXACT_PARTITION, size
        data = rng.randbytes(size)
        assert gather_bytes(scatter_bytes(data, dmap), dmap) == data, size
    report("criterion 2 PASS: two-server scatter/gather identity at 72 and 75 bytes, both exact partitions")


def test_criterion_3_nested_three_server(three_server_doc, balanced_doc):
    """Nested descriptor: servers 1 and 3 at period 82, server 3 extents
    [29,41)+[70,82); the descriptor as printed is not a partition, the
    balanced variant is and round-trips."""
    views = [s.devices[0].view for s in three_server_doc.island.servers]
    assert views[0].period == 82
    assert views[2].period == 82
    assert enumerate_extents(views[2], 82) == ((29, 12), (70, 12))

    printed = check_partition(build_distribution_map(three_server_doc, 82))
    assert printed.status is not PartitionStatus.EXACT_PARTITION
    assert next(printed.gaps, None) and next(printed.overlaps, None)

    dmap = build_distribution_map(balanced_doc, 82)
    assert check_partition(dmap).status is PartitionStatus.EXACT_PARTITION
    data = random.Random(3).randbytes(82)
    assert gather_bytes(scatter_bytes(data, dmap), dmap) == data
    report(
        "criterion 3 PASS: periods 82/82, server-3 extents 29:12+70:12, "
        f"printed descriptor -> {printed.status.value}, balanced variant exact and round-trips"
    )


def test_criterion_4_oracle_equivalence():
    """1000 random view trees (depth <= 3, parameters <= 16): per-byte
    membership agrees with enumeration over 4096-byte regions."""
    rng = random.Random(0xD15C)
    trees = 1000
    region = 4096
    checked = 0
    for _ in range(trees):
        view = random_view(rng, max_depth=3, pmax=16)
        covered = bytearray(region)
        for start, length in enumerate_extents(view, region):
            covered[start : start + length] = b"\x01" * length
        for i in range(region):
            if member_oracle(view, i) != bool(covered[i]):
                pytest.fail(f"oracle mismatch at byte {i} of view {view}")
        checked += region
    report(f"criterion 4 PASS: {trees} view trees, {checked} byte memberships, 0 mismatches")


def _rejections(xml: str) -> set[str]:
    """Diagnostics that reject the text, at parse time or validation time."""
    try:
        doc = parse_document(xml)
    except (ParseError, ValidationError) as exc:
        return {str(exc)}
    return {str(v) for v in validate_document(doc).violations}


_ETYPE = '<ETYPE TYPE="CHAR" LENGTH="1"/>'
_ARRAY = f'<ARRAY>{_ETYPE}<DIMENSION UPPER="4"/></ARRAY>'
_NAMED = MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="1" NAME="a"')
_DEVICE = "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]"
_BLOCK = f"{_DEVICE}/VIEW[1]/BLOCK[1]"

# (label, descriptor text, the full diagnostic it must be rejected with)
MUTATIONS = [
    (
        "drop SERVER HOST",
        TWO_SERVER_XML.replace(' HOST="vipios.pri.univie.ac.at"', "", 1),
        "[required-attribute] /PARSTORAGE/ISLAND[1]/SERVER[1]: SERVER requires attribute HOST",
    ),
    (
        "drop BLOCK from VIEW",
        TWO_SERVER_XML.replace(
            '<BLOCK OFFSET="0" REPEAT="3"\n            COUNT="5" STRIDE="7">\n            <BYTEBLOCK/>\n          </BLOCK>\n        ',
            "",
        ),
        f"[view-blocks] {_DEVICE}/VIEW[1]: VIEW requires at least one BLOCK",
    ),
    (
        "drop ETYPE from TYPE",
        TWO_SERVER_XML.replace(_ETYPE, ""),
        "[type-children] /PARSTORAGE/TYPE[1]: TYPE requires at least one ETYPE, ARRAY or TYPE child",
    ),
    (
        "negative STRIDE",
        TWO_SERVER_XML.replace('STRIDE="7"', 'STRIDE="-7"'),
        f"[nonnegative-int] {_BLOCK}: STRIDE must be >= 0, got -7",
    ),
    ("zero REPEAT", TWO_SERVER_XML.replace('REPEAT="3"', 'REPEAT="0"', 1), f"[positive-int] {_BLOCK}: REPEAT must be >= 1, got 0"),
    (
        "drop VERSION",
        TWO_SERVER_XML.replace('VERSION="1.0"\n    ', ""),
        "[required-attribute] /PARSTORAGE: PARSTORAGE requires attribute VERSION",
    ),
    (
        "drop TIMESTAMP",
        TWO_SERVER_XML.replace('\n    TIMESTAMP="testfile_regular"', ""),
        "[required-attribute] /PARSTORAGE: PARSTORAGE requires attribute TIMESTAMP",
    ),
    (
        "non-ID TIMESTAMP",
        TWO_SERVER_XML.replace('TIMESTAMP="testfile_regular"', 'TIMESTAMP="1 bad id"'),
        "[timestamp-id] /PARSTORAGE: TIMESTAMP must be an XML ID (letter or underscore first, no spaces), got '1 bad id'",
    ),
    (
        "DEVICE without VIEW or NOVIEW",
        MINIMAL_XML.replace(
            '<ISLAND NAME="lonely"/>',
            '<ISLAND NAME="lonely"><SERVER HOST="h"><DEVICE DEVICE_ID="/dev/x"></DEVICE></SERVER></ISLAND>',
        ),
        f"[device-access] {_DEVICE}: DEVICE requires exactly one of VIEW or NOVIEW",
    ),
    (
        "DEVICE with VIEW and NOVIEW",
        TWO_SERVER_XML.replace("</VIEW>\n      </DEVICE>", "</VIEW>\n      <NOVIEW/>\n      </DEVICE>", 1),
        f"[device-access] {_DEVICE}: DEVICE requires exactly one of VIEW or NOVIEW",
    ),
    (
        "unknown element",
        MINIMAL_XML.replace("<ISLAND", "<GIZMO/><ISLAND"),
        "[unknown-element] /PARSTORAGE/GIZMO[1]: unknown element GIZMO",
    ),
    (
        "unknown attribute",
        MINIMAL_XML.replace('TYPE="CHAR"', 'TYPE="CHAR" COLOR="red"'),
        "[unknown-attribute] /PARSTORAGE/TYPE[1]/ETYPE[1]: unknown attribute 'COLOR' on ETYPE",
    ),
    (
        "non-integer LENGTH",
        MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="abc"'),
        "[bad-integer] /PARSTORAGE/TYPE[1]/ETYPE[1]: attribute LENGTH must be a base-10 integer, got 'abc'",
    ),
    (
        "leading-plus COUNT",
        TWO_SERVER_XML.replace('COUNT="5"', 'COUNT="+5"'),
        f"[bad-integer] {_BLOCK}: attribute COUNT must be a base-10 integer, got '+5'",
    ),
    (
        "PROCESSORS without dimensions",
        MINIMAL_XML.replace("<TYPE>", '<PROCESSORS NAME="P"></PROCESSORS><TYPE>'),
        "[processors-dimensions] /PARSTORAGE/PROCESSORS[1]: PROCESSORS requires at least one PROC_DIMENSION",
    ),
    (
        "dangling DISTRIBUTE_ONTO",
        MINIMAL_XML.replace(_ETYPE, _ARRAY.replace("<ARRAY>", '<ARRAY DISTRIBUTE_ONTO="ghost">')),
        "[unresolved-processors] /PARSTORAGE/TYPE[1]/ARRAY[1]: DISTRIBUTE_ONTO='ghost' names no declared PROCESSORS",
    ),
    (
        "dangling ALIGN",
        MINIMAL_XML.replace("<ISLAND", '<ALIGN WHAT="a" WITH="b"/><ISLAND'),
        "[unresolved-align] /PARSTORAGE/ALIGN[1]: WITH='b' names no declared TYPE, ARRAY or PROCESSORS",
    ),
    # parse time
    (
        "unknown encoding",
        MINIMAL_XML.replace("ISO-8859-1", "NO-SUCH-CODEC"),
        "declared encoding is unusable: unknown encoding: NO-SUCH-CODEC (line 1, column 0)",
    ),
    ("root is not PARSTORAGE", '<SERVER HOST="h"/>', "[unexpected-element] /SERVER: document root must be PARSTORAGE"),
    (
        "no ISLAND",
        MINIMAL_XML.replace('<ISLAND NAME="lonely"/>', ""),
        "[parstorage-structure] /PARSTORAGE: PARSTORAGE requires exactly one ISLAND, found 0",
    ),
    (
        "two ISLANDs",
        MINIMAL_XML.replace('<ISLAND NAME="lonely"/>', '<ISLAND NAME="a"/><ISLAND NAME="b"/>'),
        "[parstorage-structure] /PARSTORAGE: PARSTORAGE requires exactly one ISLAND, found 2",
    ),
    (
        "unknown DISTRIBUTE",
        MINIMAL_XML.replace(_ETYPE, _ARRAY.replace('UPPER="4"', 'UPPER="4" DISTRIBUTE="SPIRAL"')),
        "[bad-enum] /PARSTORAGE/TYPE[1]/ARRAY[1]/DIMENSION[1]: DISTRIBUTE must be BLOCK, CYCLIC or NO, got 'SPIRAL'",
    ),
    (
        "unknown MAJOR",
        MINIMAL_XML.replace(_ETYPE, _ARRAY.replace("<ARRAY>", '<ARRAY MAJOR="DIAGONAL">')),
        "[bad-enum] /PARSTORAGE/TYPE[1]/ARRAY[1]: MAJOR must be ROW or COLUMN, got 'DIAGONAL'",
    ),
    (
        "ARRAY with two element types",
        MINIMAL_XML.replace(_ETYPE, _ARRAY.replace("<DIMENSION", f"<TYPE>{_ETYPE}</TYPE><DIMENSION")),
        "[array-structure] /PARSTORAGE/TYPE[1]/ARRAY[1]/TYPE[1]: ARRAY allows a single element type",
    ),
    (
        "ARRAY without an element type",
        MINIMAL_XML.replace(_ETYPE, '<ARRAY><DIMENSION UPPER="4"/></ARRAY>'),
        "[array-structure] /PARSTORAGE/TYPE[1]/ARRAY[1]: ARRAY requires an element type child",
    ),
    (
        "DEVICE with two VIEWs",
        TWO_SERVER_XML.replace("</VIEW>\n      </DEVICE>", '</VIEW><VIEW SKIP_HEADER="0" SKIP="0"/></DEVICE>', 1),
        f"[device-access] {_DEVICE}/VIEW[2]: DEVICE allows a single VIEW",
    ),
    (
        "DEVICE with two NOVIEWs",
        MINIMAL_XML.replace(
            '<ISLAND NAME="lonely"/>',
            '<ISLAND NAME="i"><SERVER HOST="h"><DEVICE DEVICE_ID="d"><NOVIEW/><NOVIEW/></DEVICE></SERVER></ISLAND>',
        ),
        f"[device-access] {_DEVICE}/NOVIEW[2]: DEVICE allows a single NOVIEW",
    ),
    (
        "BLOCK with a known child of the wrong tag",
        TWO_SERVER_XML.replace("<BYTEBLOCK/>", "<NOVIEW/>", 1),
        f"[block-child] {_BLOCK}/NOVIEW[1]: NOVIEW is not allowed under BLOCK",
    ),
    (
        "BLOCK with an unknown child",
        TWO_SERVER_XML.replace("<BYTEBLOCK/>", "<GIZMO/>", 1),
        f"[block-child] {_BLOCK}/GIZMO[1]: GIZMO is not allowed under BLOCK",
    ),
    (
        "BLOCK with an unknown second child",
        TWO_SERVER_XML.replace("<BYTEBLOCK/>", "<BYTEBLOCK/><GIZMO/>", 1),
        f"[block-child] {_BLOCK}: BLOCK requires exactly one VIEW or BYTEBLOCK child, found 2",
    ),
    (
        "misplaced known element",
        MINIMAL_XML.replace("<ISLAND", '<SERVER HOST="h"/><ISLAND'),
        "[unexpected-element] /PARSTORAGE/SERVER[1]: SERVER is not allowed under PARSTORAGE",
    ),
    (
        "text in a child's tail",
        MINIMAL_XML.replace(_ETYPE, f"{_ETYPE}junk"),
        "[unexpected-text] /PARSTORAGE/TYPE[1]: TYPE must not contain text",
    ),
    # validation time
    ("empty VERSION", MINIMAL_XML.replace('VERSION="1.0"', 'VERSION=""'), "[required-nonempty] /PARSTORAGE: VERSION must be nonempty"),
    (
        "empty PROCESSORS NAME",
        MINIMAL_XML.replace("<TYPE>", '<PROCESSORS NAME=""><PROC_DIMENSION UPPER="2"/></PROCESSORS><TYPE>'),
        "[required-nonempty] /PARSTORAGE/PROCESSORS[1]: NAME must be nonempty",
    ),
    (
        "empty ISLAND NAME",
        MINIMAL_XML.replace('NAME="lonely"', 'NAME=""'),
        "[required-nonempty] /PARSTORAGE/ISLAND[1]: NAME must be nonempty",
    ),
    (
        "empty WHAT",
        _NAMED.replace("<ISLAND", '<ALIGN WHAT="" WITH="a"/><ISLAND'),
        "[required-nonempty] /PARSTORAGE/ALIGN[1]: WHAT must be nonempty",
    ),
    (
        "empty WITH",
        _NAMED.replace("<ISLAND", '<ALIGN WHAT="a" WITH=""/><ISLAND'),
        "[required-nonempty] /PARSTORAGE/ALIGN[1]: WITH must be nonempty",
    ),
    (
        "empty HOST",
        TWO_SERVER_XML.replace('HOST="vipclus9.pri.univie.ac.at"', 'HOST=""'),
        "[required-nonempty] /PARSTORAGE/ISLAND[1]/SERVER[2]: HOST must be nonempty",
    ),
    (
        "empty DEVICE_ID",
        TWO_SERVER_XML.replace('DEVICE_ID="/dev/vda1"', 'DEVICE_ID=""', 1),
        f"[required-nonempty] {_DEVICE}: DEVICE_ID must be nonempty",
    ),
    (
        "empty ETYPE TYPE",
        MINIMAL_XML.replace('TYPE="CHAR"', 'TYPE=""'),
        "[required-nonempty] /PARSTORAGE/TYPE[1]/ETYPE[1]: TYPE attribute must be nonempty",
    ),
    (
        "PROC_DIMENSION LOWER above UPPER",
        MINIMAL_XML.replace("<TYPE>", '<PROCESSORS NAME="P"><PROC_DIMENSION LOWER="5" UPPER="2"/></PROCESSORS><TYPE>'),
        "[dimension-range] /PARSTORAGE/PROCESSORS[1]/PROC_DIMENSION[1]: LOWER 5 exceeds UPPER 2",
    ),
    (
        "ARRAY without dimensions",
        MINIMAL_XML.replace(_ETYPE, f"<ARRAY>{_ETYPE}</ARRAY>"),
        "[array-dimensions] /PARSTORAGE/TYPE[1]/ARRAY[1]: ARRAY requires at least one DIMENSION",
    ),
]


def test_criterion_5_dtd_conformance(two_server_doc, three_server_doc):
    """Both bundled descriptors are clean; mutations are rejected with the
    expected diagnostic, rule, element path and message; 500 random
    documents survive a serialize/parse trip."""
    for doc in (two_server_doc, three_server_doc):
        assert validate_document(doc).ok

    assert len(MUTATIONS) >= 10
    for label, xml, expected in MUTATIONS:
        diagnostics = _rejections(xml)
        assert expected in diagnostics, f"{label}: expected {expected}, got {diagnostics}"

    rng = random.Random(500500)
    docs = 500
    for _ in range(docs):
        doc = random_document(rng)
        assert parse_document(serialize_document(doc)) == doc
    report(
        f"criterion 5 PASS: bundled descriptors validate cleanly, {len(MUTATIONS)} mutations rejected "
        f"with their exact diagnostics, {docs} random documents round-trip"
    )


def test_criterion_6_copy_flow(tmp_path, monkeypatch, capsys):
    """The bundled config drives cp-in/cp-out end to end, with and
    without a sidecar descriptor."""
    rng = random.Random(66)

    def fresh_store(idx):
        root = tmp_path / f"grid{idx}"
        conf = tmp_path / f"ViPIOS{idx}.conf"
        conf.write_text(CONFIG_TEMPLATE.format(root=root))
        monkeypatch.setenv("VIP_CONF", str(conf))
        monkeypatch.delenv("VIP_DIR", raising=False)
        return root

    # leg 1: explicit sidecar (balanced nested descriptor, three devices)
    root = fresh_store(1)
    work = tmp_path / "work1"
    work.mkdir()
    data = rng.randbytes(82 * 11 + 40)
    (work / "testfile").write_bytes(data)
    (work / ".vd.testfile").write_text(THREE_SERVER_BALANCED_XML)
    assert cli_main(["cp-in", str(work / "testfile")]) == 0
    frags = sorted((root / "ViPIOS").glob("dev*/*.frag"))
    assert len(frags) == 3, "one fragment per configured device"
    stub = root / "vipios" / "testfile"
    assert stub.stat().st_size == 0
    out = tmp_path / "restored1"
    assert cli_main(["cp-out", "testfile", str(out)]) == 0
    assert out.read_bytes() == data

    # leg 2: no sidecar, default cyclic distribution
    root = fresh_store(2)
    work = tmp_path / "work2"
    work.mkdir()
    data2 = rng.randbytes(3 * 4096 + 1234)
    (work / "testfile").write_bytes(data2)
    assert cli_main(["cp-in", str(work / "testfile")]) == 0
    assert "default cyclic distribution" in capsys.readouterr().err
    frags = sorted((root / "ViPIOS").glob("dev*/*.frag"))
    assert len(frags) == 3
    assert (root / "vipios" / "testfile").stat().st_size == 0
    out2 = tmp_path / "restored2"
    assert cli_main(["cp-out", "testfile", str(out2)]) == 0
    assert out2.read_bytes() == data2

    report(
        "criterion 6 PASS: cp-in/cp-out round-trips under the bundled config, "
        "sidecar and cyclic-default legs, 0-byte stub and one fragment per device"
    )


def test_criterion_7_hpf_compiler():
    """Block/cyclic owner tables match the brute-force formulas for all
    N <= 64, P <= 8, k <= 4, and compiled views always partition exactly."""

    def owners_for(n, p, kind, k=1):
        arr = ArrayDecl(
            element=EtypeDecl("CHAR", 1),
            dims=(DimensionDecl(upper=n, distribute=kind, dist_skalar=k),),
            distribute_onto="P",
        )
        return compile_hpf_mapping(arr, ProcessorsDecl("P", ((1, p),)))

    def views_partition(om, element_bytes):
        total = om.element_count * element_bytes
        entries = tuple(
            entry_of("i", f"h{d}", f"d{d}", enumerate_extents(view, total))
            for d, view in enumerate(ownermap_to_views(om, element_bytes))
        )
        return check_partition(DistributionMap(total, entries)).status

    combos = 0
    for n in range(1, 65):
        for p in range(1, 9):
            chunk = -(-n // p)
            om = owners_for(n, p, Distribution.BLOCK)
            assert om.owners == tuple(i // chunk for i in range(n)), (n, p)
            assert views_partition(om, 1) is PartitionStatus.EXACT_PARTITION, (n, p)
            assert views_partition(om, 4) is PartitionStatus.EXACT_PARTITION, (n, p)
            combos += 1
            for k in range(1, 5):
                om = owners_for(n, p, Distribution.CYCLIC, k)
                assert om.owners == tuple((i // k) % p for i in range(n)), (n, p, k)
                assert views_partition(om, 1) is PartitionStatus.EXACT_PARTITION, (n, p, k)
                assert views_partition(om, 4) is PartitionStatus.EXACT_PARTITION, (n, p, k)
                combos += 1
    report(
        f"criterion 7 PASS: {combos} block/cyclic mappings match brute-force owners; "
        "compiled views always form exact partitions (element sizes 1 and 4)"
    )
