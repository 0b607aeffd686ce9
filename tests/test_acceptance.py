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
from gen import entry_of, gather_bytes, random_document, random_view
from xdgdl import (
    Extent,
    PartitionStatus,
    ValidationError,
    build_distribution_map,
    check_partition,
    compile_hpf_mapping,
    enumerate_extents,
    member_oracle,
    ownermap_to_views,
    parse_document,
    scatter,
    serialize_document,
    validate_document,
    view_period,
)
from xdgdl import ArrayDecl, DimensionDecl, Distribution, EtypeDecl, ProcessorsDecl
from xdgdl import DistributionMap
from xdgdl.cli import main as cli_main


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_period_cross_check(two_server_doc):
    """Both two-server views share period 36; per-period bytes split 5:7."""
    view1, view2 = (s.devices[0].view for s in two_server_doc.island.servers)
    periods = (view_period(view1), view_period(view2))
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
        assert gather_bytes(scatter(data, dmap), dmap) == data, size
    report("criterion 2 PASS: two-server scatter/gather identity at 72 and 75 bytes, both exact partitions")


def test_criterion_3_nested_three_server(three_server_doc, balanced_doc):
    """Nested descriptor: servers 1 and 3 at period 82, server 3 extents
    [29,41)+[70,82); the descriptor as printed is not a partition, the
    balanced variant is and round-trips."""
    views = [s.devices[0].view for s in three_server_doc.island.servers]
    assert view_period(views[0]) == 82
    assert view_period(views[2]) == 82
    assert enumerate_extents(views[2], 82) == (Extent(29, 12), Extent(70, 12))

    printed = check_partition(build_distribution_map(three_server_doc, 82))
    assert printed.status is not PartitionStatus.EXACT_PARTITION
    assert printed.gaps and printed.overlaps

    dmap = build_distribution_map(balanced_doc, 82)
    assert check_partition(dmap).status is PartitionStatus.EXACT_PARTITION
    data = random.Random(3).randbytes(82)
    assert gather_bytes(scatter(data, dmap), dmap) == data
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
        for ext in enumerate_extents(view, region):
            covered[ext.start : ext.end] = b"\x01" * ext.length
        for i in range(region):
            if member_oracle(view, i) != bool(covered[i]):
                pytest.fail(f"oracle mismatch at byte {i} of view {view}")
        checked += region
    report(f"criterion 4 PASS: {trees} view trees, {checked} byte memberships, 0 mismatches")


def _rejection_rules(xml: str) -> set[str]:
    """Rules that reject the text, at parse time or validation time."""
    try:
        doc = parse_document(xml)
    except ValidationError as exc:
        return {exc.rule}
    return {v.rule for v in validate_document(doc).violations}


MUTATIONS = [
    ("drop SERVER HOST", TWO_SERVER_XML.replace(' HOST="vipios.pri.univie.ac.at"', "", 1), "required-attribute"),
    (
        "drop BLOCK from VIEW",
        TWO_SERVER_XML.replace(
            '<BLOCK OFFSET="0" REPEAT="3"\n            COUNT="5" STRIDE="7">\n            <BYTEBLOCK/>\n          </BLOCK>\n        ',
            "",
        ),
        "view-blocks",
    ),
    ("drop ETYPE from TYPE", TWO_SERVER_XML.replace('<ETYPE TYPE="CHAR" LENGTH="1"/>', ""), "type-children"),
    ("negative STRIDE", TWO_SERVER_XML.replace('STRIDE="7"', 'STRIDE="-7"'), "nonnegative-int"),
    ("zero REPEAT", TWO_SERVER_XML.replace('REPEAT="3"', 'REPEAT="0"', 1), "positive-int"),
    ("drop VERSION", TWO_SERVER_XML.replace('VERSION="1.0"\n    ', ""), "required-attribute"),
    ("drop TIMESTAMP", TWO_SERVER_XML.replace('\n    TIMESTAMP="testfile_regular"', ""), "required-attribute"),
    ("non-ID TIMESTAMP", TWO_SERVER_XML.replace('TIMESTAMP="testfile_regular"', 'TIMESTAMP="1 bad id"'), "timestamp-id"),
    (
        "DEVICE without VIEW or NOVIEW",
        MINIMAL_XML.replace(
            '<ISLAND NAME="lonely"/>',
            '<ISLAND NAME="lonely"><SERVER HOST="h"><DEVICE DEVICE_ID="/dev/x"></DEVICE></SERVER></ISLAND>',
        ),
        "device-access",
    ),
    (
        "DEVICE with VIEW and NOVIEW",
        TWO_SERVER_XML.replace("</VIEW>\n      </DEVICE>", "</VIEW>\n      <NOVIEW/>\n      </DEVICE>", 1),
        "device-access",
    ),
    ("unknown element", MINIMAL_XML.replace("<ISLAND", "<GIZMO/><ISLAND"), "unknown-element"),
    ("unknown attribute", MINIMAL_XML.replace('TYPE="CHAR"', 'TYPE="CHAR" COLOR="red"'), "unknown-attribute"),
    ("non-integer LENGTH", MINIMAL_XML.replace('LENGTH="1"', 'LENGTH="abc"'), "bad-integer"),
    ("leading-plus COUNT", TWO_SERVER_XML.replace('COUNT="5"', 'COUNT="+5"'), "bad-integer"),
    (
        "PROCESSORS without dimensions",
        MINIMAL_XML.replace("<TYPE>", '<PROCESSORS NAME="P"></PROCESSORS><TYPE>'),
        "processors-dimensions",
    ),
    (
        "dangling DISTRIBUTE_ONTO",
        MINIMAL_XML.replace(
            '<ETYPE TYPE="CHAR" LENGTH="1"/>',
            '<ARRAY DISTRIBUTE_ONTO="ghost"><TYPE><ETYPE TYPE="CHAR" LENGTH="1"/></TYPE><DIMENSION UPPER="4"/></ARRAY>',
        ),
        "unresolved-processors",
    ),
    (
        "dangling ALIGN",
        MINIMAL_XML.replace("<ISLAND", '<ALIGN WHAT="a" WITH="b"/><ISLAND'),
        "unresolved-align",
    ),
]


def test_criterion_5_dtd_conformance(two_server_doc, three_server_doc):
    """Both bundled descriptors are clean; mutations are rejected with the
    matching rule; 500 random documents survive a serialize/parse trip."""
    for doc in (two_server_doc, three_server_doc):
        assert validate_document(doc).ok

    assert len(MUTATIONS) >= 10
    for label, xml, expected_rule in MUTATIONS:
        rules = _rejection_rules(xml)
        assert expected_rule in rules, f"{label}: expected {expected_rule}, got {rules}"

    rng = random.Random(500500)
    docs = 500
    for _ in range(docs):
        doc = random_document(rng)
        assert parse_document(serialize_document(doc)) == doc
    report(
        f"criterion 5 PASS: bundled descriptors validate cleanly, {len(MUTATIONS)} mutations rejected "
        f"rule-specifically, {docs} random documents round-trip"
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
