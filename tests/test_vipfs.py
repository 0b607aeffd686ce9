import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE, THREE_SERVER_BALANCED_XML, TWO_SERVER_XML
from xdgdl import (
    build_distribution_map,
    check_partition,
    copy_in,
    copy_out,
    enumerate_extents,
    locate_sidecar,
    parse_config,
    timestamp_for_name,
    validate_document,
    PartitionStatus,
)
from xdgdl.vipfs import default_descriptor


@pytest.fixture
def cfg(tmp_path):
    return parse_config(CONFIG_TEMPLATE.format(root=tmp_path / "grid"))


class TestLocateSidecar:
    def test_found_and_parsed(self, tmp_path):
        (tmp_path / "testfile").write_bytes(b"payload")
        (tmp_path / ".vd.testfile").write_text(TWO_SERVER_XML)
        result = locate_sidecar(tmp_path / "testfile")
        assert result.document is not None
        assert result.document.timestamp == "testfile_regular"
        assert result.diagnostic is None

    def test_absent(self, tmp_path):
        (tmp_path / "testfile").write_bytes(b"payload")
        result = locate_sidecar(tmp_path / "testfile")
        assert result.document is None
        assert "no sidecar" in result.diagnostic

    def test_a_sidecar_name_past_name_max_is_a_diagnostic(self, tmp_path):
        """``.vd.<name>`` of a 253-byte name is 257 bytes: the probe's
        failure is reported, not raised."""
        (tmp_path / ("n" * 253)).write_bytes(b"payload")
        result = locate_sidecar(tmp_path / ("n" * 253))
        assert result.document is None
        assert result.diagnostic == f"cannot read sidecar (File name too long): {tmp_path / ('.vd.' + 'n' * 253)}"

    def test_invalid_descriptor_falls_back_with_report(self, tmp_path):
        broken = TWO_SERVER_XML.replace(
            '<BLOCK OFFSET="5" REPEAT="3"\n            COUNT="7" STRIDE="5">\n            <BYTEBLOCK/>\n          </BLOCK>\n        ',
            "",
        )
        (tmp_path / "testfile").write_bytes(b"payload")
        (tmp_path / ".vd.testfile").write_text(broken)
        result = locate_sidecar(tmp_path / "testfile")
        assert result.document is None
        assert "view-blocks" in result.diagnostic

    def test_unparsable_descriptor_falls_back(self, tmp_path):
        (tmp_path / "testfile").write_bytes(b"payload")
        (tmp_path / ".vd.testfile").write_text("<oops>")
        result = locate_sidecar(tmp_path / "testfile")
        assert result.document is None
        assert "parse" in result.diagnostic


class TestTimestampForName:
    def test_plain(self):
        assert timestamp_for_name("testfile") == "testfile"
        assert timestamp_for_name("f000001.bin") == "f000001.bin"

    def test_sanitized(self):
        assert timestamp_for_name("9 lives!.dat") == "f_9_lives_.dat-540801b7aa5d62ce"
        assert timestamp_for_name("a b") == "f_a_b-bb37dea5c027f928"
        assert timestamp_for_name("a_b") == "f_a_b-f05e550658986ad7"

    def test_a_long_name_keeps_200_characters_and_its_digest(self):
        """An ID that is not the name is at most 219 characters, so a
        fragment's ``<id>.frag.tmp`` never passes NAME_MAX before the
        name's ``.vd.<name>.size.tmp`` does; the digest keeps names that
        share their first 200 characters apart."""
        a, b = timestamp_for_name("x_" * 121), timestamp_for_name("x_" * 120 + "xy")
        assert a[:202] == b[:202] == "f_" + "x_" * 100 and len(a) == len(b) == 219 and a != b

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab_ .-9!\u00e9\udcff", max_size=5), min_size=2, max_size=2))
    def test_every_name_has_an_id_of_its_own(self, names):
        """Names of a few characters that sanitise alike get IDs of their
        own; a plain name is its own ID, any other starts with 'f_' and
        ends in a 16-hex digest, and every ID is an XML ID."""
        ids = [timestamp_for_name(name) for name in names]
        assert (ids[0] == ids[1]) == (names[0] == names[1])
        for name, ts in zip(names, ids):
            plain = re.fullmatch(r"[A-Za-z][A-Za-z0-9.-]*", name)
            assert ts == name if plain else re.fullmatch(r"f_[A-Za-z0-9._-]*-[0-9a-f]{16}", ts)
            assert validate_document(default_descriptor(parse_config(CONFIG_TEMPLATE.format(root="/grid")), ts)).ok


class TestDefaultDescriptor:
    def test_three_devices_full_periods(self, cfg):
        doc = default_descriptor(cfg, "t_x")
        assert validate_document(doc).ok
        dmap = build_distribution_map(doc, 12288)
        assert [e.extents for e in dmap.entries] == [
            ((0, 4096),),
            ((4096, 4096),),
            ((8192, 4096),),
        ]

    def test_single_device_degenerate(self, cfg, tmp_path):
        single = parse_config(
            f'MAX_APP 1 MAX_SRV_FILE 1 DATA_BUFLEN 4096 SRV_GROUP_NAME "g" '
            f"SRVR_DEVICE_LIST 1 {tmp_path}/d0 VIP_DIR \"{tmp_path}/v\""
        )
        doc = default_descriptor(single, "t_y")
        dmap = build_distribution_map(doc, 10000)
        assert dmap.entries[0].extents == ((0, 10000),)

    def test_clipped_tail(self, cfg):
        doc = default_descriptor(cfg, "t_z")
        dmap = build_distribution_map(doc, 5000)
        assert dmap.entries[0].extents == ((0, 4096),)
        assert dmap.entries[1].extents == ((4096, 904),)
        assert dmap.entries[2].extents == ()

    def test_partitions_any_size(self, cfg):
        rng = random.Random(5)
        for _ in range(25):
            size = rng.randint(0, 50_000)
            doc = default_descriptor(cfg, "t_s")
            verdict = check_partition(build_distribution_map(doc, size))
            assert verdict.status is PartitionStatus.EXACT_PARTITION, size


class TestCopyRoundTrip:
    def test_with_sidecar(self, cfg, tmp_path):
        src = tmp_path / "work" / "testfile"
        src.parent.mkdir()
        data = random.Random(11).randbytes(82 * 9 + 3)
        src.write_bytes(data)
        (src.parent / ".vd.testfile").write_text(THREE_SERVER_BALANCED_XML)
        diagnostic = copy_in(cfg, src)
        assert diagnostic is None
        assert all((Path(d) / "regular_multilevel.frag").exists() for d in cfg.device_paths)
        out = copy_out(cfg, "testfile", tmp_path / "back")
        assert out.read_bytes() == data

    def test_without_sidecar_uses_default(self, cfg, tmp_path):
        src = tmp_path / "plain"
        data = random.Random(12).randbytes(10_000)
        src.write_bytes(data)
        diagnostic = copy_in(cfg, src)
        assert "no sidecar" in diagnostic
        assert all((Path(d) / "plain.frag").exists() for d in cfg.device_paths)
        out_dir = tmp_path / "outdir"
        out_dir.mkdir()
        target = copy_out(cfg, "plain", out_dir)
        assert target == out_dir / "plain"
        assert target.read_bytes() == data

    def test_erroneous_sidecar_still_copies(self, cfg, tmp_path):
        src = tmp_path / "data"
        src.write_bytes(b"hello world")
        (tmp_path / ".vd.data").write_text("not xml at all <")
        diagnostic = copy_in(cfg, src)
        assert diagnostic is not None
        assert copy_out(cfg, "data", tmp_path / "data.back").read_bytes() == b"hello world"


class TestSidecarFidelity:
    def test_stored_descriptor_is_byte_identical_to_sidecar(self, cfg, tmp_path):
        src = tmp_path / "keepme"
        src.write_bytes(b"x" * 100)
        declaration, rest = TWO_SERVER_XML.split("\n", 1)
        sidecar_text = f"{declaration}\n<!-- user formatting -->\n{rest}"
        (tmp_path / ".vd.keepme").write_text(sidecar_text)
        copy_in(cfg, src)
        from pathlib import Path

        stored = Path(cfg.vip_dir) / ".vd.keepme"
        assert stored.read_bytes() == sidecar_text.encode()
        assert copy_out(cfg, "keepme", tmp_path / "back").read_bytes() == b"x" * 100
