import random

import pytest

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

    def test_sanitized(self):
        assert timestamp_for_name("9 lives!.dat") == "f_9_lives_.dat"


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
        stored, diagnostic = copy_in(cfg, src)
        assert diagnostic is None
        assert stored.timestamp_id == "regular_multilevel"
        out = copy_out(cfg, "testfile", tmp_path / "back")
        assert out.read_bytes() == data

    def test_without_sidecar_uses_default(self, cfg, tmp_path):
        src = tmp_path / "plain"
        data = random.Random(12).randbytes(10_000)
        src.write_bytes(data)
        stored, diagnostic = copy_in(cfg, src)
        assert "no sidecar" in diagnostic
        assert stored.timestamp_id == "plain"
        out_dir = tmp_path / "outdir"
        out_dir.mkdir()
        target = copy_out(cfg, "plain", out_dir)
        assert target == out_dir / "plain"
        assert target.read_bytes() == data

    def test_erroneous_sidecar_still_copies(self, cfg, tmp_path):
        src = tmp_path / "data"
        src.write_bytes(b"hello world")
        (tmp_path / ".vd.data").write_text("not xml at all <")
        stored, diagnostic = copy_in(cfg, src)
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
