import random

import pytest

from descriptors import CONFIG_TEMPLATE, TWO_SERVER_XML
from gen import random_view
from xdgdl import (
    DuplicateTimestamp,
    EmptyDeviceList,
    Extent,
    LengthMismatch,
    MissingFragment,
    MissingManifest,
    NotAPartition,
    RosterMismatch,
    VipfsConfig,
    enumerate_extents,
    get_file,
    init_store,
    parse_config,
    parse_document,
    put_file,
    view_selecting,
)
from xdgdl.vipfs import default_descriptor


@pytest.fixture
def cfg(tmp_path):
    return parse_config(CONFIG_TEMPLATE.format(root=tmp_path))


@pytest.fixture
def layout(cfg):
    return init_store(cfg)


def two_server_manifest():
    return parse_document(TWO_SERVER_XML)


class TestInit:
    def test_creates_directories(self, cfg):
        layout = init_store(cfg)
        assert len(layout.devices) == 3
        for device in layout.devices:
            assert device.directory.is_dir()
        assert layout.root.is_dir()

    def test_idempotent(self, cfg):
        first = init_store(cfg)
        again = init_store(cfg)
        assert first == again

    def test_zero_devices(self, cfg):
        empty = VipfsConfig(
            max_app=cfg.max_app,
            max_srv_file=cfg.max_srv_file,
            data_buflen=cfg.data_buflen,
            srv_group_name=cfg.srv_group_name,
            device_paths=(),
            vip_dir=cfg.vip_dir,
        )
        with pytest.raises(EmptyDeviceList):
            init_store(empty)


class TestPutFile:
    def test_fragments_stub_and_sidecars(self, layout):
        data = bytes(i % 251 for i in range(72))
        stored = put_file(layout, "testfile", data, two_server_manifest())
        sizes = [p.stat().st_size for p in stored.fragment_paths]
        assert sizes == [30, 42]
        assert (layout.root / "testfile").stat().st_size == 0
        assert (layout.root / ".vd.testfile").exists()
        assert (layout.root / ".vd.testfile.size").read_text() == "72\n"

    def test_empty_file(self, layout):
        stored = put_file(layout, "nil", b"", two_server_manifest())
        assert [p.stat().st_size for p in stored.fragment_paths] == [0, 0]
        assert (layout.root / "nil").stat().st_size == 0

    def test_duplicate_timestamp(self, layout):
        put_file(layout, "one", b"a" * 36, two_server_manifest())
        with pytest.raises(DuplicateTimestamp):
            put_file(layout, "two", b"b" * 36, two_server_manifest())

    def test_partition_required(self, layout):
        overlapping = parse_document(
            TWO_SERVER_XML.replace('OFFSET="5" REPEAT="3"\n            COUNT="7" STRIDE="5"',
                                   'OFFSET="0" REPEAT="3"\n            COUNT="7" STRIDE="5"')
        )
        with pytest.raises(NotAPartition):
            put_file(layout, "bad", b"c" * 72, overlapping)

    def test_manifest_with_more_devices_than_layout(self, cfg, tmp_path):
        single = VipfsConfig(
            max_app=cfg.max_app,
            max_srv_file=cfg.max_srv_file,
            data_buflen=cfg.data_buflen,
            srv_group_name=cfg.srv_group_name,
            device_paths=(str(tmp_path / "only"),),
            vip_dir=str(tmp_path / "vip2"),
        )
        layout = init_store(single)
        with pytest.raises(RosterMismatch):
            put_file(layout, "f", b"d" * 72, two_server_manifest())

    def test_no_leftover_temp_files(self, layout):
        put_file(layout, "t", b"e" * 72, two_server_manifest())
        for device in layout.devices:
            assert not list(device.directory.glob("*.tmp"))
        assert not list(layout.root.glob("*.tmp"))


class TestGetFile:
    def test_round_trip(self, layout):
        data = bytes(i % 256 for i in range(72))
        put_file(layout, "testfile", data, two_server_manifest())
        assert get_file(layout, "testfile") == data

    def test_unknown_name(self, layout):
        with pytest.raises(MissingManifest):
            get_file(layout, "ghost")

    def test_deleted_fragment_names_device(self, layout):
        stored = put_file(layout, "testfile", b"f" * 72, two_server_manifest())
        stored.fragment_paths[1].unlink()
        with pytest.raises(MissingFragment) as err:
            get_file(layout, "testfile")
        assert "vipclus9.pri.univie.ac.at" in str(err.value)

    def test_truncated_fragment(self, layout):
        stored = put_file(layout, "testfile", b"g" * 72, two_server_manifest())
        stored.fragment_paths[0].write_bytes(b"short")
        with pytest.raises(LengthMismatch) as err:
            get_file(layout, "testfile")
        assert "vipios.pri.univie.ac.at" in str(err.value)

    def test_oversized_size_sidecar_allocates_nothing(self, layout):
        # a 1 PB size must fail on the fragment lengths, before the
        # output buffer is allocated
        put_file(layout, "testfile", b"h" * 72, two_server_manifest())
        (layout.root / ".vd.testfile.size").write_bytes(b"%d\n" % 10**15)
        with pytest.raises(LengthMismatch):
            get_file(layout, "testfile")

    @pytest.mark.parametrize("raw", [b"\xff\n", "\u00b2\n".encode()])
    def test_corrupt_size_sidecar(self, layout, raw):
        put_file(layout, "testfile", b"h" * 72, two_server_manifest())
        (layout.root / ".vd.testfile.size").write_bytes(raw)
        with pytest.raises(MissingManifest, match="stored size for 'testfile' is corrupt"):
            get_file(layout, "testfile")

    def test_default_descriptor_round_trip(self, cfg, layout):
        data = random.Random(1).randbytes(3 * 4096 + 17)
        manifest = default_descriptor(cfg, "cyclic_demo")
        put_file(layout, "big", data, manifest)
        assert get_file(layout, "big") == data


class TestRandomManifests:
    def random_manifest(self, rng, cfg, size, timestamp):
        """Exact-partition manifest over the layout's three devices."""
        from xdgdl import (
            CompoundDecl,
            DeviceDecl,
            Document,
            EtypeDecl,
            IslandDecl,
            ServerDecl,
        )

        owned = [[] for _ in cfg.device_paths]
        pos = 0
        while pos < size:
            length = min(rng.randint(1, 64 * 1024), size - pos)
            owned[rng.randrange(len(owned))].append(Extent(pos, length))
            pos += length
        servers = tuple(
            ServerDecl(
                host=f"srv{d}",
                devices=(DeviceDecl(device_id=f"/dev/sim{d}", view=view_selecting(tuple(extents), size)),),
            )
            for d, extents in enumerate(owned)
        )
        return Document(
            version="1.0",
            timestamp=timestamp,
            types=(CompoundDecl((EtypeDecl("CHAR", 1),)),),
            island=IslandDecl("sim", servers),
        )

    def test_megabyte_round_trips(self, cfg, layout):
        rng = random.Random(99)
        for i, size in enumerate([0, 1, 4096, 700_001, 1 << 20]):
            data = rng.randbytes(size)
            manifest = self.random_manifest(rng, cfg, size, f"rand_{i}")
            put_file(layout, f"file{i}", data, manifest)
            assert get_file(layout, f"file{i}") == data
            total = sum(
                (device.directory / f"rand_{i}.frag").stat().st_size
                for device in layout.devices
            )
            assert total == size


class TestDistinctDevices:
    def test_duplicate_device_paths_rejected(self, cfg, tmp_path):
        from xdgdl import IoFailure

        dup = VipfsConfig(
            max_app=cfg.max_app,
            max_srv_file=cfg.max_srv_file,
            data_buflen=cfg.data_buflen,
            srv_group_name=cfg.srv_group_name,
            device_paths=(str(tmp_path / "same"), str(tmp_path / "same")),
            vip_dir=cfg.vip_dir,
        )
        with pytest.raises(IoFailure):
            init_store(dup)
