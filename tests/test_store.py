import builtins
import io
import os
import pathlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from descriptors import CONFIG_TEMPLATE, TWO_SERVER_XML
from gen import random_view
from reference import view_selecting
from xdgdl import (
    NotAPartition,
    XdgdlError,
    enumerate_extents,
    get_file,
    init_store,
    parse_config,
    parse_document,
    put_file,
)
from xdgdl.cli import main
from xdgdl.store import grid_layout
from xdgdl.vipfs import default_descriptor


@pytest.fixture
def cfg(tmp_path):
    return parse_config(CONFIG_TEMPLATE.format(root=tmp_path))


@pytest.fixture
def layout(cfg):
    return init_store(cfg)


def two_server_manifest():
    return parse_document(TWO_SERVER_XML)


def put(layout, name, data, manifest):
    return put_file(layout, name, io.BytesIO(data), manifest)


def fragments(layout):
    """The two-server manifest's fragment files, one per device it names."""
    return [d.directory / "testfile_regular.frag" for d in layout.devices[:2]]


def get(layout, name):
    out = io.BytesIO()
    get_file(layout, name, out)
    return out.getvalue()


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

    def test_layout_alone_creates_nothing(self, cfg, tmp_path):
        layout = grid_layout(cfg)
        assert list(tmp_path.iterdir()) == []
        assert init_store(cfg) == layout

    def test_zero_devices(self, cfg):
        empty = replace(cfg, device_paths=())
        with pytest.raises(XdgdlError, match="configuration declares zero devices"):
            init_store(empty)


class TestPutFile:
    def test_fragments_stub_and_sidecars(self, layout):
        data = bytes(i % 251 for i in range(72))
        put(layout, "testfile", data, two_server_manifest())
        sizes = [p.stat().st_size for p in fragments(layout)]
        assert sizes == [30, 42]
        assert (layout.root / "testfile").stat().st_size == 0
        assert (layout.root / ".vd.testfile").exists()
        assert (layout.root / ".vd.testfile.size").read_text() == "72\n"

    def test_empty_file(self, layout):
        put(layout, "nil", b"", two_server_manifest())
        assert [p.stat().st_size for p in fragments(layout)] == [0, 0]
        assert (layout.root / "nil").stat().st_size == 0

    def test_duplicate_timestamp(self, layout):
        put(layout, "one", b"a" * 36, two_server_manifest())
        with pytest.raises(XdgdlError, match="fragment .*testfile_regular.frag already exists"):
            put(layout, "two", b"b" * 36, two_server_manifest())

    def test_partition_required(self, layout):
        overlapping = parse_document(
            TWO_SERVER_XML.replace('OFFSET="5" REPEAT="3"\n            COUNT="7" STRIDE="5"',
                                   'OFFSET="0" REPEAT="3"\n            COUNT="7" STRIDE="5"')
        )
        with pytest.raises(NotAPartition):
            put(layout, "bad", b"c" * 72, overlapping)

    def test_manifest_with_more_devices_than_layout(self, cfg, tmp_path):
        single = replace(cfg, device_paths=(str(tmp_path / "only"),), vip_dir=str(tmp_path / "vip2"))
        layout = init_store(single)
        with pytest.raises(XdgdlError, match="descriptor references 2 devices, layout provides 1"):
            put(layout, "f", b"d" * 72, two_server_manifest())

    def test_no_leftover_temp_files(self, layout):
        put(layout, "t", b"e" * 72, two_server_manifest())
        for device in layout.devices:
            assert not list(device.directory.glob("*.tmp"))
        assert not list(layout.root.glob("*.tmp"))


class TestGetFile:
    def test_round_trip(self, layout):
        data = bytes(i % 256 for i in range(72))
        put(layout, "testfile", data, two_server_manifest())
        assert get(layout, "testfile") == data

    def test_unknown_name(self, layout):
        with pytest.raises(XdgdlError, match="no stored descriptor for 'ghost'"):
            get(layout, "ghost")

    def test_deleted_fragment_names_device(self, layout):
        put(layout, "testfile", b"f" * 72, two_server_manifest())
        fragments(layout)[1].unlink()
        with pytest.raises(XdgdlError, match="has no fragment at") as err:
            get(layout, "testfile")
        assert "vipclus9.pri.univie.ac.at" in str(err.value)

    def test_truncated_fragment(self, layout):
        put(layout, "testfile", b"g" * 72, two_server_manifest())
        fragments(layout)[0].write_bytes(b"short")
        with pytest.raises(XdgdlError, match="has 5 bytes, extents total 30") as err:
            get(layout, "testfile")
        assert "vipios.pri.univie.ac.at" in str(err.value)

    def test_oversized_size_sidecar_allocates_nothing(self, layout):
        # a 1 PB size must fail on the fragment lengths, before the
        # output buffer is allocated
        put(layout, "testfile", b"h" * 72, two_server_manifest())
        (layout.root / ".vd.testfile.size").write_bytes(b"%d\n" % 10**15)
        with pytest.raises(XdgdlError, match="fragment for .*vipios.* has 30 bytes, extents total 416666666666669"):
            get(layout, "testfile")

    @pytest.mark.parametrize("raw", [b"\xff\n", "\u00b2\n".encode()])
    def test_corrupt_size_sidecar(self, layout, raw):
        put(layout, "testfile", b"h" * 72, two_server_manifest())
        (layout.root / ".vd.testfile.size").write_bytes(raw)
        with pytest.raises(XdgdlError, match="stored size for 'testfile' is corrupt"):
            get(layout, "testfile")

    def test_default_descriptor_round_trip(self, cfg, layout):
        data = random.Random(1).randbytes(3 * 4096 + 17)
        manifest = default_descriptor(cfg, "cyclic_demo")
        put(layout, "big", data, manifest)
        assert get(layout, "big") == data


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
            owned[rng.randrange(len(owned))].append((pos, length))
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
            put(layout, f"file{i}", data, manifest)
            assert get(layout, f"file{i}") == data
            total = sum(
                (device.directory / f"rand_{i}.frag").stat().st_size
                for device in layout.devices
            )
            assert total == size


class TestDistinctDevices:
    def test_duplicate_device_paths_rejected(self, cfg, tmp_path):
        from xdgdl import IoFailure

        dup = replace(cfg, device_paths=(str(tmp_path / "same"), str(tmp_path / "same")))
        with pytest.raises(IoFailure):
            init_store(dup)
        assert not (tmp_path / "same").exists()  # refused before anything is created


COUNTED = ("stat", "lstat", "fstat", "mkdir", "replace", "unlink", "pathconf", "readv", "writev", "listdir")


def counting_calls(monkeypatch) -> Counter:
    """The number of each file-system call made from now on, by name:
    ``open`` and the ``os`` functions in ``COUNTED``.  Python 3.10's
    pathlib binds them when it is imported, so its accessor is counted
    too."""
    calls: Counter = Counter()
    accessor = getattr(pathlib, "_NormalAccessor", None)
    for module, name in [(io, "open"), (builtins, "open"), *((os, name) for name in COUNTED)]:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        if getattr(accessor, name, None) is real:
            monkeypatch.setattr(accessor, name, staticmethod(counted))
    return calls


class TestFixedCost:
    """The file-system calls of one small ``cp-in`` into a store that
    exists and of one ``cp-out``, pinned: each directory is statted once,
    no path is resolved component by component and no directory is made."""

    def test_cp_in_and_cp_out_of_a_small_file(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "ViPIOS.conf"
        conf.write_text(CONFIG_TEMPLATE.format(root=tmp_path / "grid"))
        monkeypatch.setenv("VIP_CONF", str(conf))
        monkeypatch.delenv("VIP_DIR", raising=False)
        data = random.Random(32).randbytes(72)
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "testfile").write_bytes(data)
        (tmp_path / "in" / ".vd.testfile").write_text(TWO_SERVER_XML)
        assert main(["init"]) == 0
        calls = counting_calls(monkeypatch)
        assert main(["cp-in", str(tmp_path / "in" / "testfile")]) == 0
        # open: VIP_CONF, the source, its sidecar and five .tmp files; stat: four store
        # directories, the stub, .vd.testfile, .vd.testfile.size and two fragments
        assert calls == {"open": 8, "stat": 9, "pathconf": 3, "replace": 5, "writev": 2}
        calls.clear()
        assert main(["cp-out", "testfile", str(tmp_path / "back")]) == 0
        # open: VIP_CONF, .vd.testfile, .vd.testfile.size, two fragments and back.tmp;
        # stat: four store directories and the target
        assert calls == {"open": 6, "stat": 5, "readv": 2, "replace": 1}
        assert (tmp_path / "back").read_bytes() == data
        assert capsys.readouterr().err == ""
