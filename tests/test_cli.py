import random

import pytest

from descriptors import (
    CONFIG_TEMPLATE,
    THREE_SERVER_BALANCED_XML,
    THREE_SERVER_XML,
    TWO_SERVER_XML,
)
from xdgdl import parse_document
from xdgdl.cli import main


@pytest.fixture
def two_server(tmp_path):
    path = tmp_path / "two.xml"
    path.write_text(TWO_SERVER_XML)
    return path


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    conf = tmp_path / "ViPIOS.conf"
    conf.write_text(CONFIG_TEMPLATE.format(root=tmp_path / "grid"))
    monkeypatch.setenv("VIP_CONF", str(conf))
    monkeypatch.delenv("VIP_DIR", raising=False)
    return tmp_path


class TestValidate:
    def test_clean(self, two_server, capsys):
        assert main(["validate", str(two_server)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text(TWO_SERVER_XML.replace('STRIDE="7"', 'STRIDE="-7"'))
        assert main(["validate", str(bad)]) == 2
        assert "nonnegative-int" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<PARSTORAGE>")
        assert main(["validate", str(bad)]) == 2
        assert "xdgdl:" in capsys.readouterr().err


class TestPlan:
    def test_two_server_72(self, two_server, capsys):
        assert main(["plan", str(two_server), "--size", "72"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        device, extents = lines[0].split("\t")
        assert device == "island1.pri.univie.ac.at/vipios.pri.univie.ac.at//dev/vda1"
        assert extents == "0:5,12:5,24:5,36:5,48:5,60:5"
        assert lines[2] == "partition: exact"

    def test_gaps_and_overlaps_verdict(self, tmp_path, capsys):
        desc = tmp_path / "three.xml"
        desc.write_text(THREE_SERVER_XML)
        assert main(["plan", str(desc), "--size", "82"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "partition: gaps+overlaps"

    def test_empty_device_line_keeps_tab(self, tmp_path, capsys):
        conf_doc = TWO_SERVER_XML  # size 3 leaves server 2's first take beyond the region
        desc = tmp_path / "two.xml"
        desc.write_text(conf_doc)
        assert main(["plan", str(desc), "--size", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("\t")


class TestScatterGather:
    def test_round_trip_via_files(self, two_server, tmp_path, capsys):
        data = random.Random(21).randbytes(75)
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        frag_dir = tmp_path / "frags"
        assert main(["scatter", str(src), str(two_server), "--out", str(frag_dir)]) == 0
        names = sorted(p.name for p in frag_dir.iterdir())
        assert names == ["000.frag", "001.frag"]
        out = tmp_path / "rebuilt.bin"
        assert (
            main(
                ["gather", str(two_server), "--frags", str(frag_dir), "--size", "75", "--out", str(out)]
            )
            == 0
        )
        assert out.read_bytes() == data

    def test_scatter_overlap_exits_3(self, tmp_path, capsys):
        desc = tmp_path / "three.xml"
        desc.write_text(THREE_SERVER_XML)
        src = tmp_path / "input.bin"
        src.write_bytes(b"q" * 82)
        code = main(["scatter", str(src), str(desc), "--out", str(tmp_path / "f")])
        assert code == 3
        err = capsys.readouterr().err
        assert "overlap" in err
        assert "gap 17:7" in err

    def test_gather_missing_fragment_exits_4(self, two_server, tmp_path, capsys):
        frag_dir = tmp_path / "nofrags"
        frag_dir.mkdir()
        code = main(
            ["gather", str(two_server), "--frags", str(frag_dir), "--size", "8", "--out", str(tmp_path / "o")]
        )
        assert code == 4


class TestCp:
    def test_copy_in_and_out(self, store_env, capsys):
        work = store_env / "work"
        work.mkdir()
        data = random.Random(31).randbytes(82 * 4)
        (work / "testfile").write_bytes(data)
        (work / ".vd.testfile").write_text(THREE_SERVER_BALANCED_XML)
        assert main(["cp-in", str(work / "testfile")]) == 0
        grid = store_env / "grid"
        stub = grid / "vipios" / "testfile"
        assert stub.stat().st_size == 0
        frags = sorted((grid / "ViPIOS").glob("dev*/regular_multilevel.frag"))
        assert len(frags) == 3
        assert main(["cp-out", "testfile", str(store_env / "copy.bin")]) == 0
        assert (store_env / "copy.bin").read_bytes() == data

    def test_fallback_reports_to_stderr(self, store_env, capsys):
        src = store_env / "loner"
        src.write_bytes(b"* " * 700)
        assert main(["cp-in", str(src)]) == 0
        assert "default cyclic distribution" in capsys.readouterr().err
        assert main(["cp-out", "loner", str(store_env / "loner.back")]) == 0
        assert (store_env / "loner.back").read_bytes() == b"* " * 700

    def test_overlapping_sidecar_exits_3_with_extents(self, store_env, capsys):
        src = store_env / "clash"
        src.write_bytes(b"z" * 82)
        (store_env / ".vd.clash").write_text(THREE_SERVER_XML)
        assert main(["cp-in", str(src)]) == 3
        err = capsys.readouterr().err
        assert "not an exact partition" in err
        assert "overlap 24:5" in err

    def test_missing_conf_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("VIP_CONF", raising=False)
        assert main(["cp-in", "whatever"]) == 2

    def test_cp_out_corrupt_size_exits_4(self, store_env, capsys):
        src = store_env / "data.bin"
        src.write_bytes(b"0123456789")
        assert main(["cp-in", str(src)]) == 0
        (store_env / "grid" / "vipios" / ".vd.data.bin.size").write_bytes(b"\xff\n")
        capsys.readouterr()
        assert main(["cp-out", "data.bin", str(store_env / "back.bin")]) == 4
        assert "is corrupt" in capsys.readouterr().err
        assert not (store_env / "back.bin").exists()

    def test_cp_out_unknown_name_exits_4(self, store_env, capsys):
        assert main(["cp-out", "ghost", str(store_env / "g")]) == 4

    def test_vip_dir_env_conflict_warns(self, store_env, monkeypatch, capsys):
        monkeypatch.setenv("VIP_DIR", "/elsewhere")
        src = store_env / "noted"
        src.write_bytes(b"1234")
        assert main(["cp-in", str(src)]) == 0
        assert "configuration wins" in capsys.readouterr().err


class TestHpfCompile:
    DESC = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="matrix_file">
  <PROCESSORS NAME="P">
    <PROC_DIMENSION LOWER="1" UPPER="3"/>
  </PROCESSORS>
  <TYPE>
    <ARRAY NAME="m" DISTRIBUTE_ONTO="P">
      <TYPE><ETYPE TYPE="INT" LENGTH="4"/></TYPE>
      <DIMENSION LOWER="1" UPPER="12" DISTRIBUTE="CYCLIC" DIST_SKALAR="2"/>
    </ARRAY>
  </TYPE>
  <ISLAND NAME="lab"/>
</PARSTORAGE>
"""

    def test_emits_partitioning_descriptor(self, tmp_path, capsys):
        desc = tmp_path / "logical.xml"
        desc.write_text(self.DESC)
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3"]) == 0
        compiled = capsys.readouterr().out
        doc = parse_document(compiled)
        assert [s.host for s in doc.island.servers] == ["h1", "h2", "h3"]
        out = tmp_path / "compiled.xml"
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3", "--out", str(out)]) == 0
        assert main(["plan", str(out), "--size", str(12 * 4)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "partition: exact"
        assert lines[1].split("\t")[1] == "8:8,32:8"

    def test_wrong_server_count_exits_2(self, tmp_path, capsys):
        desc = tmp_path / "logical.xml"
        desc.write_text(self.DESC)
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2"]) == 2

    @pytest.mark.parametrize(
        "field, bad, path",
        [
            ('DIST_SKALAR="2"', 'DIST_SKALAR="0"', "/PARSTORAGE/TYPE[1]/ARRAY[1]/DIMENSION[1]"),
            ('LENGTH="4"', 'LENGTH="0"', "/PARSTORAGE/TYPE[1]/ARRAY[1]/TYPE[1]/ETYPE[1]"),
        ],
    )
    def test_invalid_descriptor_exits_2(self, tmp_path, capsys, field, bad, path):
        desc = tmp_path / "logical.xml"
        desc.write_text(self.DESC.replace(field, bad))
        out = tmp_path / "compiled.xml"
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[positive-int] {path}:" in err
        assert not out.exists()

    def test_invalid_island_exits_2(self, tmp_path, capsys):
        # the compiled descriptor replaces the island, but an invalid
        # input is rejected whole, as plan, scatter and gather do
        desc = tmp_path / "logical.xml"
        island = '<ISLAND NAME="lab"><SERVER HOST="old"><DEVICE DEVICE_ID="/dev/a"/></SERVER></ISLAND>'
        desc.write_text(self.DESC.replace('<ISLAND NAME="lab"/>', island))
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3"]) == 2
        captured = capsys.readouterr()
        assert "[device-access] /PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]:" in captured.err
        assert captured.out == ""

    def test_no_distributed_array_exits_2(self, two_server, capsys):
        assert main(["hpf-compile", str(two_server), "--servers", "h1"]) == 2


class TestInit:
    def test_lists_devices(self, store_env, capsys):
        assert main(["init"]) == 0
        out = capsys.readouterr().out
        assert out.count("vipios_server.") == 3
        assert "root\t" in out
