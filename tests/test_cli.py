import argparse
import errno
import io
import logging
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from descriptors import (
    CONFIG_TEMPLATE,
    FIRST_DEVICE,
    MINIMAL_XML,
    THREE_SERVER_BALANCED_XML,
    THREE_SERVER_XML,
    TWO_SERVER_XML,
    deep_xml,
)
from reference import naive_coverage, naive_owners, painted_report
import xdgdl
from xdgdl import OwnerMap, parse_document, store, views
from xdgdl.cli import main

ROOT = Path(__file__).resolve().parent.parent
# declared encodings that no codec, or expat, can read a descriptor with
UNUSABLE_ENCODINGS = ["NO-SUCH", "base64", "rot13", "UTF-7", "shift_jis", "utf-32", "idna"]


_FIRST_BLOCK = "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]/BLOCK[1]"

# the exit code each exported error ends a command with
EXIT_CODES = {
    "XdgdlError": 4,
    "IoFailure": 4,
    "DescriptorError": 2,
    "ParseError": 2,
    "ValidationError": 2,
    "InvalidDocument": 2,
    "ConfigError": 2,
    "NotAPartition": 3,
}


def test_every_exported_error_carries_its_exit_code():
    exported = {n: c for n, c in vars(xdgdl).items() if isinstance(c, type) and issubclass(c, Exception)}
    assert {name: cls.exit_code for name, cls in exported.items()} == EXIT_CODES


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

    @pytest.mark.parametrize("encoding", UNUSABLE_ENCODINGS)
    def test_unusable_declared_encoding_exits_2(self, tmp_path, capsys, encoding):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(MINIMAL_XML.replace("ISO-8859-1", encoding).encode("ascii"))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("xdgdl: declared encoding is unusable: ")

    @pytest.mark.parametrize("offset", ["9223372036854775808", "99999999999999999999999", "9" * 5000, "-" + "9" * 5000])
    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_integer_past_int64_is_a_bad_integer(self, tmp_path, capsys, command, offset):
        bad = tmp_path / "bad.xml"
        bad.write_text(TWO_SERVER_XML.replace('OFFSET="0"', f'OFFSET="{offset}"', 1))
        assert main([command, str(bad), *(["--size", "72"] if command == "plan" else [])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"xdgdl: [bad-integer] {_FIRST_BLOCK}: attribute OFFSET must be a base-10 integer, got '{offset}'\n"

    def test_largest_integer_parses(self, tmp_path, capsys):
        # SKIP_HEADER is taken once, outside the period; in a BLOCK it would pass the period's range
        big = tmp_path / "big.xml"
        big.write_text(TWO_SERVER_XML.replace('SKIP_HEADER="0"', 'SKIP_HEADER="9223372036854775807"', 1))
        assert main(["validate", str(big)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize(
        "text, old, new, path, period",
        [
            (TWO_SERVER_XML, 'OFFSET="0"', 'OFFSET="9223372036854775807"', "", 2**63 - 1 + 36),
            (
                TWO_SERVER_XML,
                'REPEAT="3"\n            COUNT="5" STRIDE="7"',
                'REPEAT="4" COUNT="4611686018427387904" STRIDE="0"',
                "",
                2**64 + 7,
            ),
            # the inner view's period passes the range: reported there, not again at the outer view
            (THREE_SERVER_BALANCED_XML, 'REPEAT="3"\n                COUNT="5"', 'REPEAT="4" COUNT="4611686018427387904"', "/BLOCK[1]/VIEW[1]", 2**64 + 21),
            # the inner view's period of 29 is in range, two takes of 2**62 of it are not
            (THREE_SERVER_BALANCED_XML, 'REPEAT="2"\n            COUNT="1"', 'REPEAT="2" COUNT="4611686018427387904"', "", 2 * 29 * 2**62 + 24),
        ],
        ids=["offset", "count", "nested-inner", "nested-outer"],
    )
    def test_period_past_int64_is_a_violation(self, tmp_path, capsys, text, old, new, path, period):
        """A view whose period passes the 64-bit range breaks the
        ``view-period`` rule, at the innermost such VIEW's path, so
        ``validate`` refuses what ``plan`` would, with the same words."""
        assert old in text
        bad = tmp_path / "bad.xml"
        bad.write_text(text.replace(old, new, 1))
        message = f"[view-period] /PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]{path}: view period exceeds the 64-bit range: {period}"
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out == message + "\n"
        assert main(["plan", str(bad), "--size", "10"]) == 2
        assert message in capsys.readouterr().err

    def test_warnings_print_before_ok(self, tmp_path, capsys):
        lone = tmp_path / "lone.xml"
        lone.write_text(MINIMAL_XML.replace('<ISLAND NAME="lonely"/>', '<ISLAND NAME="lonely"><SERVER HOST="h"/></ISLAND>'))
        assert main(["validate", str(lone)]) == 0
        assert capsys.readouterr().out == (
            "warning: [server-empty] /PARSTORAGE/ISLAND[1]/SERVER[1]: server declares no devices\nOK\n"
        )


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

    @pytest.mark.parametrize("size", ["abc", "-1", "1_0", "+10", " 10", "\u0661\u0660"])
    def test_bad_size_is_a_usage_error(self, two_server, capsys, size):
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(two_server), "--size", size])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --size: size must be a non-negative integer, got '{size}'\n")

    @pytest.mark.parametrize("size", ["9223372036854775808", "99999999999999999999999", "9" * 5000])
    @pytest.mark.parametrize("command", ["plan", "gather"])
    def test_size_past_int64_is_a_usage_error(self, two_server, tmp_path, capsys, command, size):
        argv = {
            "plan": ["plan", str(two_server), "--size", size],
            "gather": ["gather", str(two_server), "--frags", str(tmp_path), "--size", size, "--out", str(tmp_path / "g")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --size: size must be at most 9223372036854775807, got '{size}'\n")
        assert not (tmp_path / "g").exists()

    def test_largest_size_passes_the_usage_check(self, two_server, tmp_path, capsys):
        argv = ["gather", str(two_server), "--frags", str(tmp_path), "--size", "9223372036854775807", "--out", "g"]
        assert main(argv) == 4
        assert "has no fragment" in capsys.readouterr().err

    def test_missing_descriptor_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "missing.xml"
        assert main(["plan", str(missing), "--size", "4"]) == 4
        assert capsys.readouterr() == ("", f"xdgdl: cannot read descriptor (No such file or directory): {missing}\n")

    def test_plan_past_memory_is_one_line_exit_4(self, two_server, capsys):
        """The plan of a 10**15-byte file would need hundreds of TB, past
        any address space, so the allocation fails at once."""
        assert main(["plan", str(two_server), "--size", str(10**15)]) == 4
        assert capsys.readouterr() == ("", "xdgdl: out of memory\n")

    def test_tiled_plan_past_memory_fails_before_filling_it(self, tmp_path):
        """A 1 B x 2 plan formats whole decimal blocks; at 10**15 bytes
        their text is asked for at once, so the plan fails at once.  The
        child's address space is capped at 1 GiB: a plan that filled memory
        first would peak near the cap, not at a few MiB."""
        one_byte = (
            TWO_SERVER_XML.replace('SKIP="7"', 'SKIP="1"')
            .replace('OFFSET="0" REPEAT="3"\n            COUNT="5" STRIDE="7"', 'OFFSET="0" REPEAT="1" COUNT="1" STRIDE="0"')
            .replace('OFFSET="5" REPEAT="3"\n            COUNT="7" STRIDE="5"', 'OFFSET="1" REPEAT="1" COUNT="1" STRIDE="0"')
        )
        desc = tmp_path / "one.xml"
        desc.write_text(one_byte)
        code = (
            "import resource, sys, tracemalloc\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from xdgdl.cli import main\n"
            "tracemalloc.start()\n"
            "status = main(sys.argv[1:])\n"
            "print(status, tracemalloc.get_traced_memory()[1] >> 20, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for size, status in (10**5, 0), (10**15, 4):
            argv = [sys.executable, "-c", code, "plan", str(desc), "--size", str(size)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            *lines, last = proc.stderr.splitlines()
            assert lines == ([] if status == 0 else ["xdgdl: out of memory"])
            exited, peak_mib = map(int, last.split())
            assert exited == status and peak_mib < 16, proc.stderr
        assert proc.stdout == ""

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

    def test_scatter_prints_the_painted_report_of_a_headered_map(self, tmp_path, capsys):
        """Past the header and the one swept period, the report is tiled:
        it must be the gaps and overlaps painted byte by byte."""
        text = THREE_SERVER_XML.replace('<VIEW SKIP_HEADER="0" SKIP="12">', '<VIEW SKIP_HEADER="7" SKIP="12">', 1)
        desc = tmp_path / "headered.xml"
        desc.write_text(text)
        size = 7 + 5 * 82 + 30
        src = tmp_path / "input.bin"
        src.write_bytes(b"h" * size)
        assert main(["scatter", str(src), str(desc), "--out", str(tmp_path / "f")]) == 3
        doc = parse_document(text)
        devices = [(srv.host, dev) for srv in doc.island.servers for dev in srv.devices]
        gaps, overlaps = painted_report(
            [naive_coverage(dev.view, size) for _, dev in devices],
            [f"{doc.island.name}/{host}/{dev.device_id}" for host, dev in devices],
            size,
        )
        assert len(gaps) > 10 and len(overlaps) > 10 and sum(gaps[-1]) > 7 + 4 * 82
        expected = ["xdgdl: not an exact partition (gaps+overlaps)"]
        expected += [f"  gap {start}:{length}" for start, length in gaps]
        expected += [f"  overlap {start}:{length} claimed by {', '.join(who)}" for (start, length), who in overlaps]
        assert capsys.readouterr().err == "\n".join(expected) + "\n"
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("extra, code", [("003.frag", 4), ("\u00b2.frag", 0), ("1.frag.bak", 0)])
    def test_gather_extra_fragment_exits_4(self, tmp_path, capsys, extra, code):
        desc = tmp_path / "three.xml"
        desc.write_text(THREE_SERVER_BALANCED_XML)
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(22).randbytes(82))
        frag_dir = tmp_path / "frags"
        assert main(["scatter", str(src), str(desc), "--out", str(frag_dir)]) == 0
        (frag_dir / extra).write_bytes(b"")
        out = tmp_path / "rebuilt.bin"
        assert main(["gather", str(desc), "--frags", str(frag_dir), "--size", "82", "--out", str(out)]) == code
        if code:  # a fragment number past the entries
            assert "003.frag" in capsys.readouterr().err
            assert not out.exists()
        else:  # not a fragment name
            assert out.read_bytes() == src.read_bytes()

    def test_gather_missing_fragment_exits_4(self, two_server, tmp_path, capsys):
        frag_dir = tmp_path / "nofrags"
        frag_dir.mkdir()
        code = main(
            ["gather", str(two_server), "--frags", str(frag_dir), "--size", "8", "--out", str(tmp_path / "o")]
        )
        assert code == 4


class TestNestingDepth:
    """An element nested deeper than MAX_DEPTH (256, PARSTORAGE being 1) is
    refused at its path before it is read, however deep the text goes."""

    COMMANDS = ("validate", "plan", "scatter", "gather")

    @staticmethod
    def run(command, desc, tmp_path):
        data = tmp_path / "data.bin"
        data.write_bytes(b"0123456789")
        frags = tmp_path / "frags"
        argv = {
            "validate": ["validate", str(desc)],
            "plan": ["plan", str(desc), "--size", "10"],
            "scatter": ["scatter", str(data), str(desc), "--out", str(frags)],
            "gather": ["gather", str(desc), "--frags", str(frags), "--size", "10", "--out", str(tmp_path / "back.bin")],
        }[command]
        return main(argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_at_the_bound_every_command_runs(self, tmp_path, capsys, command):
        """125 nested VIEWs put the BYTEBLOCK at depth 255; 254 TYPEs put
        the ETYPE at 256."""
        desc = tmp_path / "deep.xml"
        desc.write_text(deep_xml(views=125, types=254))
        if command == "gather":
            assert self.run("scatter", desc, tmp_path) == 0
        assert self.run(command, desc, tmp_path) == 0
        if command == "gather":
            assert (tmp_path / "back.bin").read_bytes() == b"0123456789"

    @pytest.mark.parametrize("views", [126, 5000])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_past_the_bound_every_command_exits_2(self, tmp_path, capsys, command, views):
        desc = tmp_path / "deep.xml"
        desc.write_text(deep_xml(views=views))
        (tmp_path / "frags").mkdir()
        (tmp_path / "frags" / "000.frag").write_bytes(b"0123456789")
        assert self.run(command, desc, tmp_path) == 2
        tag = "BYTEBLOCK" if views == 126 else "VIEW"  # at depth 257, below 126 VIEW/BLOCK pairs
        path = f"{FIRST_DEVICE}{'/VIEW[1]/BLOCK[1]' * 126}/{tag}[1]"
        assert capsys.readouterr() == ("", f"xdgdl: [nesting-depth] {path}: {tag} is nested deeper than 256 elements\n")

    def test_types_past_the_bound_exit_2(self, tmp_path, capsys):
        desc = tmp_path / "deep.xml"
        desc.write_text(deep_xml(views=1, types=255))
        assert main(["validate", str(desc)]) == 2
        path = "/PARSTORAGE" + "/TYPE[1]" * 255 + "/ETYPE[1]"
        assert capsys.readouterr() == ("", f"xdgdl: [nesting-depth] {path}: ETYPE is nested deeper than 256 elements\n")

    def test_a_sidecar_past_the_bound_falls_back(self, store_env, capsys):
        src = store_env / "deep"
        src.write_bytes(b"d" * 5000)
        (store_env / ".vd.deep").write_text(deep_xml(views=400))
        assert main(["cp-in", str(src)]) == 0
        err = capsys.readouterr().err
        assert "does not parse: [nesting-depth] " in err and err.endswith("; using default cyclic distribution\n")
        assert main(["cp-out", "deep", str(store_env / "deep.back")]) == 0
        assert (store_env / "deep.back").read_bytes() == b"d" * 5000


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

    def test_names_that_differ_in_punctuation_store_apart(self, store_env):
        """``a b`` and ``a_b`` take the default descriptor under
        TIMESTAMPs of their own, so neither copy meets the other's fragments."""
        for i, name in enumerate(["a b", "a_b"]):
            (store_env / name).write_bytes(random.Random(i).randbytes(5000 + i))
            assert main(["cp-in", str(store_env / name)]) == 0
        for name in ["a b", "a_b"]:
            assert main(["cp-out", name, str(store_env / f"{name}.back")]) == 0
            assert (store_env / f"{name}.back").read_bytes() == (store_env / name).read_bytes()

    @pytest.mark.parametrize("length", [235, 242])
    def test_a_long_name_with_an_underscore_stores_and_reads_back(self, store_env, length):
        """A name of up to 242 bytes, the longest whose ``.vd.<name>.size.tmp``
        fits NAME_MAX, stores even when it is not its own TIMESTAMP: the
        ID keeps 200 characters of it, so ``<id>.frag.tmp`` is 228 bytes."""
        name = "a_" + "b" * (length - 2)
        (store_env / name).write_bytes(random.Random(length).randbytes(9000))
        assert main(["cp-in", str(store_env / name)]) == 0
        assert main(["cp-out", name, str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == (store_env / name).read_bytes()

    def test_a_242_byte_name_stores_and_reads_back(self, store_env):
        name = "n" * 242
        (store_env / name).write_bytes(random.Random(242).randbytes(9000))
        assert main(["cp-in", str(store_env / name)]) == 0
        assert main(["cp-out", name, str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == (store_env / name).read_bytes()

    @pytest.mark.parametrize("length", [243, 253])
    def test_a_name_past_242_bytes_is_refused_before_any_work(self, store_env, capsys, length):
        """Its ``.vd.<name>.size.tmp`` would pass NAME_MAX: ``cp-in`` exits 4
        naming the limit, and nothing lands in the store root or a device
        directory (at 253 bytes the sidecar probe itself fails)."""
        name = "n" * length
        (store_env / name).write_bytes(b"x" * 9000)
        assert main(["cp-in", str(store_env / name)]) == 4
        vip = store_env / "grid" / "vipios"
        limit = os.pathconf(vip, "PC_NAME_MAX")
        assert capsys.readouterr() == ("", f"xdgdl: cannot store a name whose .vd.<name>.size.tmp passes the store root's NAME_MAX of {limit} bytes: {vip / name}\n")
        assert [p for p in (store_env / "grid").rglob("*") if p.is_file()] == []

    @staticmethod
    def beside_a_timestamp_of(store_env, length):
        """``t``, 72 bytes, beside a valid sidecar whose TIMESTAMP has ``length`` characters."""
        src = store_env / "t"
        src.write_bytes(b"t" * 72)
        (store_env / ".vd.t").write_text(TWO_SERVER_XML.replace('TIMESTAMP="testfile_regular"', f'TIMESTAMP="{"t" * length}"'))
        assert main(["validate", str(store_env / ".vd.t")]) == 0
        return src

    def test_a_246_character_timestamp_stores_and_reads_back(self, store_env):
        assert main(["cp-in", str(self.beside_a_timestamp_of(store_env, 246))]) == 0
        assert main(["cp-out", "t", str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == b"t" * 72

    def test_a_247_character_timestamp_is_refused_before_any_work(self, store_env, capsys):
        """Its fragments' ``<timestamp>.frag.tmp`` would pass NAME_MAX:
        ``cp-in`` exits 4 naming the first device directory, and nothing
        lands under the grid."""
        src = self.beside_a_timestamp_of(store_env, 247)
        capsys.readouterr()
        assert main(["cp-in", str(src)]) == 4
        device = store_env / "grid" / "ViPIOS" / "dev1"
        limit = os.pathconf(device, "PC_NAME_MAX")
        message = f"cannot store a TIMESTAMP whose <timestamp>.frag.tmp passes the device directory's NAME_MAX of {limit} bytes"
        assert capsys.readouterr() == ("", f"xdgdl: {message}: {device}\n")
        assert [p for p in (store_env / "grid").rglob("*") if p.is_file()] == []

    def test_sidecar_with_a_period_past_int64_falls_back(self, store_env, capsys):
        src = store_env / "vast"
        src.write_bytes(b"v" * 5000)
        vast = TWO_SERVER_XML.replace('REPEAT="3"\n            COUNT="5" STRIDE="7"', 'REPEAT="4" COUNT="4611686018427387904" STRIDE="0"')
        (store_env / ".vd.vast").write_text(vast)
        assert main(["cp-in", str(src)]) == 0
        err = capsys.readouterr().err
        assert "is invalid: [view-period]" in err and "default cyclic distribution" in err
        assert main(["cp-out", "vast", str(store_env / "vast.back")]) == 0
        assert (store_env / "vast.back").read_bytes() == b"v" * 5000

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

    def test_conf_that_is_not_utf8_exits_2(self, store_env, capsys):
        conf = store_env / "ViPIOS.conf"
        conf.write_bytes(b"\xff\xfe" + conf.read_bytes())
        assert main(["init"]) == 2
        assert capsys.readouterr().err.startswith(f"xdgdl: cannot read VIP_CONF={conf}: 'utf-8' codec can't decode")
        assert not (store_env / "grid").exists()

    def test_default_descriptor_that_breaks_a_rule_exits_2(self, store_env, capsys):
        """An empty SRV_GROUP_NAME would name the default descriptor's
        island; the configuration is refused first, naming the key, and
        nothing is stored."""
        conf = store_env / "ViPIOS.conf"
        conf.write_text(conf.read_text().replace('"vipios_server"', '""'))
        src = store_env / "data"
        src.write_bytes(b"x" * 10)
        assert main(["cp-in", str(src)]) == 2
        assert capsys.readouterr().err == "xdgdl: SRV_GROUP_NAME must be nonempty, got '' (token 8)\n"
        assert not (store_env / "grid").exists()

    def test_cp_in_of_a_file_in_the_store_root_is_refused(self, tmp_path, monkeypatch, capsys):
        """With the store root the source's own directory, the stub the
        store renames into place is the source itself."""
        conf = tmp_path / "ViPIOS.conf"
        conf.write_text('MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 16 SRV_GROUP_NAME "g" SRVR_DEVICE_LIST 2 d1 d2 VIP_DIR "."')
        monkeypatch.setenv("VIP_CONF", str(conf))
        monkeypatch.delenv("VIP_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        data = random.Random(5).randbytes(100)
        (tmp_path / "x.bin").write_bytes(data)
        assert main(["cp-in", "x.bin"]) == 4
        assert capsys.readouterr().err == "xdgdl: cannot store a file over itself, the store root holds it: x.bin\n"
        assert (tmp_path / "x.bin").read_bytes() == data
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["ViPIOS.conf", "d1", "d2", "x.bin"]

    @pytest.mark.parametrize("alias", ["absolute", "symlink", "dangling-symlink", "through-a-missing-directory"])
    def test_device_directories_spelled_twice_are_refused(self, tmp_path, monkeypatch, capsys, alias):
        """One directory listed under two spellings would get both of its
        devices' fragments: the layout is refused before anything is written,
        whether the directory exists or not (a dangling link to it, or a
        path through a directory that ``cp-in`` would make, spells it too)."""
        monkeypatch.chdir(tmp_path)
        if alias == "absolute":
            first, second = "d1", f"{tmp_path}/d1"
        elif alias == "through-a-missing-directory":
            (tmp_path / "real").mkdir()
            first, second = "real", "gone/../real"
        else:
            if alias == "symlink":
                (tmp_path / "real").mkdir()
            (tmp_path / "link").symlink_to("real")
            first, second = "real", "link"
        conf = tmp_path / "ViPIOS.conf"
        conf.write_text(f'MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 16 SRV_GROUP_NAME "g" SRVR_DEVICE_LIST 2 {first} {second} VIP_DIR "vip"')
        monkeypatch.setenv("VIP_CONF", str(conf))
        monkeypatch.delenv("VIP_DIR", raising=False)
        (tmp_path / "x.bin").write_bytes(random.Random(6).randbytes(48))
        before = sorted(p.name for p in tmp_path.rglob("*"))
        assert main(["cp-in", "x.bin"]) == 4
        assert capsys.readouterr().err == f"xdgdl: device directories must be distinct: {second}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("alias", ["plain", "symlink"])
    def test_store_root_that_is_a_device_directory_is_refused(self, tmp_path, monkeypatch, capsys, alias):
        """A stub in a device directory could be renamed over a fragment
        (``a.frag`` is both the stub of ``a.frag`` and a fragment of
        ``a``): the layout is refused before anything is written, in
        either ``cp-in`` order."""
        monkeypatch.chdir(tmp_path)
        if alias == "plain":
            root = "d1"
        else:
            (tmp_path / "d1").mkdir()
            (tmp_path / "root").symlink_to("d1")
            root = "root"
        conf = tmp_path / "ViPIOS.conf"
        conf.write_text(f'MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 16 SRV_GROUP_NAME "g" SRVR_DEVICE_LIST 2 d1 d2 VIP_DIR "{root}"')
        monkeypatch.setenv("VIP_CONF", str(conf))
        monkeypatch.delenv("VIP_DIR", raising=False)
        (tmp_path / "in").mkdir()
        for name in ("a", "a.frag"):
            (tmp_path / "in" / name).write_bytes(random.Random(name).randbytes(64))
        before = sorted(p.name for p in tmp_path.rglob("*"))
        for argv in (["init"], ["cp-in", "in/a"], ["cp-in", "in/a.frag"], ["cp-in", "in/a"]):
            assert main(argv) == 4, argv
            assert capsys.readouterr() == ("", f"xdgdl: store root must not be a device directory: {root}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_cp_out_creates_no_directories(self, store_env, capsys):
        assert main(["cp-out", "nothing", str(store_env / "out.bin")]) == 4
        assert capsys.readouterr().err == "xdgdl: no stored descriptor for 'nothing'\n"
        assert sorted(p.name for p in store_env.iterdir()) == ["ViPIOS.conf"]

    def test_cp_out_of_a_manifest_that_is_a_directory_exits_4(self, store_env, capsys):
        src = store_env / "m"
        src.write_bytes(b"x" * 72)
        assert main(["cp-in", str(src)]) == 0
        manifest = store_env / "grid" / "vipios" / ".vd.m"
        manifest.unlink()
        manifest.mkdir()
        capsys.readouterr()
        assert main(["cp-out", "m", str(store_env / "back")]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("xdgdl: cannot read manifest (") and err.endswith(f"): {manifest}\n")
        assert not (store_env / "back").exists()

    def test_cp_out_of_a_size_that_is_a_directory_exits_4(self, store_env, capsys):
        src = store_env / "x"
        src.write_bytes(b"x" * 72)
        assert main(["cp-in", str(src)]) == 0
        size = store_env / "grid" / "vipios" / ".vd.x.size"
        size.unlink()
        size.mkdir()
        capsys.readouterr()
        assert main(["cp-out", "x", str(store_env / "back")]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("xdgdl: cannot read size (") and err.endswith(f"): {size}\n")
        assert not (store_env / "back").exists()

    def test_sidecar_that_is_a_directory_falls_back(self, store_env, capsys):
        src, sidecar = store_env / "d", store_env / ".vd.d"
        src.write_bytes(b"d" * 100)
        sidecar.mkdir()
        assert main(["cp-in", str(src)]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"xdgdl: cannot read sidecar (Is a directory): {sidecar}; ")
        assert err.endswith("; using default cyclic distribution\n")
        cfg = xdgdl.parse_config((store_env / "ViPIOS.conf").read_text())
        stored = (store_env / "grid" / "vipios" / ".vd.d").read_bytes()
        assert stored == xdgdl.serialize_document(xdgdl.default_descriptor(cfg, "d")).encode("ascii")
        assert main(["cp-out", "d", str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == b"d" * 100

    def test_cp_in_of_a_directory_exits_4(self, store_env, capsys):
        src = store_env / "folder"
        src.mkdir()
        assert main(["cp-in", str(src)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("xdgdl: cannot read source file (") and err.endswith(f"): {src}\n")
        assert list((store_env / "grid" / "vipios").iterdir()) == []

    def test_cp_out_corrupt_size_exits_4(self, store_env, capsys):
        src = store_env / "data.bin"
        src.write_bytes(b"0123456789")
        assert main(["cp-in", str(src)]) == 0
        (store_env / "grid" / "vipios" / ".vd.data.bin.size").write_bytes(b"\xff\n")
        capsys.readouterr()
        assert main(["cp-out", "data.bin", str(store_env / "back.bin")]) == 4
        assert "is corrupt" in capsys.readouterr().err
        assert not (store_env / "back.bin").exists()

    @pytest.mark.parametrize("raw", [b"9" * 5000, b"%d" % 2**63], ids=["5000-digits", "2-to-the-63"])
    def test_cp_out_size_past_int64_is_corrupt(self, store_env, capsys, raw):
        src = store_env / "data.bin"
        src.write_bytes(b"0123456789")
        assert main(["cp-in", str(src)]) == 0
        (store_env / "grid" / "vipios" / ".vd.data.bin.size").write_bytes(raw + b"\n")
        capsys.readouterr()
        assert main(["cp-out", "data.bin", str(store_env / "back.bin")]) == 4
        err = capsys.readouterr().err
        assert err == "xdgdl: stored size for 'data.bin' is corrupt: size must be at most 9223372036854775807\n"
        assert not (store_env / "back.bin").exists()

    @pytest.mark.parametrize(
        "name, content, message",
        [
            (
                ".vd.m",
                b"<PARSTORAGE",
                "stored descriptor for 'm' is unreadable: unclosed token (line 1, column 0)",
            ),
            (
                ".vd.m",
                TWO_SERVER_XML.replace('STRIDE="7"', 'STRIDE="-7"').encode(),
                "stored descriptor for 'm' is invalid: [nonnegative-int] "
                "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]/VIEW[1]/BLOCK[1]: STRIDE must be >= 0, got -7",
            ),
            (".vd.m.size", None, "no stored size for 'm'"),
        ],
        ids=["unparsable", "invalid", "no-size"],
    )
    def test_cp_out_damaged_manifest_exits_4(self, store_env, capsys, name, content, message):
        """A stored descriptor that does not parse or validate, or a missing
        stored size, fails before the destination is touched."""
        src = store_env / "m"
        src.write_bytes(b"x" * 72)
        (store_env / ".vd.m").write_text(TWO_SERVER_XML)
        assert main(["cp-in", str(src)]) == 0
        path = store_env / "grid" / "vipios" / name
        if content is None:
            path.unlink()
        else:
            path.write_bytes(content)
        dst = store_env / "back.bin"
        dst.write_bytes(b"untouched")
        capsys.readouterr()
        assert main(["cp-out", "m", str(dst)]) == 4
        assert capsys.readouterr().err == f"xdgdl: {message}\n"
        assert dst.read_bytes() == b"untouched"
        assert not (store_env / "back.bin.tmp").exists()

    @pytest.mark.parametrize("encoding", UNUSABLE_ENCODINGS)
    def test_unusable_encoding_in_a_sidecar_falls_back(self, store_env, capsys, encoding):
        src = store_env / "enc"
        src.write_bytes(b"e" * 100)
        (store_env / ".vd.enc").write_bytes(TWO_SERVER_XML.replace("ISO-8859-1", encoding).encode("ascii"))
        assert main(["cp-in", str(src)]) == 0
        err = capsys.readouterr().err
        assert "does not parse: declared encoding is unusable: " in err
        assert err.endswith("; using default cyclic distribution\n")
        assert main(["cp-out", "enc", str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == b"e" * 100

    @pytest.mark.parametrize("encoding", UNUSABLE_ENCODINGS)
    def test_cp_out_of_an_unusable_stored_encoding_exits_4(self, store_env, capsys, encoding):
        src = store_env / "m"
        src.write_bytes(b"x" * 72)
        (store_env / ".vd.m").write_text(TWO_SERVER_XML)
        assert main(["cp-in", str(src)]) == 0
        stored = store_env / "grid" / "vipios" / ".vd.m"
        stored.write_bytes(TWO_SERVER_XML.replace("ISO-8859-1", encoding).encode("ascii"))
        capsys.readouterr()
        assert main(["cp-out", "m", str(store_env / "back")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("xdgdl: stored descriptor for 'm' is unreadable: declared encoding is unusable: ")
        assert not (store_env / "back").exists()

    def test_recopy_with_another_timestamp_reads_back_the_new_bytes(self, store_env, capsys):
        src = store_env / "again"
        for version, stamp in ((b"old" * 30, "first_copy"), (b"new" * 30, "second_copy")):
            src.write_bytes(version)
            (store_env / ".vd.again").write_text(TWO_SERVER_XML.replace("testfile_regular", stamp))
            assert main(["cp-in", str(src)]) == 0
            assert main(["cp-out", "again", str(store_env / "back")]) == 0
            assert (store_env / "back").read_bytes() == version

    def test_positional_device_ids_stay_off_stderr(self, store_env, caplog):
        """The bench's nested descriptor names /dev/vda1 on every server;
        resolving its devices by position is logged at DEBUG only."""
        sidecar = (ROOT / "bench" / "nested_3srv.xml").read_text(encoding="iso-8859-1")
        for name, stamp in (("cli_copy", "in_a_process"), ("lib_copy", "in_pytest")):
            (store_env / name).write_bytes(random.Random(5).randbytes(500))
            text = sidecar.replace("regular_multilevel", stamp)
            (store_env / f".vd.{name}").write_text(text, encoding="iso-8859-1")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, "-m", "xdgdl.cli", "cp-in", str(store_env / "cli_copy")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        with caplog.at_level(logging.DEBUG, logger="xdgdl.store"):
            assert main(["cp-in", str(store_env / "lib_copy")]) == 0
        records = [r for r in caplog.records if "resolved positionally" in r.getMessage()]
        assert [r.levelno for r in records] == [logging.DEBUG] * 3

    def test_a_directory_in_the_way_of_a_tmp_file_is_a_write_failure(self, store_env, capsys):
        src = store_env / "f"
        src.write_bytes(random.Random(7).randbytes(20_000))
        blocker = store_env / "grid" / "vipios" / ".vd.f.tmp"
        blocker.mkdir(parents=True)
        assert main(["cp-in", str(src)]) == 4
        assert "cannot write" in capsys.readouterr().err
        assert [p for p in (store_env / "grid").rglob("*.tmp") if p != blocker] == []
        assert blocker.is_dir()

    def test_reserved_names_are_refused_before_anything_is_written(self, store_env, capsys):
        """``.vd.foo`` and ``.vd.foo.size`` are foo's stored descriptor and
        size: storing a file under either name would replace them."""
        src, grid = store_env / "src", store_env / "grid"
        src.mkdir()
        (src / "foo").write_bytes(b"0123456789" * 50)
        assert main(["cp-in", str(src / "foo")]) == 0
        stored = {p: p.read_bytes() for p in grid.rglob("*") if p.is_file()}
        for name in (".vd.foo.size", ".vd.foo"):
            (src / name).write_bytes(b"")
            capsys.readouterr()
            assert main(["cp-in", str(src / name)]) == 4
            assert "reserved '.vd.' prefix" in capsys.readouterr().err
            assert {p: p.read_bytes() for p in grid.rglob("*") if p.is_file()} == stored
        assert main(["cp-out", "foo", str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == b"0123456789" * 50

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("a.tmp", "a", "cannot write (File exists)"),  # a's temporary stub and manifest are a.tmp's files
            ("a", "a.size", "metadata file exists without its stub"),  # .vd.a.size is a's size
            ("a.size", "a", "metadata file exists without its stub"),  # .vd.a.size is a.size's manifest
        ],
    )
    def test_a_name_whose_files_are_another_stored_files_is_refused(self, store_env, capsys, first, second, message):
        src, grid = store_env / "src", store_env / "grid"
        src.mkdir()
        rng = random.Random(17)
        for name in (first, second):
            (src / name).write_bytes(rng.randbytes(9000))
        assert main(["cp-in", str(src / first)]) == 0
        stored = {p: p.read_bytes() for p in grid.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["cp-in", str(src / second)]) == 4
        assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in grid.rglob("*") if p.is_file()} == stored
        assert main(["cp-out", first, str(store_env / "back")]) == 0
        assert (store_env / "back").read_bytes() == (src / first).read_bytes()

    def test_a_tmp_name_stored_after_its_base_name_keeps_both(self, store_env, capsys):
        src = store_env / "src"
        src.mkdir()
        rng = random.Random(19)
        for name in ("a", "a.tmp"):
            (src / name).write_bytes(rng.randbytes(9000))
            assert main(["cp-in", str(src / name)]) == 0
        for name in ("a", "a.tmp"):
            assert main(["cp-out", name, str(store_env / "back")]) == 0
            assert (store_env / "back").read_bytes() == (src / name).read_bytes()

    def test_a_users_tmp_file_beside_the_target_is_left_alone(self, store_env, capsys):
        (store_env / "foo").write_bytes(b"0123456789" * 50)
        assert main(["cp-in", str(store_env / "foo")]) == 0
        report, mine = store_env / "report", store_env / "report.tmp"
        mine.write_bytes(b"mine")
        for name in ("nothing", "foo"):
            capsys.readouterr()
            assert main(["cp-out", name, str(report)]) == 4
            assert f"cannot write (File exists): {mine}" in capsys.readouterr().err
            assert mine.read_bytes() == b"mine"
            assert not report.exists()

    def test_cp_out_unknown_name_exits_4(self, store_env, capsys):
        assert main(["cp-out", "ghost", str(store_env / "g")]) == 4

    def test_vip_dir_env_conflict_warns(self, store_env, monkeypatch, capsys):
        monkeypatch.setenv("VIP_DIR", "/elsewhere")
        src = store_env / "noted"
        src.write_bytes(b"1234")
        assert main(["cp-in", str(src)]) == 0
        assert "configuration wins" in capsys.readouterr().err


def _missing_descriptor(command):
    def setup(tmp, desc):
        missing, out = tmp / "missing.xml", tmp / "out"
        argv = {
            "validate": ["validate", missing],
            "plan": ["plan", missing, "--size", "4"],
            "scatter": ["scatter", tmp / "data", missing, "--out", out],
            "gather": ["gather", missing, "--frags", tmp, "--size", "4", "--out", out],
            "hpf-compile": ["hpf-compile", missing, "--servers", "s1,s2"],
        }[command]
        return argv, "read descriptor", errno.ENOENT, missing

    return setup


def _scatter_input_missing(tmp, desc):
    return ["scatter", tmp / "missing.bin", desc, "--out", tmp / "out"], "read source file", errno.ENOENT, tmp / "missing.bin"


def _scatter_out_is_a_file(tmp, desc):
    (tmp / "out").write_bytes(b"")
    return ["scatter", tmp / "data", desc, "--out", tmp / "out"], "create output directory", errno.EEXIST, tmp / "out"


def _gather_frags_is_a_file(tmp, desc):
    (tmp / "frags").write_bytes(b"")
    return ["gather", desc, "--frags", tmp / "frags", "--size", "72", "--out", tmp / "g"], "list fragments", errno.ENOTDIR, tmp / "frags"


def _gather_fragment_is_a_directory(tmp, desc):
    assert main(["scatter", str(tmp / "data"), str(desc), "--out", str(tmp / "frags")]) == 0
    (tmp / "frags" / "000.frag").unlink()
    (tmp / "frags" / "000.frag").mkdir()
    argv = ["gather", desc, "--frags", tmp / "frags", "--size", "72", "--out", tmp / "g"]
    return argv, "read fragment", errno.EISDIR, tmp / "frags" / "000.frag"


def _stored(tmp, damaged):
    """Store ``data``, then swap the named file of it for a directory."""
    assert main(["cp-in", str(tmp / "data")]) == 0
    damaged.unlink()
    damaged.mkdir()
    return ["cp-out", "data", tmp / "back"]


def _cp_out_fragment_is_a_directory(tmp, desc):
    fragment = tmp / "grid" / "ViPIOS" / "dev1" / "data.frag"
    return _stored(tmp, fragment), "read fragment", errno.EISDIR, fragment


def _cp_out_manifest_is_a_directory(tmp, desc):
    manifest = tmp / "grid" / "vipios" / ".vd.data"
    return _stored(tmp, manifest), "read manifest", errno.EISDIR, manifest


def _cp_out_size_is_a_directory(tmp, desc):
    size = tmp / "grid" / "vipios" / ".vd.data.size"
    return _stored(tmp, size), "read size", errno.EISDIR, size


def _device_directory_is_a_file(tmp, desc):
    device = tmp / "grid" / "ViPIOS" / "dev2"
    device.parent.mkdir(parents=True)
    device.write_bytes(b"")
    return ["cp-in", tmp / "data"], "create device directory", errno.EEXIST, device


def _store_root_cannot_be_created(tmp, desc):
    (tmp / "grid").mkdir()
    (tmp / "grid" / "vipios").write_bytes(b"")
    return ["cp-in", tmp / "data"], "create store root", errno.EEXIST, tmp / "grid" / "vipios"


class TestOneFailureRule:
    """Every file-system failure a command meets ends it with exit 4 and
    one stderr line, ``xdgdl: cannot <action> (<reason>): <path>``."""

    @pytest.mark.parametrize(
        "setup",
        [
            *(pytest.param(_missing_descriptor(c), id=f"{c}-missing-descriptor") for c in ["validate", "plan", "scatter", "gather", "hpf-compile"]),
            *(pytest.param(f, id=f.__name__[1:].replace("_", "-")) for f in [
                _scatter_input_missing, _scatter_out_is_a_file, _gather_frags_is_a_file, _gather_fragment_is_a_directory,
                _cp_out_fragment_is_a_directory, _device_directory_is_a_file, _store_root_cannot_be_created,
                _cp_out_manifest_is_a_directory, _cp_out_size_is_a_directory,
            ]),
        ],
    )
    def test_one_line_naming_the_path_once(self, store_env, two_server, capsys, setup):
        (store_env / "data").write_bytes(random.Random(29).randbytes(72))
        argv, action, code, path = setup(store_env, two_server)
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 4
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"xdgdl: cannot {action} ({os.strerror(code)}): {path}\n")
        assert err.count(str(path)) == 1 and "[Errno" not in err and "Traceback" not in err


class TestOnePartitionCheck:
    """However many layers require an exact map, a command decides the
    partition once: the map keeps its verdict."""

    @pytest.fixture
    def checks(self, monkeypatch) -> list:
        calls = []
        real = views.check_partition
        monkeypatch.setattr(views, "check_partition", lambda dmap: calls.append(dmap) or real(dmap))
        return calls

    def test_each_command_of_an_exact_descriptor(self, store_env, checks):
        src, desc = store_env / "f", store_env / ".vd.f"
        src.write_bytes(random.Random(14).randbytes(5000))
        desc.write_text(THREE_SERVER_BALANCED_XML)
        commands = {
            "plan": ["plan", str(desc), "--size", "5000"],
            "scatter": ["scatter", str(src), str(desc), "--out", str(store_env / "frags")],
            "gather": ["gather", str(desc), "--frags", str(store_env / "frags"), "--size", "5000", "--out", str(store_env / "g")],
            "cp-in": ["cp-in", str(src)],
            "cp-out": ["cp-out", "f", str(store_env / "back")],
        }
        counts = {}
        for name, argv in commands.items():
            checks.clear()
            assert main(argv) == 0, name
            counts[name] = len(checks)
        assert counts == dict.fromkeys(commands, 1)
        assert (store_env / "g").read_bytes() == (store_env / "back").read_bytes() == src.read_bytes()

    def test_scatter_of_a_non_exact_descriptor(self, tmp_path, capsys, checks):
        desc, src = tmp_path / "three.xml", tmp_path / "input.bin"
        desc.write_text(THREE_SERVER_XML)
        src.write_bytes(b"q" * 82)
        assert main(["scatter", str(src), str(desc), "--out", str(tmp_path / "f")]) == 3
        assert len(checks) == 1
        assert capsys.readouterr().err.startswith("xdgdl: not an exact partition (gaps+overlaps)\n")


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

    # one distributed array of CHAR records
    ARRAY = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="{timestamp}">
  <PROCESSORS NAME="P"><PROC_DIMENSION LOWER="1" UPPER="2"/></PROCESSORS>
  <TYPE>
    <ARRAY NAME="a" DISTRIBUTE_ONTO="P">
      <TYPE><ETYPE TYPE="CHAR" LENGTH="{record}"/></TYPE>
      <DIMENSION LOWER="1" UPPER="{records}" DISTRIBUTE="{distribute}"/>
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
        assert capsys.readouterr() == ("", "xdgdl: mapping needs 3 servers, --servers lists 2\n")

    def test_block_with_group_size_is_a_validate_warning(self, tmp_path, capsys):
        """DIST_SKALAR on a BLOCK dimension is the validation rule's
        warning; hpf-compile compiles it without a word."""
        desc = tmp_path / "logical.xml"
        desc.write_text(self.DESC.replace('DISTRIBUTE="CYCLIC"', 'DISTRIBUTE="BLOCK"'))
        assert main(["validate", str(desc)]) == 0
        assert capsys.readouterr().out == (
            "warning: [block-dist-skalar] /PARSTORAGE/TYPE[1]/ARRAY[1]/DIMENSION[1]: "
            "DIST_SKALAR has no effect on BLOCK distribution\n"
            "warning: [island-empty] /PARSTORAGE/ISLAND[1]: island declares no servers; nothing can be placed\nOK\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3"]) == 0
        compiled, err = capsys.readouterr()
        assert err == ""
        assert [s.host for s in parse_document(compiled).island.servers] == ["h1", "h2", "h3"]

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

    def test_undeclared_processors_exit_2(self, tmp_path, capsys):
        desc = tmp_path / "logical.xml"
        desc.write_text(self.DESC.replace('DISTRIBUTE_ONTO="P"', 'DISTRIBUTE_ONTO="ghost"'))
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "[unresolved-processors] /PARSTORAGE/TYPE[1]/ARRAY[1]: DISTRIBUTE_ONTO='ghost' names no declared PROCESSORS\n"
        )
        assert captured.out == ""

    def test_no_distributed_array_exits_2(self, two_server, capsys):
        assert main(["hpf-compile", str(two_server), "--servers", "h1"]) == 2
        assert capsys.readouterr() == ("", "xdgdl: expected exactly one distributed ARRAY, found 0\n")

    def test_failed_write_leaves_the_old_out_file(self, tmp_path, capsys, monkeypatch):
        desc, out = tmp_path / "logical.xml", tmp_path / "compiled.xml"
        desc.write_text(self.DESC)
        out.write_bytes(b"<previous/>\n")

        class FailingSink(io.FileIO):
            def write(self, data):
                super().write(bytes(data[:16]))
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "open", lambda path, mode, buffering: FailingSink(path, mode), raising=False)
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3", "--out", str(out)]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"<previous/>\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "record, records, period",
        [(4, 2**62, 2**64), (1, 2**63 - 1, 2**63)],
        ids=["2-to-the-62-of-4-bytes", "int64-max-of-1-byte"],
    )
    def test_lowering_past_int64_exits_2_and_writes_nothing(self, tmp_path, capsys, record, records, period):
        """A BLOCK half of the array is one take: its view's period passes
        INT64_MAX, so the output would fail its own validate or plan."""
        desc, out = tmp_path / "logical.xml", tmp_path / "compiled.xml"
        desc.write_text(self.ARRAY.format(timestamp="huge", record=record, records=records, distribute="BLOCK"))
        expected = ("", f"xdgdl: view period exceeds the 64-bit range: {period}\n")
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2", "--out", str(out)]) == 2
        assert capsys.readouterr() == expected
        assert list(tmp_path.iterdir()) == [desc]
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2"]) == 2
        assert capsys.readouterr() == expected

    def test_a_host_xml_cannot_carry_exits_2_and_writes_nothing(self, tmp_path):
        """A control character has no form in XML 1.0, so the descriptor
        would not read back: refused before stdout or ``--out``."""
        desc, out = tmp_path / "logical.xml", tmp_path / "compiled.xml"
        desc.write_text(self.ARRAY.format(timestamp="t", record=1, records=10, distribute="CYCLIC"))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for extra in ((), ("--out", str(out))):
            argv = [sys.executable, "-m", "xdgdl.cli", "hpf-compile", str(desc), "--servers", "h\x01,h2", *extra]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout) == (2, ""), extra
            assert proc.stderr == "xdgdl: cannot write 'h\\x01': XML 1.0 cannot carry U+0001\n", extra
            assert list(tmp_path.iterdir()) == [desc], extra

    def test_an_out_tmp_that_exists_is_refused_and_left_alone(self, tmp_path, capsys):
        desc, out, mine = tmp_path / "logical.xml", tmp_path / "compiled.xml", tmp_path / "compiled.xml.tmp"
        desc.write_text(self.DESC)
        mine.write_bytes(b"mine")
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3", "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"xdgdl: cannot write (File exists): {mine}\n"
        assert mine.read_bytes() == b"mine"
        assert not out.exists()

    def test_stdout_is_the_out_file_under_any_stdout_encoding(self, tmp_path, capsys):
        """A non-ASCII TIMESTAMP is written as character references, so
        stdout carries the ``--out`` bytes, which validate, whatever
        encoding stdout has."""
        desc, out, saved = tmp_path / "logical.xml", tmp_path / "compiled.xml", tmp_path / "stdout.xml"
        desc.write_text(self.ARRAY.format(timestamp="t&#233;&#322;", record=1, records=10, distribute="CYCLIC"))

        def compile_(*argv, encoding="utf-8"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING=encoding)
            argv = [sys.executable, "-m", "xdgdl.cli", "hpf-compile", str(desc), "--servers", "s1,s2", *argv]
            return subprocess.run(argv, env=env, capture_output=True, timeout=60)

        proc = compile_("--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert b'TIMESTAMP="t&#233;&#322;"' in out.read_bytes()
        for encoding in ("utf-8", "latin-1"):
            proc = compile_(encoding=encoding)
            assert (proc.returncode, proc.stderr) == (0, b""), encoding
            assert proc.stdout == out.read_bytes(), encoding
        saved.write_bytes(proc.stdout)
        assert main(["validate", str(saved)]) == 0
        assert capsys.readouterr() == ("OK\n", "")

    # 7 rows dealt in pairs over 2 leave a ragged last turn; the COLUMN
    # array stores its rows fastest
    RAGGED = DESC.replace('UPPER="3"/>', 'UPPER="2"/>\n    <PROC_DIMENSION LOWER="1" UPPER="2"/>').replace(
        '<ARRAY NAME="m" DISTRIBUTE_ONTO="P">', '<ARRAY NAME="m" DISTRIBUTE_ONTO="P" MAJOR="COLUMN">'
    ).replace(
        '<DIMENSION LOWER="1" UPPER="12" DISTRIBUTE="CYCLIC" DIST_SKALAR="2"/>',
        '<DIMENSION LOWER="1" UPPER="7" DISTRIBUTE="CYCLIC" DIST_SKALAR="2"/>\n'
        '      <DIMENSION LOWER="1" UPPER="5" DISTRIBUTE="BLOCK"/>',
    )

    def test_column_major_ragged_turn_plans_exactly(self, tmp_path, capsys):
        desc, out = tmp_path / "logical.xml", tmp_path / "compiled.xml"
        desc.write_text(self.RAGGED)
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3,h4", "--out", str(out)]) == 0
        assert main(["plan", str(out), "--size", str(7 * 5 * 4)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "partition: exact"
        totals = [sum(int(run.split(":")[1]) for run in line.split("\t")[1].split(",")) for line in lines[:-1]]
        doc = parse_document(self.RAGGED)
        owners = naive_owners(doc.types[0].children[0], doc.processors[0].shape)
        assert totals == [4 * owners.count(target) for target in range(4)] == [48, 32, 36, 24]

    def test_never_reads_the_owner_table(self, tmp_path, monkeypatch):
        def refuse(om):
            raise AssertionError("hpf-compile read OwnerMap.owners")

        monkeypatch.setattr(OwnerMap, "owners", property(refuse))
        for text, servers in ((self.DESC, "h1,h2,h3"), (self.RAGGED, "h1,h2,h3,h4")):
            desc = tmp_path / "logical.xml"
            desc.write_text(text)
            assert main(["hpf-compile", str(desc), "--servers", servers, "--out", str(tmp_path / "out.xml")]) == 0


class TestInit:
    def test_lists_devices(self, store_env, capsys):
        assert main(["init"]) == 0
        out = capsys.readouterr().out
        assert out.count("vipios_server.") == 3
        assert "root\t" in out


    def test_device_path_under_a_regular_file_exits_4(self, store_env, capsys):
        (store_env / "grid").write_bytes(b"")
        assert main(["init"]) == 4
        device = store_env / "grid" / "ViPIOS" / "dev1"
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("xdgdl: cannot create device directory (") and err.endswith(f"): {device}\n")
        assert (store_env / "grid").read_bytes() == b""


class TestOneParser:
    """``main`` builds its parser once per process and reuses it on every
    later call; nothing carries over from one call to the next."""

    def test_later_calls_construct_no_parser(self, two_server, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        argparse.ArgumentParser(prog="probe")
        assert built == ["probe"]  # the wrapper sees every construction
        argv = ["plan", str(two_server), "--size", "72"]
        assert main(argv) == 0  # warm-up
        built.clear()
        for _ in range(3):
            assert main(argv) == 0
        assert built == []

    def test_out_then_stdout(self, tmp_path, capsys):
        desc, out = tmp_path / "logical.xml", tmp_path / "compiled.xml"
        desc.write_text(TestHpfCompile.DESC)
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(["hpf-compile", str(desc), "--servers", "h1,h2,h3"]) == 0
        assert capsys.readouterr() == (out.read_text(encoding="iso-8859-1"), "")

    def test_usage_error_then_valid_call(self, two_server, capsys):
        argv = ["plan", str(two_server), "--size", "72"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(two_server), "--size", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]], ids=["top", "plan"])
    def test_help_is_the_same_on_a_later_call(self, two_server, monkeypatch, capsys, argv):
        """The first call of a fresh process and two later calls here
        print the same bytes."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-m", "xdgdl.cli", *argv], env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["plan", str(two_server), "--size", "72"]) == 0
        capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr() == (proc.stdout.decode(), "")
