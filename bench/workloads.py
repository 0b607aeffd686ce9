"""Workload inputs, the operation set each iteration runs, and its checks.

Every operation is one ``xdgdl.cli.main(argv)`` call against files the
benchmark generated from its seed.  Each iteration stores its file under
a fresh name (``f000000.bin``, ``f000001.bin``, ...), so fragment names
never collide and re-copying a stored name is never exercised.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
DATA_BUFLEN = 4096

HPF_TEMPLATE = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="{timestamp}">
  <PROCESSORS NAME="P">
    <PROC_DIMENSION LOWER="1" UPPER="{targets}"/>
  </PROCESSORS>
  <TYPE>
    <ARRAY NAME="data" DISTRIBUTE_ONTO="P">
      <TYPE><ETYPE TYPE="CHAR" LENGTH="{record}"/></TYPE>
      <DIMENSION LOWER="1" UPPER="{records}" DISTRIBUTE="{distribute}"/>
    </ARRAY>
  </TYPE>
  <ISLAND NAME="bench"/>
</PARSTORAGE>
"""


@dataclass(frozen=True)
class Workload:
    """One input shape.

    ``layout`` says how cp-in finds the file's descriptor: ``default``
    (no sidecar, round-robin of DATA_BUFLEN), ``hpf`` (the sidecar is this
    iteration's hpf-compile output) or a descriptor file in this
    directory.  Every workload also compiles an HPF array of ``record``-
    byte CHAR records spanning its file, distributed ``distribute`` over
    its devices.
    """

    name: str
    size: int
    devices: int
    layout: str
    record: int
    distribute: str

    @property
    def records(self) -> int:
        return -(-self.size // self.record)

    def pattern(self) -> list[int]:
        """Owner of each byte of one layout period."""
        if self.layout == "default":
            return reference.round_robin_pattern(DATA_BUFLEN, self.devices)
        if self.layout == "hpf":
            return self.hpf_pattern()
        return reference.pattern_from_xml((HERE / self.layout).read_bytes())

    def hpf_pattern(self) -> list[int]:
        group = self.record
        if self.distribute == "BLOCK":
            group *= -(-self.records // self.devices)
        return reference.round_robin_pattern(group, self.devices)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stripe_4k", 16 << 20, 3, "default", DATA_BUFLEN, "CYCLIC"),
        Workload("cyclic_1b", 16 << 10, 2, "hpf", 1, "CYCLIC"),
        Workload("nested_3srv", 128 << 10, 3, "nested_3srv.xml", 82, "BLOCK"),
    )
}

OPS = ("hpf-compile", "cp-in", "cp-out", "scatter", "gather", "plan")


class OpFailed(Exception):
    pass


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from xdgdl import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _file_stats(dirs: list[Path]) -> tuple[int, int]:
    files = nbytes = 0
    for d in dirs:
        for path in d.rglob("*"):
            if path.is_file():
                files += 1
                nbytes += path.stat().st_size
    return files, nbytes


class Run:
    """One workload's files under ``work``: source, store and outputs."""

    def __init__(self, spec: Workload, seed: int, work: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.work = work
        self.src = work / "src"
        self.store_dirs = [work / "store" / f"d{i + 1}" for i in range(spec.devices)]
        self.vip = work / "store" / "vip"
        self.data = b""
        self.expected: list[bytes] = []  # reference fragment per device
        self.expected_extents = 0
        self.iteration = 0
        self.timestamps: set[str] = set()
        self.store_counts: set[tuple[int, int]] = set()  # (files, bytes) each cp-in left in the store

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Generate the input file, its descriptor inputs and VIP_CONF,
        and create the store."""
        self.data = random.Random(self.seed).randbytes(self.spec.size)
        self.src.mkdir(parents=True)
        self.source().write_bytes(self.data)
        self._write_descriptor_inputs()
        conf = self.work / "vip.conf"
        conf.write_text(
            f"MAX_APP 1 MAX_SRV_FILE 1024 DATA_BUFLEN {DATA_BUFLEN}\n"
            f'SRV_GROUP_NAME "bench" SRVR_DEVICE_LIST {self.spec.devices}\n'
            + "".join(f"{d}/\n" for d in self.store_dirs)
            + f'VIP_DIR "{self.vip}"\n'
        )
        os.environ["VIP_CONF"] = str(conf)
        code, _, err = run_cli(["init"])
        if code != 0:
            raise OpFailed(f"init exited {code}: {err.strip()}")

    def prepare_checks(self) -> None:
        """Reference fragments of the generated bytes; not part of set-up
        because the program never sees them."""
        pattern = self.spec.pattern()
        self.expected = reference.fragments(self.data, pattern)
        self.expected_extents = reference.extent_count(pattern, self.spec.size)

    def name(self) -> str:
        return f"f{self.iteration:06d}.bin"

    def source(self) -> Path:
        return self.src / self.name()

    def _hpf_input(self) -> Path:
        return self.work / "hpf.xml"

    def _hpf_output(self) -> Path:
        if self.spec.layout == "hpf":
            return self.src / f".vd.{self.name()}"
        return self.work / "hpf-out.xml"

    def _write_descriptor_inputs(self) -> None:
        from xdgdl.vipfs import timestamp_for_name

        timestamp = timestamp_for_name(self.name())
        if timestamp in self.timestamps:  # e.g. "a b" and "a_b"; re-copy semantics are undefined
            raise RuntimeError(f"stored names collide after sanitising: {timestamp}")
        self.timestamps.add(timestamp)
        spec = self.spec
        self._hpf_input().write_text(
            HPF_TEMPLATE.format(
                timestamp=timestamp,
                targets=spec.devices,
                record=spec.record,
                records=spec.records,
                distribute=spec.distribute,
            )
        )
        if spec.layout not in ("default", "hpf"):
            text = (HERE / spec.layout).read_text(encoding="iso-8859-1")
            start = text.index('TIMESTAMP="') + len('TIMESTAMP="')
            text = text[:start] + timestamp + text[text.index('"', start) :]
            (self.src / f".vd.{self.name()}").write_text(text, encoding="iso-8859-1")

    def next_iteration(self) -> None:
        """Move the source to the next fresh name and clear last outputs."""
        old = self.source()
        for leftover in self.src.glob(".vd.*"):
            leftover.unlink()
        self.iteration += 1
        old.rename(self.source())
        self._write_descriptor_inputs()
        for path in (self.work / "out.bin", self.work / "gather.bin", self.work / "hpf-out.xml"):
            path.unlink(missing_ok=True)
        shutil.rmtree(self.work / "frags", ignore_errors=True)
        for d in [*self.store_dirs, self.vip]:
            for entry in d.iterdir():
                if entry.is_dir():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()

    # -- operations -----------------------------------------------------

    def argv(self, op: str) -> list[str]:
        name, size = self.name(), str(self.spec.size)
        manifest = str(self.vip / f".vd.{name}")
        servers = ",".join(f"s{i + 1}" for i in range(self.spec.devices))
        return {
            "hpf-compile": ["hpf-compile", str(self._hpf_input()), "--servers", servers, "--out", str(self._hpf_output())],
            "cp-in": ["cp-in", str(self.source())],
            "cp-out": ["cp-out", name, str(self.work / "out.bin")],
            "scatter": ["scatter", str(self.source()), manifest, "--out", str(self.work / "frags")],
            "gather": ["gather", manifest, "--frags", str(self.work / "frags"), "--size", size, "--out", str(self.work / "gather.bin")],
            "plan": ["plan", manifest, "--size", size],
        }[op]

    def check(self, op: str, stdout: str) -> None:
        """Compare an operation's output with the reference; raise OpFailed."""
        if op == "hpf-compile":
            got = reference.pattern_from_xml(self._hpf_output().read_bytes())
            if got != self.spec.hpf_pattern():
                raise OpFailed("compiled descriptor selects other bytes than the HPF owner formula")
        elif op == "cp-in":
            counts = _file_stats([*self.store_dirs, self.vip])
            self.store_counts.add(counts)
            if len(self.store_counts) > 1:
                raise OpFailed(f"cp-in left differing (files, bytes) in the store: {sorted(self.store_counts)}")
            if counts[1] < self.spec.size:
                raise OpFailed(f"store holds {counts[1]} bytes for a {self.spec.size}-byte file")
        elif op in ("cp-out", "gather"):
            path = self.work / ("out.bin" if op == "cp-out" else "gather.bin")
            if path.read_bytes() != self.data:
                raise OpFailed(f"{op} bytes differ from the source")
        elif op == "scatter":
            frags = sorted((self.work / "frags").iterdir())
            got = [p.read_bytes() for p in frags]
            if got != self.expected:
                raise OpFailed(f"scatter fragments differ from the reference ({len(got)} files)")
        elif op == "plan":
            lines = stdout.splitlines()
            if not lines or lines[-1] != "partition: exact":
                raise OpFailed(f"plan verdict is {lines[-1] if lines else 'missing'!r}")
            totals = [
                sum(int(e.split(":")[1]) for e in line.split("\t")[1].split(",") if e)
                for line in lines[:-1]
            ]
            if totals != [len(f) for f in self.expected]:
                raise OpFailed(f"plan device totals {totals} differ from {[len(f) for f in self.expected]}")


def copyfile_mibps(run: Run) -> float:
    """Median MiB/s of shutil.copyfile on the same bytes: a machine
    reference, not a measure of the program."""
    src, dst = run.source(), run.work / "copy.bin"
    rates = []
    copies = max(3, math.ceil((64 << 20) / max(1, run.spec.size)))
    for _ in range(copies):
        t0 = time.perf_counter()
        shutil.copyfile(src, dst)
        rates.append(run.spec.size / (1 << 20) / (time.perf_counter() - t0))
        dst.unlink()
    return statistics.median(rates)
