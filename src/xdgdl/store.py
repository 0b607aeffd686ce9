"""Simulated datagrid store backed by a local directory tree.

Each configured device path becomes a directory holding raw fragment
files named ``<timestamp>.frag``.  The user-visible directory holds a
0-byte stub per stored file, the descriptor under ``.vd.<name>``, and the
byte count under ``.vd.<name>.size`` (the descriptor file itself stays
byte-identical to what the user supplied, so the size rides in a sidecar
of its own).  ``put_file`` refuses names that begin with ``.vd.`` and
names whose metadata file exists without their stub: ``.vd.a.size`` is
the size of ``a`` and the manifest of ``a.size``.

Descriptor devices are resolved against layout devices positionally: the
descriptors in circulation happily reuse one device id on every server,
so ids are advisory and order is authoritative.  Fragments stay in
map-entry order throughout, and ``_fragment_paths`` is the one rule for
where they live: ``<timestamp>.frag`` in the directory of the layout
device at the entry's position.  No two devices share a directory,
and the user-visible directory is none of theirs, however they are
spelled (``grid_layout`` compares ``(st_dev, st_ino)``, or resolved paths
while one cannot be statted; ``init_store`` makes only what is missing).

``put_file`` and ``get_file`` are the store's only write and read path,
and they stream: ``put_file`` reads a binary stream and ``get_file``
writes one, window by window (see ``scatter`` for the width rule), so
memory stays bounded by one 512 KiB budget for a window and its share,
``WINDOW_BYTES``, plus one transient column, whatever the descriptor's
header or period, not by the file.  Callers holding bytes pass
``io.BytesIO``; a stream that cannot seek, such as a pipe, is spooled
to a temporary file first (``measured``).  Every output file is written
to a new ``<path>.tmp`` (one that exists is refused) through an
unbuffered handle and renamed into place (``committed``), so no reader
sees a half-written file.  A put commits its fragments and its three
metadata files in one block, renamed in order: the fragments, then
``.vd.<name>`` and its ``.size``, then the stub, so storing a name again
with another TIMESTAMP reads back the new bytes (the old fragments stay
on disk).  ``rebuild``, shared by ``get_file`` and ``xdgdl gather``, is
the one place that opens fragment files, and ``gather`` checks every
length before a byte is written.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISDIR
from typing import BinaryIO, Iterator

from .config import VipfsConfig
from .errors import IoFailure, XdgdlError, failing
from .model import Document, parse_document, parse_size, serialize_document, validate_document
from .scatter import WINDOW_BYTES, gather, remaining, require_exact, scatter, write_all
from .views import DistributionMap, build_distribution_map

__all__ = [
    "LayoutDevice", "GridLayout", "grid_layout", "init_store", "put_file", "get_file", "rebuild", "committed",
    "measured",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LayoutDevice:
    host: str
    device_id: str
    directory: Path


@dataclass(frozen=True)
class GridLayout:
    """The store's paths: user-visible root plus ordered device dirs."""

    root: Path
    devices: tuple[LayoutDevice, ...]


def _resolved(cfg: VipfsConfig) -> tuple[GridLayout, list[os.stat_result | None]]:
    """The layout under ``cfg`` and a stat of each device directory, then of
    the root (None if it fails); refuses two spellings of one directory."""
    if not cfg.device_paths:
        raise XdgdlError("configuration declares zero devices")
    paths = [Path(raw) for raw in (*cfg.device_paths, cfg.vip_dir)]
    stats: list[os.stat_result | None] = []
    for path in paths:
        try:
            stats.append(os.stat(path))
        except OSError:
            stats.append(None)
    # a path that cannot be statted may name another's directory once made (``gone/../d1``)
    keys = [os.path.realpath(path) for path in paths] if None in stats else [(st.st_dev, st.st_ino) for st in stats]
    for i, directory in enumerate(paths[:-1]):
        if keys[i] in keys[:i]:
            raise IoFailure(directory, "device directories must be distinct")
    if keys[-1] in keys[:-1]:  # a stub could be renamed over a fragment there
        raise IoFailure(cfg.vip_dir, "store root must not be a device directory")
    devices = tuple(LayoutDevice(f"{cfg.srv_group_name}.{i}", raw, path) for i, (raw, path) in enumerate(zip(cfg.device_paths, paths), 1))
    return GridLayout(root=paths[-1], devices=devices), stats


def grid_layout(cfg: VipfsConfig) -> GridLayout:
    """The store's paths and host names under ``cfg``; creates nothing."""
    return _resolved(cfg)[0]


def init_store(cfg: VipfsConfig) -> GridLayout:
    """The layout (``grid_layout``), with each device directory and the
    root its stat found missing or not a directory created; idempotent."""
    layout, stats = _resolved(cfg)
    targets = [(d.directory, "device directory") for d in layout.devices] + [(layout.root, "store root")]
    for (directory, what), st in zip(targets, stats):
        if st is None or not S_ISDIR(st.st_mode):  # a file in the way fails here (File exists)
            failing(directory, f"create {what}", directory.mkdir, parents=True, exist_ok=True)
    return layout


@contextmanager
def committed(paths: list[Path]) -> Iterator[list[BinaryIO]]:
    """Unbuffered handles on new ``<path>.tmp`` files (IoFailure if one
    exists), one per path, each renamed over its path once the block
    succeeds.  If the block fails, the ``.tmp`` files it created are
    removed and no path is touched."""
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    sinks: list[BinaryIO] = []
    try:
        try:
            for tmp in tmps:
                sinks.append(failing(tmp, "write", open, tmp, "xb", buffering=0))
            yield sinks
        finally:
            for sink in sinks:
                sink.close()
        for tmp, path in zip(tmps, paths):
            failing(path, "write", os.replace, tmp, path)
    except BaseException:
        for tmp in tmps[: len(sinks)]:
            with suppress(OSError):  # a failed removal must not hide the failure being raised
                tmp.unlink(missing_ok=True)
        raise


@contextmanager
def measured(src: BinaryIO) -> Iterator[tuple[BinaryIO, int]]:
    """The stream and the count of bytes left in it, taken from its end.
    A stream that cannot seek, such as a pipe, is copied a window at a
    time into a temporary file, which is read instead and closed after."""
    if src.seekable():
        yield src, remaining(src)
        return
    with tempfile.TemporaryFile() as spool:
        shutil.copyfileobj(src, spool, WINDOW_BYTES)
        spool.seek(0)
        yield spool, remaining(spool)


def _fragment_paths(dmap: DistributionMap, layout: GridLayout, timestamp: str) -> tuple[Path, ...]:
    """Each map entry's fragment file, ``<timestamp>.frag`` in the
    directory of the layout device the entry resolves to, positionally."""
    if len(dmap.entries) > len(layout.devices):
        raise XdgdlError(f"descriptor references {len(dmap.entries)} devices, layout provides {len(layout.devices)}")
    for entry, device in zip(dmap.entries, layout.devices):
        if entry.device_id != device.device_id:
            log.debug("descriptor device %s resolved positionally to %s", entry.device_id, device.directory)
    return tuple(device.directory / f"{timestamp}.frag" for device in layout.devices[: len(dmap.entries)])


def put_file(
    layout: GridLayout,
    name: str,
    src: BinaryIO,
    manifest: Document,
    manifest_text: bytes | None = None,
) -> None:
    """Scatter the rest of the stream per the manifest and persist
    fragments plus metadata.

    The size is taken once (``measured``); a source that then shrinks or
    grows raises IoFailure and leaves no fragment behind.
    When the caller holds the descriptor's original text (a user-supplied
    sidecar), passing it keeps the stored ``.vd.`` file byte-identical to
    it; otherwise the manifest is serialized canonically.  A name that
    begins with ``.vd.`` (the metadata files' prefix), whose metadata file
    exists without its stub, or a file that would pass its directory's
    NAME_MAX (``.vd.<name>.size.tmp``, a fragment's ``<timestamp>.frag.tmp``)
    raises IoFailure before the source is measured or a file is opened.
    """
    if name.startswith(".vd."):
        raise IoFailure(layout.root / name, "cannot store a name that begins with the reserved '.vd.' prefix")
    devices = layout.devices[: sum(len(server.devices) for server in manifest.island.servers)]
    longest = [(layout.root, f".vd.{name}.size.tmp", layout.root / name, "a name whose .vd.<name>.size.tmp passes the store root's")]
    longest += [(d.directory, f"{manifest.timestamp}.frag.tmp", d.directory, "a TIMESTAMP whose <timestamp>.frag.tmp passes the device directory's") for d in devices]
    for directory, file, path, what in longest:
        name_max = failing(directory, "query NAME_MAX", os.pathconf, directory, "PC_NAME_MAX")
        if len(os.fsencode(file)) > name_max:
            raise IoFailure(path, f"cannot store {what} NAME_MAX of {name_max} bytes")
    manifest_path, size_path, stub = layout.root / f".vd.{name}", layout.root / f".vd.{name}.size", layout.root / name
    if (manifest_path.exists() or size_path.exists()) and not stub.exists():  # a fresh name's stub is statted by copy_in alone
        raise IoFailure(stub, "cannot store a name whose metadata file exists without its stub")
    with measured(src) as (src, size):
        dmap = build_distribution_map(manifest, size)
        frag_paths = _fragment_paths(dmap, layout, manifest.timestamp)
        require_exact(dmap)  # raises NotAPartition before anything is written
        for path in frag_paths:
            if path.exists():
                raise XdgdlError(f"fragment {path} already exists")

        if manifest_text is None:
            manifest_text = serialize_document(manifest).encode("ascii")
        metadata = {
            manifest_path: manifest_text,
            size_path: f"{dmap.file_size}\n".encode("ascii"),
            stub: b"",  # the 0-byte stub, renamed last, marks the file as stored
        }
        with committed([*frag_paths, *metadata]) as sinks:
            scatter(src, dmap, sinks[: len(frag_paths)])
            for sink, payload in zip(sinks[len(frag_paths) :], metadata.values()):
                write_all(sink, payload)


def get_file(layout: GridLayout, name: str, dst: BinaryIO) -> None:
    """Rebuild a stored file from its manifest and fragments into ``dst``;
    every check passes before the first byte is written."""
    manifest_path, size_path = layout.root / f".vd.{name}", layout.root / f".vd.{name}.size"
    raw = failing(manifest_path, "read manifest", manifest_path.read_bytes, missing=f"no stored descriptor for {name!r}")
    try:
        manifest = parse_document(raw)
    except XdgdlError as exc:
        raise XdgdlError(f"stored descriptor for {name!r} is unreadable: {exc}") from exc
    report = validate_document(manifest)
    if not report.ok:
        raise XdgdlError(f"stored descriptor for {name!r} is invalid: {report.violations[0]}")
    raw = failing(size_path, "read size", size_path.read_bytes, missing=f"no stored size for {name!r}")
    try:
        size = parse_size(raw.strip().decode("latin-1"))
    except ValueError as exc:
        raise XdgdlError(f"stored size for {name!r} is corrupt: {exc}") from None
    dmap = build_distribution_map(manifest, size)
    rebuild(dmap, _fragment_paths(dmap, layout, manifest.timestamp), dst)


def rebuild(dmap: DistributionMap, paths: list[Path], dst: BinaryIO) -> None:
    """Rebuild the file of the map from its entries' fragment files into
    ``dst`` (``gather``), once the map is exact and every file is open."""
    require_exact(dmap)
    with ExitStack() as stack:
        sources: list[BinaryIO] = []
        for entry, path in zip(dmap.entries, paths):
            missing = f"device {entry.label} has no fragment at {path}"
            sources.append(stack.enter_context(failing(path, "read fragment", open, path, "rb", buffering=0, missing=missing)))
        gather(sources, dmap, dst)
