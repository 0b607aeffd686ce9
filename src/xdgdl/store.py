"""Simulated datagrid store backed by a local directory tree.

Each configured device path becomes a directory holding raw fragment
files named ``<timestamp>.frag``.  The user-visible directory holds a
0-byte stub per stored file, the descriptor under ``.vd.<name>``, and the
byte count under ``.vd.<name>.size`` (the descriptor file itself stays
byte-identical to what the user supplied, so the size rides in a sidecar
of its own).

Descriptor devices are resolved against layout devices positionally: the
descriptors in circulation happily reuse one device id on every server,
so ids are advisory and order is authoritative.  Fragments stay in
map-entry order throughout: ``put_file`` writes what ``scatter``
returns, and ``read_fragments`` (shared with ``xdgdl gather``) reads
them back for ``gather``, which checks their lengths.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

from .config import VipfsConfig
from .errors import (
    DuplicateTimestamp,
    EmptyDeviceList,
    IoFailure,
    MissingFragment,
    MissingManifest,
    RosterMismatch,
    XdgdlError,
)
from .model import Document, parse_document, serialize_document, validate_document
from .scatter import Fragment, gather, scatter
from .views import DistributionMap, build_distribution_map

__all__ = ["LayoutDevice", "GridLayout", "StoredFile", "init_store", "put_file", "get_file", "read_fragments"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LayoutDevice:
    island: str
    host: str
    device_id: str
    directory: Path


@dataclass(frozen=True)
class GridLayout:
    """Materialized store: user-visible root plus ordered device dirs."""

    root: Path
    devices: tuple[LayoutDevice, ...]


@dataclass(frozen=True)
class StoredFile:
    timestamp_id: str
    manifest: Document
    fragment_paths: tuple[Path, ...]


def init_store(cfg: VipfsConfig) -> GridLayout:
    """Create device directories and the user-visible root; idempotent."""
    if not cfg.device_paths:
        raise EmptyDeviceList("configuration declares zero devices")
    seen: set[Path] = set()
    devices = []
    for i, raw in enumerate(cfg.device_paths):
        directory = Path(raw)
        if directory in seen:
            raise IoFailure(directory, "device directories must be distinct")
        seen.add(directory)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(directory, f"cannot create device directory ({exc})") from exc
        devices.append(
            LayoutDevice(
                island=cfg.srv_group_name,
                host=f"{cfg.srv_group_name}.{i + 1}",
                device_id=raw,
                directory=directory,
            )
        )
    root = Path(cfg.vip_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(root, f"cannot create store root ({exc})") from exc
    return GridLayout(root=root, devices=tuple(devices))


def _write_atomic(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(path, f"cannot write ({exc})") from exc


def _devices_for(dmap: DistributionMap, layout: GridLayout) -> tuple[LayoutDevice, ...]:
    """The layout devices the map's entries resolve to, positionally."""
    if len(dmap.entries) > len(layout.devices):
        raise RosterMismatch(
            f"descriptor references {len(dmap.entries)} devices, layout provides {len(layout.devices)}"
        )
    return layout.devices[: len(dmap.entries)]


def put_file(
    layout: GridLayout,
    name: str,
    data: bytes,
    manifest: Document,
    manifest_text: bytes | None = None,
) -> StoredFile:
    """Scatter data per the manifest and persist fragments plus metadata.

    When the caller holds the descriptor's original text (a user-supplied
    sidecar), passing it keeps the stored ``.vd.`` file byte-identical to
    it; otherwise the manifest is serialized canonically.
    """
    dmap = build_distribution_map(manifest, len(data))
    devices = _devices_for(dmap, layout)
    for entry, device in zip(dmap.entries, devices):
        if entry.device_id != device.device_id:
            log.warning(
                "descriptor device %s resolved positionally to %s", entry.device_id, device.directory
            )
    fragments = scatter(data, dmap)  # raises NotAPartition before anything is written

    timestamp = manifest.timestamp
    frag_paths = tuple(device.directory / f"{timestamp}.frag" for device in devices)
    for path in frag_paths:
        if path.exists():
            raise DuplicateTimestamp(f"fragment {path} already exists")

    for frag, path in zip(fragments, frag_paths):
        _write_atomic(path, frag.payload)

    manifest_path = layout.root / f".vd.{name}"
    if not manifest_path.exists():
        if manifest_text is None:
            manifest_text = serialize_document(manifest).encode("iso-8859-1", "xmlcharrefreplace")
        _write_atomic(manifest_path, manifest_text)
        _write_atomic(layout.root / f".vd.{name}.size", f"{len(data)}\n".encode("ascii"))
    _write_atomic(layout.root / name, b"")  # 0-byte stub marks the file as stored
    return StoredFile(timestamp_id=timestamp, manifest=manifest, fragment_paths=frag_paths)


def get_file(layout: GridLayout, name: str) -> bytes:
    """Rebuild a stored file from its manifest and fragments."""
    manifest_path = layout.root / f".vd.{name}"
    if not manifest_path.exists():
        raise MissingManifest(f"no stored descriptor for {name!r}")
    try:
        manifest = parse_document(manifest_path.read_bytes())
    except OSError as exc:
        raise IoFailure(manifest_path, f"cannot read manifest ({exc})") from exc
    except XdgdlError as exc:
        raise MissingManifest(f"stored descriptor for {name!r} is unreadable: {exc}") from exc
    report = validate_document(manifest)
    if not report.ok:
        raise MissingManifest(f"stored descriptor for {name!r} is invalid: {report.violations[0]}")
    size_path = layout.root / f".vd.{name}.size"
    if not size_path.exists():
        raise MissingManifest(f"no stored size for {name!r}")
    raw_size = size_path.read_bytes().strip()
    if not raw_size.isdigit():  # bytes.isdigit accepts ASCII digits only
        raise MissingManifest(f"stored size for {name!r} is corrupt: {raw_size!r}")
    dmap = build_distribution_map(manifest, int(raw_size))
    paths = [device.directory / f"{manifest.timestamp}.frag" for device in _devices_for(dmap, layout)]
    return gather(read_fragments(dmap, paths), dmap)


def read_fragments(dmap: DistributionMap, paths: list[Path]) -> list[Fragment]:
    """Each entry's fragment, read from the file at the same position."""
    fragments = []
    for entry, path in zip(dmap.entries, paths):
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise MissingFragment(f"device {entry.label} has no fragment at {path}") from None
        fragments.append(Fragment((entry.island, entry.host, entry.device_id), payload))
    return fragments
