"""The user-level copy workflow over the simulated store.

A data file may carry a hidden descriptor next to it, named
``.vd.<basename>``.  Copy-in prefers that descriptor; when it is absent
or broken, the file falls back to the default distribution: round-robin
chunks of DATA_BUFLEN bytes over all configured devices.  The fallback is
total: bad sidecar content downgrades to a diagnostic, never a failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .config import VipfsConfig
from .errors import IoFailure, XdgdlError
from .model import (
    CompoundDecl,
    DeviceDecl,
    Document,
    EtypeDecl,
    IslandDecl,
    ServerDecl,
    parse_document,
    validate_document,
)
from .store import StoredFile, get_file, init_store, put_file
from .views import round_robin_view

__all__ = [
    "SidecarResult",
    "locate_sidecar",
    "default_descriptor",
    "timestamp_for_name",
    "copy_in",
    "copy_out",
]

SIDECAR_PREFIX = ".vd."


@dataclass(frozen=True)
class SidecarResult:
    document: Document | None
    diagnostic: str | None
    text: bytes | None = None  # the sidecar's original bytes, when valid


def locate_sidecar(data_path: Path) -> SidecarResult:
    """Find and parse ``.vd.<basename>`` beside the data file.

    An absent, unparsable or invalid sidecar yields no document plus a
    diagnostic; it never raises.
    """
    sidecar = data_path.parent / f"{SIDECAR_PREFIX}{data_path.name}"
    if not sidecar.exists():
        return SidecarResult(None, f"no sidecar {sidecar.name} next to {data_path.name}")
    try:
        raw = sidecar.read_bytes()
    except OSError as exc:
        return SidecarResult(None, f"sidecar {sidecar} is unreadable: {exc}")
    try:
        doc = parse_document(raw)
    except XdgdlError as exc:
        return SidecarResult(None, f"sidecar {sidecar} does not parse: {exc}")
    report = validate_document(doc)
    if not report.ok:
        detail = "; ".join(str(v) for v in report.violations)
        return SidecarResult(None, f"sidecar {sidecar} is invalid: {detail}")
    return SidecarResult(doc, None, raw)


def timestamp_for_name(name: str) -> str:
    """Derive an XML-ID-safe timestamp identifier from a file name."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"f_{cleaned}"
    return cleaned


def default_descriptor(cfg: VipfsConfig, timestamp: str) -> Document:
    """Round-robin descriptor: chunks of DATA_BUFLEN over all devices.

    Device d of D owns chunk d within every period of D*DATA_BUFLEN
    bytes.  The pattern is size-independent (it tiles and clips), so it
    partitions a file of any size.
    """
    total = len(cfg.device_paths)
    servers = []
    for d, raw in enumerate(cfg.device_paths):
        view = round_robin_view(d, total, cfg.data_buflen)
        servers.append(
            ServerDecl(
                host=f"{cfg.srv_group_name}.{d + 1}",
                devices=(DeviceDecl(device_id=raw, view=view),),
            )
        )
    return Document(
        version="1.0",
        timestamp=timestamp,
        types=(CompoundDecl(children=(EtypeDecl("CHAR", 1),)),),
        island=IslandDecl(name=cfg.srv_group_name, servers=tuple(servers)),
    )


def copy_in(cfg: VipfsConfig, src: Path) -> tuple[StoredFile, str | None]:
    """Distribute a local file into the store under its base name.

    Returns the stored record plus the sidecar diagnostic when the
    default distribution was used.
    """
    layout = init_store(cfg)
    try:
        data = src.read_bytes()
    except OSError as exc:
        raise IoFailure(src, f"cannot read source file ({exc})") from exc
    sidecar = locate_sidecar(src)
    if sidecar.document is not None:
        descriptor = sidecar.document
    else:
        descriptor = default_descriptor(cfg, timestamp_for_name(src.name))
    stored = put_file(layout, src.name, data, descriptor, manifest_text=sidecar.text)
    return stored, sidecar.diagnostic


def copy_out(cfg: VipfsConfig, name: str, dst: Path) -> Path:
    """Rebuild a stored file and write it to dst (or into dst if a dir)."""
    layout = init_store(cfg)
    data = get_file(layout, name)
    target = dst / name if dst.is_dir() else dst
    try:
        target.write_bytes(data)
    except OSError as exc:
        raise IoFailure(target, f"cannot write destination ({exc})") from exc
    return target
