"""The user-level copy workflow over the simulated store.

A data file may carry a hidden descriptor next to it, named
``.vd.<basename>``.  Copy-in prefers that descriptor; when it is absent
or broken, the file falls back to the default distribution: round-robin
chunks of DATA_BUFLEN bytes over all configured devices.  The fallback is
total: bad sidecar content downgrades to a diagnostic, never a failure.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .config import VipfsConfig
from .errors import IoFailure, XdgdlError, failing
from .model import CompoundDecl, Document, EtypeDecl, one_device_island, parse_document, validate_document
from .store import committed, get_file, grid_layout, init_store, put_file
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

    An absent, unreadable, unparsable or invalid sidecar yields no
    document plus a diagnostic; it never raises.
    """
    sidecar = data_path.parent / f"{SIDECAR_PREFIX}{data_path.name}"
    try:
        raw = failing(sidecar, "read sidecar", sidecar.read_bytes, missing=f"no sidecar {sidecar.name} next to {data_path.name}")
    except XdgdlError as exc:
        return SidecarResult(None, str(exc))
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
    """The XML ID naming a file's fragments, one per name: a name of ASCII
    letters, digits, '.' and '-' that starts with a letter is its own, and
    any other's is 'f_', its first 200 characters with every other
    character as '_', '-' and a 16-hex digest of it, so two IDs meet only
    if digests do.  At most 219 characters, its ``<id>.frag.tmp`` fits
    NAME_MAX whenever the name's ``.vd.<name>.size.tmp`` does."""
    if re.fullmatch(r"[A-Za-z][A-Za-z0-9.-]*", name):
        return name
    import hashlib  # loads OpenSSL, about 6 ms a process, which only a name that is not its own ID needs
    digest = hashlib.blake2b(os.fsencode(name), digest_size=8).hexdigest()
    return f"f_{re.sub(r'[^A-Za-z0-9.-]', '_', name[:200])}-{digest}"


def default_descriptor(cfg: VipfsConfig, timestamp: str) -> Document:
    """Round-robin descriptor: chunks of DATA_BUFLEN over all devices.

    Device d of D owns chunk d within every period of D*DATA_BUFLEN
    bytes.  The pattern is size-independent (it tiles and clips), so it
    partitions a file of any size.
    """
    devices = grid_layout(cfg).devices
    placements = ((d.host, d.device_id, round_robin_view(i, len(devices), cfg.data_buflen)) for i, d in enumerate(devices))
    return Document(
        version="1.0",
        timestamp=timestamp,
        types=(CompoundDecl(children=(EtypeDecl("CHAR", 1),)),),
        island=one_device_island(cfg.srv_group_name, placements),
    )


def copy_in(cfg: VipfsConfig, src: Path) -> str | None:
    """Distribute a local file into the store under its base name.

    Returns the sidecar diagnostic when the default distribution was used.
    A source that is itself the stub the store would write (the store root
    is its directory) raises IoFailure before anything is written.
    """
    layout = init_store(cfg)
    stream = failing(src, "read source file", open, src, "rb", buffering=0)
    sidecar = locate_sidecar(src)
    if sidecar.document is not None:
        descriptor = sidecar.document
    else:
        descriptor = default_descriptor(cfg, timestamp_for_name(src.name))
    stub = layout.root / src.name
    with stream:
        if stub.exists() and os.path.samestat(os.fstat(stream.fileno()), stub.stat()):
            raise IoFailure(src, "cannot store a file over itself, the store root holds it")
        put_file(layout, src.name, stream, descriptor, manifest_text=sidecar.text)
    return sidecar.diagnostic


def copy_out(cfg: VipfsConfig, name: str, dst: Path) -> Path:
    """Rebuild a stored file into dst (or into dst if a dir).  The bytes
    go to ``<target>.tmp`` first, so a failed copy leaves no target; no
    store directory is created."""
    layout = grid_layout(cfg)
    target = dst / name if dst.is_dir() else dst
    with committed([target]) as (sink,):
        get_file(layout, name, sink)
    return target
