#!/usr/bin/env python3
"""End-to-end copy flow against a throwaway grid store.

Creates a three-device store under a temp directory, copies a file in
(no sidecar, so the cyclic default applies), lists what the store looks
like on disk, and copies the file back out.
"""

import os
import tempfile
from pathlib import Path

from xdgdl import copy_in, copy_out, parse_config

CONFIG = """MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 4096
SRV_GROUP_NAME "vipios_server" SRVR_DEVICE_LIST 3
{root}/dev1/
{root}/dev2/
{root}/dev3/
VIP_DIR "{root}/visible"
"""


def listing(path: Path, indent: str = "  ") -> None:
    for entry in sorted(path.rglob("*")):
        if entry.is_file():
            rel = entry.relative_to(path)
            print(f"{indent}{entry.stat().st_size:>8}  {rel}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = parse_config(CONFIG.format(root=root / "grid"))

        source = root / "testfile"
        source.write_bytes(os.urandom(3 * 4096 + 1500))

        diagnostic = copy_in(cfg, source)
        if diagnostic:
            print(f"fallback: {diagnostic}\n")

        print("store contents (sizes in bytes):")
        listing(root / "grid")
        print()

        restored = copy_out(cfg, "testfile", root / "testfile.back")
        match = restored.read_bytes() == source.read_bytes()
        print(f"copy-out identical to source: {match}")


if __name__ == "__main__":
    main()
