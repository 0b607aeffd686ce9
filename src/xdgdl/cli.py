"""Command-line front end.

Exit codes: 0 success, 2 descriptor/config validation failure,
3 partition failure, 4 I/O or store failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import VipfsConfig, parse_config
from .errors import (
    ArithmeticOverflow,
    ConfigError,
    DimensionMismatch,
    InvalidDocument,
    NoDevices,
    NotAPartition,
    ParseError,
    UnresolvedProcessors,
    ValidationError,
    XdgdlError,
)
from .hpf import compile_hpf_mapping, ownermap_to_views, sizeof_type
from .model import (
    ArrayDecl,
    CompoundDecl,
    DeviceDecl,
    Document,
    IslandDecl,
    ServerDecl,
    parse_document,
    serialize_document,
    validate_document,
)
from .scatter import gather, scatter
from .store import init_store, read_fragments
from .vipfs import copy_in, copy_out
from .views import build_distribution_map, render_plan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTITION = 3
EXIT_IO = 4

_VALIDATION_ERRORS = (
    ParseError,
    ValidationError,
    InvalidDocument,
    ConfigError,
    ArithmeticOverflow,
    DimensionMismatch,
    UnresolvedProcessors,
    NoDevices,
)


def _fail(message: str, code: int) -> int:
    print(f"xdgdl: {message}", file=sys.stderr)
    return code


def _print_verdict(exc: NotAPartition) -> None:
    verdict = exc.verdict
    print(f"xdgdl: not an exact partition ({verdict.status.value})", file=sys.stderr)
    for gap in verdict.gaps:
        print(f"  gap {gap}", file=sys.stderr)
    for extent, claimants in verdict.overlaps:
        print(f"  overlap {extent} claimed by {', '.join(claimants)}", file=sys.stderr)


def _load_document(path: str) -> Document:
    return parse_document(Path(path).read_bytes())


def _load_valid_document(path: str) -> Document | None:
    """The parsed descriptor, or None once its violations are on stderr."""
    doc = _load_document(path)
    report = validate_document(doc)
    if report.ok:
        return doc
    for violation in report.violations:
        print(str(violation), file=sys.stderr)
    return None


def _frag_name(index: int) -> str:
    return f"{index:03d}.frag"


def _size_arg(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return value


def cmd_validate(args) -> int:
    doc = _load_document(args.descriptor)
    report = validate_document(doc)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok:
        print("OK")
        return EXIT_OK
    for violation in report.violations:
        print(str(violation))
    return EXIT_VALIDATION


def cmd_plan(args) -> int:
    doc = _load_valid_document(args.descriptor)
    if doc is None:
        return EXIT_VALIDATION
    dmap = build_distribution_map(doc, args.size)
    print(render_plan(dmap), end="")
    return EXIT_OK


def cmd_scatter(args) -> int:
    doc = _load_valid_document(args.descriptor)
    if doc is None:
        return EXIT_VALIDATION
    data = Path(args.file).read_bytes()
    dmap = build_distribution_map(doc, len(data))
    fragments = scatter(data, dmap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, frag in enumerate(fragments):
        (out / _frag_name(i)).write_bytes(frag.payload)
    return EXIT_OK


def cmd_gather(args) -> int:
    doc = _load_valid_document(args.descriptor)
    if doc is None:
        return EXIT_VALIDATION
    dmap = build_distribution_map(doc, args.size)
    paths = [Path(args.frags) / _frag_name(i) for i in range(len(dmap.entries))]
    Path(args.out).write_bytes(gather(read_fragments(dmap, paths), dmap))
    return EXIT_OK


def cmd_hpf_compile(args) -> int:
    doc = _load_valid_document(args.descriptor)
    if doc is None:
        return EXIT_VALIDATION

    def arrays(t) -> list[ArrayDecl]:
        if isinstance(t, ArrayDecl):
            found = [t] if t.distribute_onto is not None else []
            return found + arrays(t.element)
        if isinstance(t, CompoundDecl):
            return [a for c in t.children for a in arrays(c)]
        return []

    distributed = [a for t in doc.types for a in arrays(t)]
    if len(distributed) != 1:
        return _fail(f"expected exactly one distributed ARRAY, found {len(distributed)}", EXIT_VALIDATION)
    arr = distributed[0]
    procs = {p.name: p for p in doc.processors}.get(arr.distribute_onto)
    if procs is None:
        return _fail(f"no PROCESSORS named {arr.distribute_onto!r}", EXIT_VALIDATION)
    hosts = [h for h in args.servers.split(",") if h]
    owner_map = compile_hpf_mapping(arr, procs)
    if len(hosts) != owner_map.num_targets:
        return _fail(
            f"mapping needs {owner_map.num_targets} servers, --servers lists {len(hosts)}",
            EXIT_VALIDATION,
        )
    element_bytes = sizeof_type(arr.element).total_bytes
    views = ownermap_to_views(owner_map, element_bytes)
    servers = tuple(
        ServerDecl(host=host, devices=(DeviceDecl(device_id=f"disk{i}", view=view),))
        for i, (host, view) in enumerate(zip(hosts, views))
    )
    compiled = replace(doc, island=IslandDecl(name=doc.island.name, servers=servers))
    text = serialize_document(compiled)
    if args.out:
        Path(args.out).write_text(text, encoding="iso-8859-1", errors="xmlcharrefreplace")
    else:
        print(text, end="")
    return EXIT_OK


def _config_from_env() -> VipfsConfig:
    conf_path = os.environ.get("VIP_CONF")
    if not conf_path:
        raise ConfigError("VIP_CONF must name the configuration file")
    try:
        text = Path(conf_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read VIP_CONF={conf_path}: {exc}") from exc
    cfg = parse_config(text)
    env_dir = os.environ.get("VIP_DIR")
    if env_dir and env_dir != cfg.vip_dir:
        print(
            f"xdgdl: VIP_DIR environment ({env_dir}) differs from configuration "
            f"({cfg.vip_dir}); configuration wins",
            file=sys.stderr,
        )
    return cfg


def cmd_cp_in(args) -> int:
    cfg = _config_from_env()
    _, diagnostic = copy_in(cfg, Path(args.file))
    if diagnostic:
        print(f"xdgdl: {diagnostic}; using default cyclic distribution", file=sys.stderr)
    return EXIT_OK


def cmd_cp_out(args) -> int:
    cfg = _config_from_env()
    copy_out(cfg, args.name, Path(args.dst))
    return EXIT_OK


def cmd_init(args) -> int:
    cfg = _config_from_env()
    layout = init_store(cfg)
    for device in layout.devices:
        print(f"{device.host}\t{device.directory}")
    print(f"root\t{layout.root}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdgdl",
        description="Validate, plan and execute grid data-distribution descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a descriptor against the grammar rules")
    p.add_argument("descriptor")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="print per-device extents and the partition verdict")
    p.add_argument("descriptor")
    p.add_argument("--size", type=_size_arg, required=True, help="logical file size in bytes")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("scatter", help="split a file into per-device fragments")
    p.add_argument("file")
    p.add_argument("descriptor")
    p.add_argument("--out", required=True, help="directory for fragment files")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("gather", help="rebuild a file from fragments")
    p.add_argument("descriptor")
    p.add_argument("--frags", required=True, help="directory holding fragment files")
    p.add_argument("--size", type=_size_arg, required=True, help="logical file size in bytes")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_gather)

    p = sub.add_parser("cp-in", help="copy a file into the store (VIP_CONF)")
    p.add_argument("file")
    p.set_defaults(func=cmd_cp_in)

    p = sub.add_parser("cp-out", help="copy a stored file out (VIP_CONF)")
    p.add_argument("name")
    p.add_argument("dst")
    p.set_defaults(func=cmd_cp_out)

    p = sub.add_parser("hpf-compile", help="compile an array distribution into a device descriptor")
    p.add_argument("descriptor")
    p.add_argument("--servers", required=True, help="comma-separated target host names")
    p.add_argument("--out", help="write the compiled descriptor here instead of stdout")
    p.set_defaults(func=cmd_hpf_compile)

    p = sub.add_parser("init", help="create the store directories (VIP_CONF)")
    p.set_defaults(func=cmd_init)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotAPartition as exc:
        _print_verdict(exc)
        return EXIT_PARTITION
    except _VALIDATION_ERRORS as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except XdgdlError as exc:
        return _fail(str(exc), EXIT_IO)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
