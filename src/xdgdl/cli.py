"""Command-line front end.

A command exits 0 on success; otherwise with the ``exit_code`` of the
error that ended it (see ``errors``):

2  a descriptor or configuration it cannot use (``DescriptorError``,
   ``ConfigError``);
3  a layout that is not an exact partition (``NotAPartition``);
4  a store or I/O failure (``XdgdlError``, ``OSError``, ``MemoryError``).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .config import VipfsConfig, parse_config
from .errors import ConfigError, DescriptorError, InvalidDocument, NotAPartition, XdgdlError, failing
from .hpf import compile_hpf_mapping, ownermap_to_views, sizeof_type
from .model import (
    ArrayDecl,
    Document,
    one_device_island,
    parse_document,
    parse_size,
    require_valid,
    serialize_document,
    type_decls,
    validate_document,
)
from .scatter import require_exact, scatter, write_all
from .store import committed, init_store, measured, rebuild
from .vipfs import copy_in, copy_out
from .views import build_distribution_map, render_plan

def _fail(message: str, code: int) -> int:
    print(f"xdgdl: {message}", file=sys.stderr)
    return code


def _print_verdict(exc: NotAPartition) -> None:
    verdict = exc.verdict
    print(f"xdgdl: not an exact partition ({verdict.status.value})", file=sys.stderr)
    for start, length in verdict.gaps:
        print(f"  gap {start}:{length}", file=sys.stderr)
    for (start, length), claimants in verdict.overlaps:
        print(f"  overlap {start}:{length} claimed by {', '.join(claimants)}", file=sys.stderr)


def _load_document(path: str) -> Document:
    return parse_document(failing(path, "read descriptor", Path(path).read_bytes))


def _frag_name(index: int) -> str:
    return f"{index:03d}.frag"


def _size_arg(raw: str) -> int:
    try:
        return parse_size(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {raw!r}") from None


def cmd_validate(args) -> int:
    doc = _load_document(args.descriptor)
    report = validate_document(doc)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok:
        print("OK")
        return 0
    for violation in report.violations:
        print(str(violation))
    return DescriptorError.exit_code


def cmd_plan(args) -> int:
    doc = require_valid(_load_document(args.descriptor))
    dmap = build_distribution_map(doc, args.size)
    print(render_plan(dmap), end="")
    return 0


def cmd_scatter(args) -> int:
    doc = require_valid(_load_document(args.descriptor))
    out = Path(args.out)
    with failing(args.file, "read source file", open, args.file, "rb", buffering=0) as stream, measured(stream) as (src, size):
        dmap = build_distribution_map(doc, size)
        require_exact(dmap)  # before the output directory is made
        failing(out, "create output directory", out.mkdir, parents=True, exist_ok=True)
        with committed([out / _frag_name(i) for i in range(len(dmap.entries))]) as sinks:
            scatter(src, dmap, sinks)
    return 0


def cmd_gather(args) -> int:
    doc = require_valid(_load_document(args.descriptor))
    dmap = build_distribution_map(doc, args.size)
    require_exact(dmap)
    frags, count = Path(args.frags), len(dmap.entries)
    names = failing(frags, "list fragments", os.listdir, frags)
    extra = sorted(n for n in names if re.fullmatch(r"[0-9]+\.frag", n) and int(n[:-5]) >= count)
    if extra:
        raise XdgdlError(f"{frags / extra[0]} is past the map's {count} entries")
    with committed([Path(args.out)]) as (sink,):
        rebuild(dmap, [frags / _frag_name(i) for i in range(count)], sink)
    return 0


def cmd_hpf_compile(args) -> int:
    doc = require_valid(_load_document(args.descriptor))
    distributed = [t for t in type_decls(doc) if isinstance(t, ArrayDecl) and t.distribute_onto is not None]
    if len(distributed) != 1:
        raise DescriptorError(f"expected exactly one distributed ARRAY, found {len(distributed)}")
    arr = distributed[0]
    procs = next(p for p in doc.processors if p.name == arr.distribute_onto)  # validated to exist
    hosts = [h for h in args.servers.split(",") if h]
    owner_map = compile_hpf_mapping(arr, procs)
    if len(hosts) != owner_map.num_targets:
        raise DescriptorError(f"mapping needs {owner_map.num_targets} servers, --servers lists {len(hosts)}")
    views = ownermap_to_views(owner_map, sizeof_type(arr.element))
    placements = ((host, f"disk{i}", view) for i, (host, view) in enumerate(zip(hosts, views)))
    text = serialize_document(replace(doc, island=one_device_island(doc.island.name, placements)))
    if args.out:
        with committed([Path(args.out)]) as (sink,):
            write_all(sink, text.encode("ascii"))
    else:
        print(text, end="")
    return 0


def _config_from_env() -> VipfsConfig:
    conf_path = os.environ.get("VIP_CONF")
    if not conf_path:
        raise ConfigError("VIP_CONF must name the configuration file")
    try:
        text = Path(conf_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    diagnostic = copy_in(cfg, Path(args.file))
    if diagnostic:
        print(f"xdgdl: {diagnostic}; using default cyclic distribution", file=sys.stderr)
    return 0


def cmd_cp_out(args) -> int:
    cfg = _config_from_env()
    copy_out(cfg, args.name, Path(args.dst))
    return 0


def cmd_init(args) -> int:
    cfg = _config_from_env()
    layout = init_store(cfg)
    for device in layout.devices:
        print(f"{device.host}\t{device.directory}")
    print(f"root\t{layout.root}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="xdgdl",
        description="Validate, plan and execute grid data-distribution descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size = ("--size", {"type": _size_arg, "required": True, "help": "logical file size in bytes"})
    commands = [  # name, help, handler, then each argument's name and options
        ("validate", "check a descriptor against the grammar rules", cmd_validate, ("descriptor", {})),
        ("plan", "print per-device extents and the partition verdict", cmd_plan, ("descriptor", {}), size),
        ("scatter", "split a file into per-device fragments", cmd_scatter, ("file", {}), ("descriptor", {}),
         ("--out", {"required": True, "help": "directory for fragment files"})),
        ("gather", "rebuild a file from fragments", cmd_gather, ("descriptor", {}),
         ("--frags", {"required": True, "help": "directory holding fragment files"}), size, ("--out", {"required": True, "help": "output file"})),
        ("cp-in", "copy a file into the store (VIP_CONF)", cmd_cp_in, ("file", {})),
        ("cp-out", "copy a stored file out (VIP_CONF)", cmd_cp_out, ("name", {}), ("dst", {})),
        ("hpf-compile", "compile an array distribution into a device descriptor", cmd_hpf_compile, ("descriptor", {}),
         ("--servers", {"required": True, "help": "comma-separated target host names"}),
         ("--out", {"help": "write the compiled descriptor here instead of stdout"})),
        ("init", "create the store directories (VIP_CONF)", cmd_init),
    ]
    for name, help_text, func, *arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for argument, options in arguments:
            p.add_argument(argument, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotAPartition as exc:
        _print_verdict(exc)
        return exc.exit_code
    except InvalidDocument as exc:
        for violation in exc.report.violations:
            print(str(violation), file=sys.stderr)
        return exc.exit_code
    except XdgdlError as exc:
        return _fail(str(exc), exc.exit_code)
    except OSError as exc:
        return _fail(str(exc), XdgdlError.exit_code)
    except MemoryError:
        return _fail("out of memory", XdgdlError.exit_code)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
