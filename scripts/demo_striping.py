#!/usr/bin/env python3
"""Walk through the descriptor algebra on a two-server striping pattern.

Builds the alternating 5:7 descriptor programmatically, prints the
placement plan, scatters a text, and shows each server's fragment.
"""

import io

from xdgdl import (
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    DeviceDecl,
    Document,
    EtypeDecl,
    IslandDecl,
    ServerDecl,
    ViewDecl,
    build_distribution_map,
    render_plan,
    scatter,
    serialize_document,
)


def two_server_document() -> Document:
    five_then_gap = ViewDecl(
        skip_header=0,
        skip=7,
        blocks=(BlockDecl(offset=0, repeat=3, count=5, stride=7, child=ByteBlock()),),
    )
    seven_after_gap = ViewDecl(
        skip_header=0,
        skip=0,
        blocks=(BlockDecl(offset=5, repeat=3, count=7, stride=5, child=ByteBlock()),),
    )
    return Document(
        version="1.0",
        timestamp="demo_stripes",
        types=(CompoundDecl((EtypeDecl("CHAR", 1),)),),
        island=IslandDecl(
            name="demo.island",
            servers=(
                ServerDecl("alpha.demo", (DeviceDecl("/dev/vda1", view=five_then_gap),)),
                ServerDecl("beta.demo", (DeviceDecl("/dev/vda1", view=seven_after_gap),)),
            ),
        ),
    )


def main() -> None:
    doc = two_server_document()
    print(serialize_document(doc))

    text = (b"pack my box with five dozen liquor jugs " * 2)[:72]
    dmap = build_distribution_map(doc, len(text))
    for srv, entry in zip(doc.island.servers, dmap.entries):
        print(
            f"{srv.host}: period {srv.devices[0].view.period} bytes, "
            f"{entry.selection.per_period} selected per period"
        )
    print()

    print(render_plan(dmap))
    fragments = [io.BytesIO() for _ in dmap.entries]
    scatter(io.BytesIO(text), dmap, fragments)
    for srv, frag in zip(doc.island.servers, fragments):
        print(f"{srv.host}: {frag.getvalue()!r}")


if __name__ == "__main__":
    main()
