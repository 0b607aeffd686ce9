"""A byte-identity corpus: one SHA-256 per output class over seeded inputs.

Each class hashes what the package makes of a corpus drawn by
``random.Random`` from ``gen.py`` and ``mutate.py``:

- ``reports``: the validation report (violations, then warnings) of each
  ``random_document(shapes=True)``;
- ``canonical``: the canonical text of each of those that is valid;
- ``readback``: the reader's verdict on the writer's text of each of them,
  valid or not;
- ``mutants``: the reader's error, or the validation report and the
  canonical text, of each seeded single edit;
- ``plans``: ``render_plan`` of the first ``PLANNED`` valid documents at
  sizes 0, 1, 97, 1000 and 4096;
- ``fragments``: the bytes ``scatter`` writes into one ``io.BytesIO`` per
  entry of each of those maps that is an exact partition, from the first
  bytes of ``DATA``;
- ``lowerings``: the canonical text of ``ownermap_to_views`` lowerings of
  random BLOCK and CYCLIC arrays.

``identity.json`` holds the digests; ``test_identity.py`` recomputes them.
``PYTHONPATH=src python tests/identity.py`` names each class whose digest
moved, and ``PYTHONPATH=src python tests/identity.py --write`` records the
digests anew, the one way to change the file.  The draws use only
``random``, ``randint``, ``randrange``, ``choice`` and ``sample``, whose
sequences hold across Python versions, the scattered bytes come from
SHAKE-256, and nothing hashes with ``hash()``.
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

from gen import random_document, text_of
from mutate import mutants
from xdgdl import (
    ArrayDecl,
    CompoundDecl,
    DimensionDecl,
    Distribution,
    Document,
    EtypeDecl,
    Major,
    PartitionStatus,
    ProcessorsDecl,
    ValidationReport,
    XdgdlError,
    build_distribution_map,
    compile_hpf_mapping,
    ownermap_to_views,
    parse_document,
    render_plan,
    scatter,
    serialize_document,
    sizeof_type,
    validate_document,
)
from xdgdl.model import one_device_island

DIGESTS = Path(__file__).with_name("identity.json")
DOCUMENTS = 120
PLANNED = 30
MUTANTS = 300
LOWERINGS = 60
SIZES = (0, 1, 97, 1000, 4096)
DATA = hashlib.shake_256(b"xdgdl identity").digest(max(SIZES))


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _lines(report: ValidationReport) -> list[str]:
    return [str(v) for v in report.violations] + [f"warning {v}" for v in report.warnings]


def _documents(out: dict[str, list[str]]) -> None:
    rng = random.Random(31)
    for _ in range(DOCUMENTS):
        doc = random_document(rng, shapes=True)
        report = validate_document(doc)
        out["reports"] += _lines(report) + ["--"]
        try:
            again = parse_document(text_of(doc))
        except XdgdlError as exc:
            out["readback"].append(_failure(exc))
        else:
            out["readback"].append("equal" if again == doc else "differs")
        if report.ok:
            out["canonical"].append(serialize_document(doc))
            for size in SIZES if len(out["canonical"]) <= PLANNED else ():
                try:
                    dmap = build_distribution_map(doc, size)
                    out["plans"].append(render_plan(dmap))
                except XdgdlError as exc:
                    out["plans"].append(_failure(exc))
                    continue
                if dmap.verdict.status is PartitionStatus.EXACT_PARTITION:
                    sinks = [io.BytesIO() for _ in dmap.entries]
                    scatter(io.BytesIO(DATA[:size]), dmap, sinks)
                    out["fragments"] += [sink.getvalue().hex() for sink in sinks] + ["--"]


def _mutants(out: dict[str, list[str]]) -> None:
    for label, text in mutants(seed=31, count=MUTANTS):
        try:
            doc = parse_document(text)
        except XdgdlError as exc:
            out["mutants"].append(_failure(exc))
            continue
        report = validate_document(doc)
        out["mutants"] += _lines(report) + ([serialize_document(doc)] if report.ok else [])


def _lowerings(out: dict[str, list[str]]) -> None:
    rng = random.Random(31)
    for _ in range(LOWERINGS):
        axes = rng.randint(1, 2)
        procs = ProcessorsDecl("P", tuple((1, rng.randint(1, 4)) for _ in range(axes)))
        kinds = (Distribution.BLOCK, Distribution.CYCLIC, Distribution.NO)
        dims = tuple(
            DimensionDecl(rng.randint(1, 40), 1, rng.choice(kinds), rng.randint(1, 4) if rng.random() < 0.5 else 1)
            for _ in range(rng.randint(1, axes))
        )
        element = EtypeDecl("E", rng.choice([1, 2, 4, 8]))
        arr = ArrayDecl(element, dims, rng.choice([Major.ROW, Major.COLUMN]), "P", "a")
        try:
            views = ownermap_to_views(compile_hpf_mapping(arr, procs), sizeof_type(element))
            island = one_device_island("i", ((f"h{i}", f"disk{i}", view) for i, view in enumerate(views)))
            out["lowerings"].append(serialize_document(Document("1.0", "t", (CompoundDecl((arr,)),), island, (procs,))))
        except XdgdlError as exc:
            out["lowerings"].append(_failure(exc))


def digests() -> dict[str, str]:
    """The SHA-256 of each output class, by class name."""
    out: dict[str, list[str]] = {name: [] for name in ("reports", "canonical", "readback", "mutants", "plans", "fragments", "lowerings")}
    _documents(out)
    _mutants(out)
    _lowerings(out)
    return {name: hashlib.sha256("\n".join(lines).encode()).hexdigest() for name, lines in out.items()}


def main(argv: list[str]) -> int:
    now = digests()
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(now, indent=2) + "\n")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    moved = [name for name in now if now[name] != recorded.get(name)]
    print("moved: " + ", ".join(moved) if moved else "identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
