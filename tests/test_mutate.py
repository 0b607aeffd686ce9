"""Single edits of the suite's descriptor texts (mutate.py): each is refused
at a rule id and an element path of the edited text, or reads to a
document whose report is honest: an invalid one cannot be written, a
valid one round-trips byte for byte and maps as the naive painter says."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from mutate import mutants
from reference import naive_coverage, painted_report
from xdgdl import (
    DescriptorError,
    InvalidDocument,
    ValidationError,
    build_distribution_map,
    parse_document,
    serialize_document,
    validate_document,
)

ROOT = Path(__file__).resolve().parent.parent
RULE = re.compile(r"[a-z]+(-[a-z0-9]+)*")


def resolves(text: str, path: str) -> bool:
    """Whether ``path`` names an element of ``text``."""
    return ET.fromstring(text).find(path.replace("/PARSTORAGE", ".", 1)) is not None


def painted(doc, size: int):
    """The gaps and overlaps the naive painter finds for the document's map."""
    views = [dev.view for srv in doc.island.servers for dev in srv.devices]
    if all(v is None for v in views):  # the first device takes the whole file
        coverages = [[1] * size] + [bytes(size)] * (len(views) - 1)
    else:
        coverages = [bytes(size) if v is None else naive_coverage(v, size) for v in views]
    labels = [f"{doc.island.name}/{srv.host}/{dev.device_id}" for srv in doc.island.servers for dev in srv.devices]
    return painted_report(coverages, labels, size)


def test_every_mutant_is_refused_at_a_path_or_behaves():
    outcomes = {"refused": 0, "invalid": 0, "valid": 0}
    for label, text in mutants(seed=26, count=400):
        try:
            doc = parse_document(text)
        except ValidationError as exc:
            assert RULE.fullmatch(exc.rule) and resolves(text, exc.path), (label, str(exc))
            outcomes["refused"] += 1
            continue
        report = validate_document(doc)
        for violation in report.violations:
            assert RULE.fullmatch(violation.rule) and resolves(text, violation.path), (label, str(violation))
        if not report.ok:
            with pytest.raises(InvalidDocument):
                serialize_document(doc)
            outcomes["invalid"] += 1
            continue
        written = serialize_document(doc)
        again = parse_document(written)
        assert again == doc and serialize_document(again) == written, label
        try:
            verdict = build_distribution_map(doc, 97).verdict
        except DescriptorError:  # an island with no device
            assert not any(srv.devices for srv in doc.island.servers), label
        else:
            assert (tuple(verdict.gaps), tuple(verdict.overlaps)) == painted(doc, 97), label
        outcomes["valid"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_mutants_through_the_command_line(tmp_path):
    """``validate`` exits 0, 2, 3 or 4 with a message, never a traceback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for i, (label, text) in enumerate(mutants(seed=5, count=5)):
        path = tmp_path / f"m{i}.xml"
        path.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "xdgdl.cli", "validate", str(path)], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 2, 3, 4), (label, proc.returncode)
        assert "Traceback" not in proc.stderr, (label, proc.stderr)
