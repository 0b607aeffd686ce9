"""Self-test of the benchmark at tiny sizes, so the harness cannot rot.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"stripe_4k": 40 * 1024 + 5, "cyclic_1b": 1025, "nested_3srv": 2051}
COUNTS = ("views.extents", "hpf.owner_entries", "store.bytes_written_ratio", "store.files_written")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and run inside a scratch directory."""
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], size=size))
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("VIP_CONF", "")
    return tmp_path


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_is_correct_and_complete(tiny, workload, trace):
    result = run.measure(workload, seed=7, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * len(workloads.OPS)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name][0]
        if name != "trace.overhead_pct":
            assert metric["value"] > 0, name
    if trace:
        assert (tiny / ".bench_out" / f"trace-{workload}-seed7.json").is_file()
    assert not (tiny / ".bench_work" / workload).exists()


def test_counts_repeat_across_seeds(tiny):
    first, second = (run.measure("nested_3srv", seed=s, seconds=0, trace=True)["metrics"] for s in (1, 2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_wrong_scatter_bytes_fail_the_run(tiny, monkeypatch):
    from xdgdl import cli

    real = cli.scatter

    def corrupting(data, dmap):
        frags = real(data, dmap)
        first = frags[0]
        return [dataclasses.replace(first, payload=bytes([first.payload[0] ^ 1]) + first.payload[1:]), *frags[1:]]

    monkeypatch.setattr(cli, "scatter", corrupting)
    result = run.measure("cyclic_1b", seed=3, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] >= 3


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cyclic_1b", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_layout_agrees_with_the_membership_oracle():
    from xdgdl import member_oracle, parse_document

    text = (HERE / "nested_3srv.xml").read_bytes()
    pattern = reference.pattern_from_xml(text)
    views = [d.view for s in parse_document(text).island.servers for d in s.devices]
    assert pattern == [
        next(d for d, v in enumerate(views) if member_oracle(v, i)) for i in range(len(pattern))
    ]


@pytest.mark.parametrize("pattern", [reference.round_robin_pattern(3, 2), reference.round_robin_pattern(300, 3)])
def test_reference_fragments_and_extents_match_a_byte_loop(pattern):
    data = bytes(range(256)) * 9 + b"tail"
    owner = [pattern[i % len(pattern)] for i in range(len(data))]
    expected = [bytes(b for b, o in zip(data, owner) if o == d) for d in range(max(pattern) + 1)]
    assert reference.fragments(data, pattern) == expected
    runs = sum(1 for i in range(len(data)) if i == 0 or owner[i] != owner[i - 1])
    assert reference.extent_count(pattern, len(data)) == runs
