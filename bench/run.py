#!/usr/bin/env python3
"""Benchmark of xdgdl's command surface on seeded inputs.

    python3 bench/run.py --workload stripe_4k --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (the package is imported from
``src/``).  One process, one client, closed loop: each iteration runs the
operation set ``hpf-compile, cp-in, cp-out, scatter, gather, plan`` through
``xdgdl.cli.main(argv)``, each call starting after the previous one
finished, and checks every output against references computed without
the package.  Iterations repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: per-operation throughput
and time (medians over iterations), peak traced memory of cp-in/cp-out
from a separate ``tracemalloc`` pass, and set-up time (median of several
set-ups).

Every timed end-to-end sample is normalised to a reference machine
speed.  The CPU share this process gets on a shared host drifts by tens
of percent between and within runs, so right before and right after each
timed operation or set-up the benchmark times ``calibrate()``, a fixed
piece of interpreter, allocation and byte-copy work that uses nothing of
the package, and reports ``seconds * CAL_REF_S / calibration seconds``
with the mean of the two calibrations: the time the operation would take
on a machine where ``calibrate()`` takes ``CAL_REF_S``.  The table also
shows the raw median and the calibration's median, so the host's speed
during a run can be read.

``--trace 1`` alternates untraced and traced iterations; the
traced ones time each layer's public functions from outside the package
and give the per-layer metrics, and the pair gives the tracing overhead.
A per-layer time is the layer's total within one iteration (inclusive,
or self time net of traced child calls), as a raw median over traced
iterations.  Spans are written to ``.bench_out/``.

The human-readable table goes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_times  # noqa: E402
from workloads import OPS, WORKLOADS, OpFailed, Run, copyfile_mibps, run_cli  # noqa: E402

SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 150, 3.0
MIB = 1 << 20
CAL_REF_S = 0.010  # calibrate() on a 2-vCPU 2.1 GHz Xeon VM with an idle host
_CAL_BLOB = bytes(range(256)) * 4096

# name -> (unit, better); the values come from measure()
END_TO_END = {
    "cp_in_mibps": ("MiB/s", "higher"),
    "cp_out_mibps": ("MiB/s", "higher"),
    "scatter_mibps": ("MiB/s", "higher"),
    "gather_mibps": ("MiB/s", "higher"),
    "plan_s": ("s", "lower"),
    "hpf_compile_s": ("s", "lower"),
    "cp_in_peak_x": ("x", "lower"),
    "cp_out_peak_x": ("x", "lower"),
    "setup_s": ("s", "lower"),
}
THROUGHPUT_OPS = {"cp_in_mibps": "cp-in", "cp_out_mibps": "cp-out", "scatter_mibps": "scatter", "gather_mibps": "gather"}
TIME_OPS = {"plan_s": "plan", "hpf_compile_s": "hpf-compile"}

# name -> (unit, span name, inclusive or self time, scale); all lower is better
LAYER_TIMES = {
    "views.map_s": ("s", "views.map", "incl", 1),
    "views.partition_s": ("s", "views.partition", "incl", 1),
    "views.render_s": ("s", "views.render", "self", 1),
    "scatter.scatter_s": ("s", "scatter.scatter", "self", 1),
    "scatter.gather_s": ("s", "scatter.gather", "self", 1),
    "store.put_s": ("s", "store.put", "incl", 1),
    "store.put_self_s": ("s", "store.put", "self", 1),
    "store.get_s": ("s", "store.get", "incl", 1),
    "store.get_self_s": ("s", "store.get", "self", 1),
    "model.parse_ms": ("ms", "model.parse", "incl", 1000),
    "model.validate_ms": ("ms", "model.validate", "incl", 1000),
    "model.serialize_ms": ("ms", "model.serialize", "incl", 1000),
    "vipfs.sidecar_ms": ("ms", "vipfs.sidecar", "incl", 1000),
    "vipfs.copy_in_s": ("s", "vipfs.copy_in", "incl", 1),
    "vipfs.copy_out_s": ("s", "vipfs.copy_out", "incl", 1),
    "hpf.compile_s": ("s", "hpf.compile", "incl", 1),
    "hpf.lower_s": ("s", "hpf.lower", "incl", 1),
}
PER_LAYER = {
    **{name: (unit, "lower") for name, (unit, *_) in LAYER_TIMES.items()},
    "views.extents": ("count", "lower"),
    "hpf.owner_entries": ("count", "lower"),
    "store.bytes_written_ratio": ("x", "lower"),
    "store.files_written": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "ref.copyfile_mibps": ("MiB/s", "higher"),
}


@dataclass
class Iteration:
    traced: bool
    times: dict[str, float]  # op -> seconds of its cli.main call
    cals: dict[str, float]  # op -> mean seconds of the calibrate() calls around it
    ops: set[int] = field(default_factory=set)  # tracer op ids

    def normalised(self, op: str) -> float:
        return self.times[op] * CAL_REF_S / self.cals[op]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def calibrate() -> float:
    """Seconds of a fixed piece of work shaped like the package's: small
    tuples and strings built and walked, a MiB cut into short slices and
    joined.  The collector is off while it runs, so the heap the program
    left behind cannot change its cost."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        items = [(i, i * 3, str(i)) for i in range(30000)]
        total = 0
        for a, b, c in items:
            total += a + b + len(c)
        total += len(b"".join([_CAL_BLOB[i : i + 64] for i in range(0, len(_CAL_BLOB), 64)]))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_ops(run: Run, ops, tally: Tally, call, cals: dict[str, float] | None = None) -> dict[str, float] | None:
    """Run ops in order via call(op, argv) -> (code, stdout, stderr) and
    check each.  The first failure ends the set; the ops it skips count
    as failed too.  Returns each op's seconds, or None on failure.  With
    ``cals``, calibrate() runs right before and right after each op and
    the mean of the two goes there; every op starts after a full
    collection."""
    times: dict[str, float] = {}
    for k, op in enumerate(ops):
        tally.attempted += 1
        try:
            before = calibrate() if cals is not None else 0.0
            gc.collect()
            t0 = time.perf_counter()
            code, out, err = call(op, run.argv(op))
            times[op] = time.perf_counter() - t0
            if cals is not None:
                cals[op] = (before + calibrate()) / 2
            if code != 0:
                raise OpFailed(f"exited {code}: {err.strip()[-400:]}")
            run.check(op, out)
        except Exception as exc:  # any fault of the program is a failed op
            skipped = len(ops) - k - 1
            tally.attempted += skipped
            tally.failed += 1 + skipped
            detail = str(exc) if isinstance(exc, OpFailed) else traceback.format_exc()
            print(f"bench: {op} failed on {run.name()}: {detail}", file=sys.stderr)
            return None
    return times


def check_counts(run: Run, tracer: Tracer, ops: set[int]) -> None:
    """Work counts must equal the reference's exactly on every run."""
    expected = {"extents": run.expected_extents, "owner_entries": run.spec.records}
    for span in tracer.spans:
        if span.op in ops:
            for key, value in span.counts.items():
                if value != expected[key]:
                    raise OpFailed(f"{span.name} counted {key}={value}, reference says {expected[key]}")


def timed_loop(run: Run, seconds: float, tracer: Tracer | None, tally: Tally) -> list[Iteration]:
    iterations: list[Iteration] = []
    attempts = 0
    start = time.perf_counter()
    while attempts < (4 if tracer else 3) or time.perf_counter() - start < seconds:
        traced = tracer is not None and attempts % 2 == 1
        attempts += 1
        cals: dict[str, float] = {}
        if traced:
            first = tracer.last_op + 1
            tracer.install()
            try:
                times = run_ops(run, OPS, tally, lambda op, argv: tracer.op(f"cli.{op}", run_cli, argv), cals)
            finally:
                tracer.uninstall()
            ops = set(range(first, tracer.last_op + 1))
            if times is not None:
                try:
                    check_counts(run, tracer, ops)
                except OpFailed as exc:
                    tally.failed += 1
                    print(f"bench: {exc}", file=sys.stderr)
                    times = None
        else:
            times = run_ops(run, OPS, tally, lambda op, argv: run_cli(argv), cals)
            ops = set()
        if times is not None:
            iterations.append(Iteration(traced, times, cals, ops))
        run.next_iteration()
    return iterations


def memory_pass(run: Run, tally: Tally) -> dict[str, float]:
    """Peak traced bytes of cp-in and cp-out over file size, untimed."""
    peaks: dict[str, float] = {}

    def call(op, argv):
        if op == "hpf-compile":
            return run_cli(argv)
        tracemalloc.start()
        try:
            return run_cli(argv)
        finally:
            peaks[op] = tracemalloc.get_traced_memory()[1] / run.spec.size
            tracemalloc.stop()

    ops = ("hpf-compile", "cp-in", "cp-out") if run.spec.layout == "hpf" else ("cp-in", "cp-out")
    run_ops(run, ops, tally, call)
    return peaks


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def end_to_end(run: Run, iterations: list[Iteration], raw: bool = False) -> dict[str, list[float]]:
    """Per-iteration samples of each throughput and time metric,
    normalised to the reference machine speed unless ``raw``."""

    def seconds(it: Iteration, op: str) -> float:
        return it.times[op] if raw else it.normalised(op)

    mib = run.spec.size / MIB
    samples = {name: [mib / seconds(it, op) for it in iterations] for name, op in THROUGHPUT_OPS.items()}
    samples.update({name: [seconds(it, op) for it in iterations] for name, op in TIME_OPS.items()})
    return samples


def per_layer(run: Run, tracer: Tracer, iterations: list[Iteration]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in LAYER_TIMES}
    counts: dict[str, list[float]] = {"views.extents": [], "hpf.owner_entries": []}
    for it in iterations:
        if not it.traced:
            continue
        inclusive, own = layer_times(tracer.spans, it.ops)
        for name, (_, span, kind, scale) in LAYER_TIMES.items():
            samples[name].append((inclusive if kind == "incl" else own).get(span, 0.0) * scale)
        for span in tracer.spans:
            if span.op in it.ops:
                for key, value in span.counts.items():
                    counts[f"{span.name.split('.')[0]}.{key}"].append(value)
    samples.update(counts)
    files, nbytes = next(iter(run.store_counts), (0, 0))
    samples["store.files_written"] = [files]
    samples["store.bytes_written_ratio"] = [nbytes / run.spec.size]
    totals = {
        flag: [sum(it.normalised(op) for op in it.times) for it in iterations if it.traced is flag]
        for flag in (False, True)
    }
    if totals[False] and totals[True]:
        base = statistics.median(totals[False])
        samples["trace.overhead_pct"] = [(statistics.median(totals[True]) - base) / base * 100]
    return samples


def report(
    title: str,
    samples: dict[str, list[float]],
    units: dict[str, tuple[str, str]],
    raw: dict[str, list[float]] | None = None,
) -> dict[str, dict]:
    print(title)
    print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  {'unit':<7} {'better':<7}{'raw median':>14}")
    metrics = {}
    for name, (unit, better) in units.items():
        values = samples.get(name, [])
        median, q1, q3 = spread(values)
        unscaled = f"{statistics.median(raw[name]):>14.6g}" if raw and raw.get(name) else ""
        print(f"  {name:<26}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>5}  {unit:<7} {better:<7}{unscaled}")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from xdgdl import cli  # noqa: F401  (imported before set-up so no set-up pays for it)

    spec = WORKLOADS[workload]
    work = Path(".bench_work") / spec.name  # relative, so stored descriptors do not depend on the checkout path
    setup_times: list[float] = []
    setup_raw: list[float] = []
    tally = Tally()
    tracer = Tracer() if trace else None
    try:
        start = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or (
            time.perf_counter() - start < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            run = Run(spec, seed, work)
            before = calibrate()
            gc.collect()
            t0 = time.perf_counter()
            run.setup()
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(setup_raw[-1] * CAL_REF_S * 2 / (before + calibrate()))
        run.prepare_checks()
        copy_rate = copyfile_mibps(run)
        iterations = timed_loop(run, seconds, tracer, tally)
        peaks = {} if trace else memory_pass(run, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(iterations)} checked iterations "
          f"of {len(OPS)} ops, {tally.attempted} ops attempted, {tally.failed} failed "
          f"(failed_ops {tally.failed / max(1, tally.attempted):.4f})")
    print(f"machine reference: shutil.copyfile of the same {spec.size} bytes at {copy_rate:.1f} MiB/s (ungated)")
    untraced = [it for it in iterations if not it.traced]
    cal_ms = [1000 * c for it in untraced for c in it.cals.values()]
    print(f"calibration: median {spread(cal_ms)[0]:.3f} ms over {len(cal_ms)} samples "
          f"(reference {1000 * CAL_REF_S:g} ms); timed metrics below are scaled by reference / calibration")
    samples = end_to_end(run, untraced)
    samples.update({
        "cp_in_peak_x": [peaks["cp-in"]] if "cp-in" in peaks else [],
        "cp_out_peak_x": [peaks["cp-out"]] if "cp-out" in peaks else [],
        "setup_s": setup_times,
    })
    raw = {**end_to_end(run, untraced, raw=True), "setup_s": setup_raw}
    shown = {k: v for k, v in END_TO_END.items() if samples[k] or not trace}  # no memory pass when tracing
    metrics = report("end-to-end (untraced iterations)", samples, shown, raw)
    if trace:
        traced = end_to_end(run, [it for it in iterations if it.traced])
        print("tracing overhead (traced minus untraced median, same run)")
        for name in traced:
            if samples[name] and traced[name]:
                delta = statistics.median(traced[name]) - statistics.median(samples[name])
                print(f"  {name:<26}{delta:>+14.6g} {END_TO_END[name][0]}")
        layers = per_layer(run, tracer, iterations)
        layers["ref.copyfile_mibps"] = [copy_rate]
        metrics = report("per layer (traced iterations)", layers, PER_LAYER)
        for name in sorted(tracer.missing):
            print(f"bench: {name} not found; its layer reads 0", file=sys.stderr)
        tracer.write(Path(".bench_out") / f"trace-{workload}-seed{seed}.json")
    return {
        "correct": tally.failed == 0 and bool(iterations),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xdgdl" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'xdgdl'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os.environ.pop("VIP_DIR", None)  # the generated VIP_CONF names the store root
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
