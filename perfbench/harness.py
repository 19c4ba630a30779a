"""Runs one workload, times it, checks it and assembles the metrics.

Untraced (``--trace 0``): batches run back to back with every observer off
(the config defaults) until the next batch would overrun ``--seconds``
(at least one runs).  ``run_s`` is built from slices: every
``SLICE_EVENTS`` simulated events of a point mark a slice, so slice ``k`` of
a point does the same work in every batch.  Each slice counts with its
fastest batch, which drops the seconds-long spells in which a shared host
runs the process slower.  The first batch is a warm-up and is left out:
lazily built state moves its collector pauses, while every later batch
starts from a full collection and pauses in the same slices, so the pauses
stay counted.  The other end-to-end metrics are medians over batches.

Traced (``--trace 1``): half the time runs untraced batches, half runs
batches under :class:`perfbench.layers.LayerTracer`; the per-layer metrics
come from the traced batches, the overhead baseline from the untraced ones,
the ``runtime`` ones from both (``runtime.traced_*`` for the traced
batches), and the two must model identical results.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import fidelity, workloads
from perfbench.layers import LAYERS, GcClock, LayerTracer

clock = time.perf_counter

#: Declares the workloads and every reported metric with its unit.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Simulated events per timed slice of a point (a power of two).
SLICE_EVENTS = 4096

#: The program's sources, imported by a fresh interpreter to time the import.
SRC = BENCHMARK_JSON.parent / "src"

#: ``setup_s`` is the median of at least this many imports plus the median
#: of at least this many build sets, one of each per batch (extra ones fill
#: in when fewer batches ran).
SETUP_SAMPLES = 5


@dataclass
class Batch:
    """What one closed batch of a workload did."""

    #: seconds a fresh interpreter took to import the program before it
    import_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    #: seconds per slice of every point's run phase, in order
    slices: List[float] = field(default_factory=list)
    outputs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    records: Dict[str, object] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    events: int = 0
    gc_s: List[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    gc_passes: List[int] = field(default_factory=lambda: [0, 0, 0])
    #: read when the last simulation of the batch ends, sessions still alive
    peak_rss_mb: float = 0.0
    live_objects: int = 0
    #: traced batches only: self seconds by layer and entry-point calls
    self_s: Dict[Optional[str], float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    @property
    def messages(self) -> int:
        """Modeled messages: UCX tag sends plus active-message sends."""
        return self.counters["ucx.send"] + self.counters["ucx.am_send"]


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program, timed inside
    it.  A child process leaves this process's heap, and so the collector
    pauses of its batches, untouched."""
    code = (f"import importlib, sys, time; sys.path[:0] = [{str(SRC)!r}]; "
            f"t0 = time.perf_counter(); "
            f"[importlib.import_module(m) for m in {workloads.PROGRAM_MODULES!r}]; "
            f"print(time.perf_counter() - t0)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _add(acc: Dict, before: Dict, after: Dict) -> None:
    for key, value in after.items():
        acc[key] = acc.get(key, 0) + value - before.get(key, 0)


def run_batch(wl: workloads.Workload, seed: int, gc_clock: GcClock,
              tracer: Optional[LayerTracer] = None) -> Batch:
    """Build and run every point of one batch; only the run phases count
    toward ``run_s``, GC time and layer self time."""
    batch = Batch()
    points = wl.points(seed)
    for i, point in enumerate(points):
        t0 = clock()
        sess = point.build()
        batch.build_s += clock() - t0
        gc_before = gc_clock.snapshot()
        traced_before = tracer.snapshot() if tracer is not None else None
        marks = [clock()]
        sess.sim.set_probe(lambda: marks.append(clock()), SLICE_EVENTS)
        out = point.run(sess)
        marks.append(clock())
        sess.sim.set_probe(None)
        batch.run_s += marks[-1] - marks[0]
        batch.slices += [b - a for a, b in zip(marks, marks[1:])]
        if tracer is not None:
            self_after, calls_after = tracer.snapshot()
            _add(batch.self_s, traced_before[0], self_after)
            _add(batch.calls, traced_before[1], calls_after)
        gc_after = gc_clock.snapshot()
        for gen in range(3):
            batch.gc_s[gen] += gc_after[0][gen] - gc_before[0][gen]
            batch.gc_passes[gen] += gc_after[1][gen] - gc_before[1][gen]
        batch.outputs[point.label] = out
        batch.records.update(fidelity.session_record(point.label, sess, out))
        batch.counters.update(sess.counters)
        batch.events += sess.sim.event_count
        if i == len(points) - 1:
            # peak first: counting the heap allocates a list of every object.
            # Uncollected garbage would make the count depend on where the
            # collector's last pass fell, so it is collected (untimed) first.
            batch.peak_rss_mb = peak_rss_mb()
            gc.collect()
            batch.live_objects = len(gc.get_objects())
        del sess
    return batch


def run_batches(wl: workloads.Workload, seed: int, seconds: float,
                gc_clock: GcClock, tracer: Optional[LayerTracer] = None) -> List[Batch]:
    """Run batches until the next one would overrun ``seconds`` (at least
    one)."""
    batches: List[Batch] = []
    start = clock()
    while True:
        import_s = import_seconds()
        gc.collect()
        batch = run_batch(wl, seed, gc_clock, tracer)
        batch.import_s = import_s
        batches.append(batch)
        elapsed = clock() - start
        if elapsed + elapsed / len(batches) > seconds:
            return batches


def build_only(wl: workloads.Workload, seed: int) -> float:
    total = 0.0
    for point in wl.points(seed):
        t0 = clock()
        sess = point.build()
        total += clock() - t0
        del sess
    return total


def check_fidelity(wl: workloads.Workload, seed: int,
                   batches: List[Batch]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, failure names) over every batch: the workload's
    self-checks, the stored reference for ``seed`` when there is one, and
    agreement between batches."""
    reference = fidelity.load_reference(wl.name, seed)
    attempted = failed = 0
    failures: List[str] = []
    first = batches[0]
    for i, batch in enumerate(batches):
        for name, ok in wl.self_checks(seed, batch.outputs, batch.counters):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"batch{i}:check:{name}")
        if reference is not None:
            bad = fidelity.mismatches(reference, batch.records)
            attempted += len(reference.keys() | batch.records.keys())
            failed += len(bad)
            failures += [f"batch{i}:reference:{k}" for k in bad]
        if i:
            bad = fidelity.mismatches(first.records, batch.records)
            attempted += 1
            if bad or batch.events != first.events:
                failed += 1
                failures.append(f"batch{i}:differs_from_batch0")
    return attempted, failed, failures


def declared(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``"end_to_end"`` or ``"per_layer"`` metrics
    BENCHMARK.json declares, in its order."""
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _median(values) -> float:
    return statistics.median(list(values))


def fastest_run_s(batches: List[Batch]) -> float:
    """Sum over slices of each slice's fastest time across ``batches``,
    the first left out as warm-up when others ran (the median batch
    ``run_s`` when their slices do not line up, which the fidelity check
    reports as a failure)."""
    timed = batches[1:] or batches
    if len({len(b.slices) for b in timed}) != 1:
        return _median(b.run_s for b in timed)
    return sum(map(min, zip(*(b.slices for b in timed))))


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(wl, seed, batches) -> Dict[str, float]:
    imports = [b.import_s for b in batches]
    setups = [b.build_s for b in batches]
    while len(setups) < SETUP_SAMPLES:
        imports.append(import_seconds())
        setups.append(build_only(wl, seed))
    run_s = fastest_run_s(batches)
    return {
        "run_s": run_s,
        "setup_s": _median(imports) + _median(setups),
        "host_us_per_msg": run_s * 1e6 / batches[0].messages,
        # the process has run only this workload; later batches reuse its heap
        "peak_rss_mb": batches[0].peak_rss_mb,
    }


def runtime_metrics(batches: List[Batch], prefix: str = "runtime.") -> Dict[str, float]:
    """CPython collector accounting of ``batches`` (medians)."""
    run_s = _median(b.run_s for b in batches)
    gc_s = _median(sum(b.gc_s) for b in batches)
    return {
        f"{prefix}gc_s": gc_s,
        f"{prefix}gc_share": _share(gc_s, run_s),
        f"{prefix}gc_gen0_s": _median(b.gc_s[0] for b in batches),
        f"{prefix}gc_gen1_s": _median(b.gc_s[1] for b in batches),
        f"{prefix}gc_gen2_s": _median(b.gc_s[2] for b in batches),
        f"{prefix}gc_gen2_passes": _median(b.gc_passes[2] for b in batches),
        f"{prefix}live_objects": _median(b.live_objects for b in batches),
    }


def per_layer(untraced: List[Batch], traced: List[Batch]) -> Dict[str, float]:
    first = untraced[0]
    run_s = fastest_run_s(untraced)
    traced_run_s = fastest_run_s(traced)
    counters = first.counters
    values: Dict[str, float] = {
        "sim.events": first.events,
        "sim.events_per_msg": _share(first.events, first.messages),
        "sim.events_per_s": _share(first.events, run_s),
        "ucx.unexpected_share": _share(counters["ucx.unexpected_hit"], counters["ucx.recv"]),
        "ucx.mapping_hit_ratio": _share(
            counters["ucx.mapping_hit"],
            counters["ucx.mapping_hit"] + counters["ucx.mapping_new"]),
        "ucx.ep_connects": counters["ucx.ep_connect"],
        "trace.run_s": traced_run_s,
        "trace.overhead_share": traced_run_s / run_s - 1.0,
        "trace.unattributed_share": _median(
            (b.run_s - sum(b.self_s.get(layer, 0.0) for layer in LAYERS) - sum(b.gc_s))
            / b.run_s for b in traced),
    }
    values.update(runtime_metrics(untraced))
    values.update(runtime_metrics(traced, "runtime.traced_"))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = _median(b.self_s.get(layer, 0.0) for b in traced)
    values.update(traced[0].calls)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, log=print) -> Dict:
    """Run one benchmark invocation and return its result object."""
    wl = workloads.WORKLOADS[workload]
    gc_clock = GcClock()
    gc_clock.install()
    try:
        untraced = run_batches(wl, seed, seconds / 2 if trace else seconds, gc_clock)
        attempted, failed, failures = check_fidelity(wl, seed, untraced)
        if not trace:
            values = end_to_end(wl, seed, untraced)
            units = declared("end_to_end")
            extra = runtime_metrics(untraced)
        else:
            tracer = LayerTracer()
            gc_clock.on_pause = tracer.timer.skip
            tracer.install()
            try:
                traced = run_batches(wl, seed, seconds / 2, gc_clock, tracer)
            finally:
                tracer.uninstall()
                gc_clock.on_pause = None
            for i, batch in enumerate(traced):
                attempted += 1
                if (fidelity.mismatches(untraced[0].records, batch.records)
                        or batch.events != untraced[0].events):
                    failed += 1
                    failures.append(f"traced_batch{i}:differs_from_untraced")
            values = per_layer(untraced, traced)
            units = declared("per_layer")
            extra = {}
    finally:
        gc_clock.uninstall()
    metrics = {name: values[name] for name in units}

    log(f"# workload {workload} seed {seed} trace {int(trace)}: "
        f"{len(untraced)} untraced batch(es)")
    for name, value in metrics.items():
        log(f"{name} = {value!r} {units[name]}")
    for name, value in extra.items():
        log(f"{name} = {value!r}")
    log(f"fidelity_fail_share = {_share(failed, attempted)!r} share "
        f"({failed} of {attempted} modeled points/checks differ)")
    for name in failures[:20]:
        log(f"# mismatch: {name}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
