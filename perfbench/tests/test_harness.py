"""Self-tests of the host-cost benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import fidelity, harness, workloads  # noqa: E402
from perfbench.layers import LAYERS, GcClock, LayerTracer, SelfTimer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # t: 0 start | 1 enter a | 3 enter b | 4 enter a | 6 exit | 7 exit | 10 exit | 12 flush
    timer = SelfTimer(FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 10.0, 12.0]))
    timer.enter("a")
    timer.enter("b")
    timer.enter("a")
    timer.exit()
    timer.exit()
    timer.exit()
    totals = timer.flush()
    assert totals == {None: 1.0 + 2.0, "a": 2.0 + 2.0 + 3.0, "b": 1.0 + 1.0}
    assert timer.depth == 0


def test_skip_cuts_a_pause_out_of_the_open_span():
    timer = SelfTimer(FakeClock([0.0, 1.0, 5.0, 6.0]))
    timer.enter("a")
    timer.skip(3.0)  # e.g. a 3 s collector pause inside "a"
    timer.exit()
    assert timer.flush() == {None: 1.0 + 1.0, "a": 1.0}


def test_run_s_sums_each_slice_at_its_fastest_after_the_warm_up():
    warm_up = harness.Batch(run_s=3.0, slices=[1.0, 1.0, 1.0])
    slow_start = harness.Batch(run_s=4.5, slices=[3.0, 0.5, 1.0])
    slow_end = harness.Batch(run_s=5.0, slices=[2.0, 1.0, 2.0])
    assert harness.fastest_run_s([warm_up, slow_start, slow_end]) == 2.0 + 0.5 + 1.0
    assert harness.fastest_run_s([warm_up]) == 3.0
    # slices that do not line up fall back to the median batch
    short = harness.Batch(run_s=6.0, slices=[6.0])
    assert harness.fastest_run_s([warm_up, slow_start, short]) == (4.5 + 6.0) / 2


def test_declared_names_are_well_formed_and_name_every_workload():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        for name, unit in harness.declared(kind).items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _tiny_points(seed):
    """Every model on a 2-node machine plus a small shuffle and allreduce:
    seconds of host time, every layer exercised.  Like the real workloads,
    it imports the program when a batch is made."""
    import repro.api as api
    from repro.apps.osu import runner
    from repro.apps.shuffle import driver
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=2)

    def osu(model, size, placement):
        return workloads.Point(
            f"lat.{model}.{placement}.{size}",
            lambda: api.session(cfg).model(model).build(),
            lambda s: {"latency": runner.run_latency(model, size, placement, True,
                                                      session=s, iters=2, skip=1)})

    def shuffle(sess):
        res = driver.run_shuffle("ampi", rounds=2, seed=3, session=sess)
        return {"total_time": res.total_time, "bytes_moved": res.bytes_moved}

    def allreduce(sess):
        ends = [0.0] * 2
        done = [0]
        sess.run_until(sess.launch(workloads._allreduce_program, [4096, 1 << 20],
                                   ends, done))
        return {"end0": ends[0], "end1": ends[1], "done": done[0]}

    pool_cfg = cfg.with_virtual_payload().with_pool(True).with_ucx(mapping_cost=1e-4)
    points = [osu(m, size, p) for m in workloads.OSU_MODELS
              for size, p in ((8, "intra"), (1 << 20, "inter"))]
    points += [
        workloads.Point("shuffle", lambda: api.session(pool_cfg).model("ampi")
                        .ranks(12).build(), shuffle),
        workloads.Point("allreduce", lambda: api.session(cfg.with_virtual_payload())
                        .model("ampi").ranks(12).build(), allreduce),
    ]
    return points


def _tiny_workload() -> workloads.Workload:
    return workloads.Workload(
        "tiny", _tiny_points,
        lambda seed, outputs, counters: [("ran", len(outputs) == 10)],
        seeded=False)


@pytest.fixture(scope="module")
def tiny_batches():
    wl = _tiny_workload()
    gc_clock = GcClock()
    untraced = harness.run_batch(wl, 0, gc_clock)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = harness.run_batch(wl, 0, gc_clock, tracer)
    finally:
        tracer.uninstall()
    return wl, untraced, traced


def test_traced_batch_models_the_untraced_results(tiny_batches):
    _wl, untraced, traced = tiny_batches
    assert fidelity.mismatches(untraced.records, traced.records) == []
    assert traced.events == untraced.events
    assert untraced.messages > 0


def test_traced_batch_attributes_time_and_counts_to_every_layer(tiny_batches):
    _wl, _untraced, traced = tiny_batches
    for layer in LAYERS:
        assert traced.self_s.get(layer, 0.0) > 0.0, layer
    attributed = sum(traced.self_s.get(layer, 0.0) for layer in LAYERS) + sum(traced.gc_s)
    assert abs(traced.run_s - attributed) < 0.05 * traced.run_s
    for counter in ("ucx.tag_send_calls", "core.send_device_calls",
                    "converse.send_calls", "ampi.send_calls", "charm.send_calls",
                    "charm4py.send_calls", "openmpi.send_calls",
                    "hardware.path_transfer_calls", "hardware.route_calls",
                    "hardware.alloc_calls", "collectives.calls"):
        assert traced.calls[counter] > 0, counter


def test_collective_bodies_are_billed_to_collectives():
    """The collective entry points only build generators; their bodies must
    still land in ``collectives``, and the rank program's own code in
    ``apps``."""
    import repro.api as api
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=2).with_virtual_payload()
    schedule = [4096, 65536, 1 << 20, 4096]

    def allreduce(sess):
        ends = [0.0] * len(schedule)
        sess.run_until(sess.launch(workloads._allreduce_program, schedule, ends, [0]))
        return {"ends": ends}

    point = workloads.Point(
        "allreduce", lambda: api.session(cfg).model("ampi").ranks(12).build(), allreduce)
    wl = workloads.Workload("allreduce", lambda seed: [point], lambda *a: [], seeded=False)
    tracer = LayerTracer()
    tracer.install()
    try:
        batch = harness.run_batch(wl, 0, GcClock(), tracer)
    finally:
        tracer.uninstall()
    collectives = batch.self_s.get("collectives", 0.0)
    assert batch.calls["collectives.calls"] == 12 * len(schedule)
    assert collectives > 0.05 * batch.run_s
    assert 0.0 < batch.self_s.get("apps", 0.0) < collectives


def test_run_emits_exactly_the_declared_metrics(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny_workload())
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run("tiny", 0, 0.0, trace, log=lambda line: None)
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            harness.declared(kind)


def test_uninstall_restores_the_program():
    from repro.hardware import links
    from repro.sim.engine import Simulator
    from repro.ucx import worker

    before = (Simulator.schedule, links.path_transfer, worker.path_transfer,
              worker.UcpWorker.tag_send_nb)
    tracer = LayerTracer()
    tracer.install()
    assert Simulator.schedule is not before[0]
    assert worker.path_transfer is not before[2]
    tracer.uninstall()
    assert (Simulator.schedule, links.path_transfer, worker.path_transfer,
            worker.UcpWorker.tag_send_nb) == before


def test_perturbed_reference_raises_the_fail_share(tiny_batches, tmp_path, monkeypatch):
    wl, untraced, _traced = tiny_batches
    monkeypatch.setattr(fidelity, "REFERENCE_DIR", tmp_path)
    fidelity.save_reference(wl.name, {fidelity.ANY_SEED: untraced.records})
    attempted, failed, _ = harness.check_fidelity(wl, 5, [untraced])
    assert failed == 0 and attempted > len(untraced.records)

    perturbed = dict(untraced.records)
    key = next(k for k, v in perturbed.items() if isinstance(v, float))
    perturbed[key] = perturbed[key] * (1 + 2 ** -52) + 1e-300
    fidelity.save_reference(wl.name, {fidelity.ANY_SEED: perturbed})
    attempted, failed, failures = harness.check_fidelity(wl, 5, [untraced])
    assert failed / attempted > 0
    assert failures == [f"batch0:reference:{key}"]


def test_stored_references_exist_and_cover_the_default_seed():
    for name, wl in workloads.WORKLOADS.items():
        assert fidelity.load_reference(name, 0) is not None, name
        if not wl.seeded:
            assert fidelity.load_reference(name, 12345) is not None, name


def test_jacobi_reference_agrees_with_the_committed_baseline():
    """The benchmark's Jacobi point is one iteration of the baseline gate's
    n256 AMPI weak point: both were recorded independently, and every
    iteration sends the same halos."""
    from repro.obs.baseline import _JACOBI_ITERS, _JACOBI_WARMUP

    ref = fidelity.load_reference("jacobi_weak_ampi_256", 0)
    base = json.loads((ROOT / "BENCH_baseline.json").read_text())
    point = base["entries"]["jacobi_ampi_weak_256"]["n256"]
    base_iters = _JACOBI_ITERS + _JACOBI_WARMUP
    ours = workloads.JACOBI_ITERS + workloads.JACOBI_WARMUP
    for name in ("ucx.send", "ucx.recv", "ucx.am_send"):
        assert ref[f"n256/counters/{name}"] * base_iters == point["counters"][name] * ours


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "osu_ladders_4models",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
