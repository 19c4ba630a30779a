"""The benchmark's three workloads.

A workload is a closed batch: an ordered list of points, each one
``SessionBuilder.build()`` followed by one simulation on the built session.
The harness times the two phases separately.  Every point returns the
modeled quantities it produced (seconds, bytes, counts); the fidelity check
compares them with the stored reference bit for bit.

The seed is the benchmark's input generator: it feeds the shuffle plan.
The Jacobi point and the OSU ladders are the paper's fixed configurations,
so their inputs do not depend on the seed.  The program receives only the
generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

KB = 1 << 10
MB = 1 << 20

#: Modules that make up the program under test; importing them is part of
#: ``setup_s``.
PROGRAM_MODULES = (
    "repro.api",
    "repro.apps.jacobi3d.driver",
    "repro.apps.osu.runner",
    "repro.apps.shuffle.driver",
)


@dataclass(frozen=True)
class Point:
    """One session: ``build()`` returns the session, ``run(session)`` runs
    the simulation and returns its modeled outputs."""

    label: str
    build: Callable[[], object]
    run: Callable[[object], Dict[str, object]]


@dataclass(frozen=True)
class Workload:
    """A named closed batch; why each was chosen is in BENCHMARK.json."""

    name: str
    #: seed -> ordered points of one batch
    points: Callable[[int], List[Point]]
    #: (seed, {label: outputs}, summed session counters) -> [(check, ok)]
    self_checks: Callable[[int, Dict[str, Dict], Dict[str, int]], List[Tuple[str, bool]]]
    #: whether the modeled outputs depend on the seed (the reference is
    #: then stored per seed)
    seeded: bool


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


# -- jacobi_weak_ampi_256 ------------------------------------------------------

JACOBI_NODES = 256
JACOBI_ITERS = 1
JACOBI_WARMUP = 0


def _jacobi_points(seed: int) -> List[Point]:
    import repro.api as api
    from repro.apps.jacobi3d import driver
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=JACOBI_NODES).with_virtual_payload()

    def run(sess) -> Dict[str, object]:
        res = driver.run_jacobi("ampi", nodes=JACOBI_NODES, scaling="weak",
                                iters=JACOBI_ITERS, warmup=JACOBI_WARMUP,
                                session=sess)
        return {"iter_time": res.iter_time, "comm_time": res.comm_time}

    return [Point(f"n{JACOBI_NODES}",
                  lambda: api.session(cfg).model("ampi").build(), run)]


def _jacobi_checks(seed, outputs, counters):
    from repro.apps.jacobi3d.decomposition import Decomposition, weak_scaling_domain
    from repro.config import MachineConfig

    out = outputs[f"n{JACOBI_NODES}"]
    gpus = MachineConfig.summit(nodes=JACOBI_NODES).topology.total_gpus
    decomp = Decomposition.create(weak_scaling_domain(1536, JACOBI_NODES), gpus)
    pairs = sum(len(decomp.neighbors(r)) for r in range(decomp.n_blocks))
    halos = (JACOBI_ITERS + JACOBI_WARMUP) * pairs
    return [
        ("iter_time_positive", _positive(out["iter_time"])),
        ("comm_time_within_iter", 0 < out["comm_time"] <= out["iter_time"]),
        ("halo_sends_match_plan", counters.get("ucx.send", 0) == halos),
        ("every_send_received", counters.get("ucx.recv", 0) == halos),
    ]


# -- osu_ladders_4models ---------------------------------------------------------

OSU_MODELS = ("charm", "ampi", "openmpi", "charm4py")
OSU_BENCHMARKS = ("latency", "bandwidth")
OSU_PLACEMENTS = ("intra", "inter")
#: Every other size of the figures' 1 B-4 MB ladder: 12 sizes, on both
#: sides of every eager/rendezvous threshold.
OSU_SIZES = tuple(1 << i for i in range(0, 23, 2))
#: Bandwidth windows per point: one timed after one warm-up.
OSU_BW_LOOPS = 1

#: The suite's osu_allreduce ladder, the only collectives user: one AMPI
#: device allreduce of each size in turn, with the buffers allocated once
#: and automatic flat/hierarchical selection.
ALLREDUCE_RANKS = 64
ALLREDUCE_NODES = 11
ALLREDUCE_SIZES = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB)
ALLREDUCE_LABEL = f"allreduce.ampi.r{ALLREDUCE_RANKS}"


def _allreduce_program(rank, schedule, ends: List[float], done: List[int]):
    """One rank: a buffer per size allocated once and reused, reduced in
    ``schedule`` order; records when each call finished here."""
    bufs = {size: rank.alloc_device(size) for size in dict.fromkeys(schedule)}
    for i, size in enumerate(schedule):
        yield from rank.allreduce_device(bufs[size], size)
        if rank.sim.now > ends[i]:
            ends[i] = rank.sim.now
    done[0] += 1


def _allreduce_point() -> Point:
    import repro.api as api
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=ALLREDUCE_NODES).with_virtual_payload()

    def run(sess) -> Dict[str, object]:
        ends = [0.0] * len(ALLREDUCE_SIZES)
        done = [0]
        sess.run_until(sess.launch(_allreduce_program, ALLREDUCE_SIZES, ends, done),
                       max_events=200_000_000)
        out = {f"call{i}_{size}_end": t
               for i, (size, t) in enumerate(zip(ALLREDUCE_SIZES, ends))}
        out["ranks_done"] = done[0]
        return out

    return Point(ALLREDUCE_LABEL,
                 lambda: api.session(cfg).model("ampi").ranks(ALLREDUCE_RANKS).build(),
                 run)


def _osu_points(seed: int) -> List[Point]:
    import repro.api as api
    from repro.apps.osu import runner
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=2)
    specs = [(b, m, p, s) for b in OSU_BENCHMARKS for m in OSU_MODELS
             for p in OSU_PLACEMENTS for s in OSU_SIZES]

    def point(bench, model, placement, size) -> Point:
        def run(sess) -> Dict[str, object]:
            if bench == "latency":
                return {"latency": runner.run_latency(
                    model, size, placement, True, session=sess)}
            return {"bandwidth": runner.run_bandwidth(
                model, size, placement, True, loops=OSU_BW_LOOPS, session=sess)}

        return Point(f"{bench}.{model}.{placement}.{size}",
                     lambda: api.session(cfg).model(model).build(), run)

    return [point(*spec) for spec in specs] + [_allreduce_point()]


def _osu_checks(seed, outputs, counters):
    expected = len(OSU_BENCHMARKS) * len(OSU_MODELS) * len(OSU_PLACEMENTS) * len(OSU_SIZES)
    p2p = {label: out for label, out in outputs.items() if label != ALLREDUCE_LABEL}
    checks = [("every_point_ran", len(p2p) == expected and ALLREDUCE_LABEL in outputs)]
    checks += [(f"{label}.positive", all(_positive(v) for v in out.values()))
               for label, out in sorted(p2p.items())]
    allreduce = outputs[ALLREDUCE_LABEL]
    ends = [allreduce[f"call{i}_{size}_end"] for i, size in enumerate(ALLREDUCE_SIZES)]
    return checks + [
        ("allreduce.every_rank_finished", allreduce["ranks_done"] == ALLREDUCE_RANKS),
        ("allreduce.every_call_counted",
         counters.get("coll.allreduce", 0) == ALLREDUCE_RANKS * len(ALLREDUCE_SIZES)),
        ("allreduce.calls_finish_in_order",
         all(b > a for a, b in zip([0.0] + ends, ends))),
    ]


# -- shuffle_a2a_ampi_8n ---------------------------------------------------------

SHUFFLE_NODES = 8
SHUFFLE_ROUNDS = 3
#: the first-touch charges of the committed shuffle baseline entries
SHUFFLE_MAPPING_COST = 1e-3
SHUFFLE_EP_SETUP_COST = 2e-5


def _shuffle_config():
    from repro.config import MachineConfig

    return (MachineConfig.summit(nodes=SHUFFLE_NODES).with_virtual_payload()
            .with_pool(True)
            .with_ucx(mapping_cost=SHUFFLE_MAPPING_COST,
                      ep_setup_cost=SHUFFLE_EP_SETUP_COST))


def _shuffle_points(seed: int) -> List[Point]:
    import repro.api as api
    from repro.apps.shuffle import driver

    cfg = _shuffle_config()

    def run(sess) -> Dict[str, object]:
        res = driver.run_shuffle("ampi", rounds=SHUFFLE_ROUNDS, seed=seed,
                                 session=sess)
        out = {"total_time": res.total_time, "bytes_moved": res.bytes_moved,
               "chunks_moved": res.chunks_moved}
        out.update({f"round{i}_time": t for i, t in enumerate(res.round_times)})
        return out

    ranks = cfg.topology.total_gpus
    return [Point(f"n{SHUFFLE_NODES}",
                  lambda: api.session(cfg).model("ampi").ranks(ranks).build(), run)]


def _shuffle_checks(seed, outputs, counters):
    from repro.apps.shuffle.common import ShufflePlan

    out = outputs[f"n{SHUFFLE_NODES}"]
    plan = ShufflePlan(n_ranks=_shuffle_config().topology.total_gpus,
                       rounds=SHUFFLE_ROUNDS, seed=seed)
    rounds = [out.get(f"round{i}_time") for i in range(SHUFFLE_ROUNDS)]
    return [
        ("bytes_match_plan", out["bytes_moved"] == plan.total_bytes()),
        ("chunks_match_plan", out["chunks_moved"] == plan.pairs * plan.rounds),
        ("every_round_finished", all(_positive(t) for t in rounds)),
        ("every_chunk_received",
         counters.get("ucx.recv", 0) == plan.pairs * plan.rounds),
    ]


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (
        Workload("jacobi_weak_ampi_256", _jacobi_points, _jacobi_checks, seeded=False),
        Workload("osu_ladders_4models", _osu_points, _osu_checks, seeded=False),
        Workload("shuffle_a2a_ampi_8n", _shuffle_points, _shuffle_checks, seeded=True),
    )
}
