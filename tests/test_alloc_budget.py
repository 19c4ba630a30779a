"""Live-heap budget of the message path.

Every in-flight message keeps some objects alive: its requests, events,
wire descriptors and whatever its pending continuations hold.  On a
paper-scale run that per-message footprint, multiplied by thousands of
concurrent halos, is what the collector has to traverse, so the message
path keeps it small: continuation state rides on per-message objects or
as ``Simulator.schedule`` arguments, never in closures (whose cells are
allocated on every call and often form cycles only the collector frees).

The burst below posts every halo of every rank at once, so at its peak
nearly all messages are in flight together.  A probe installed with
``Simulator.set_probe`` samples the heap; the budget is checked at the
sample with the most live objects.
"""

import gc
import types

import repro.api as api
from repro.config import KB, MachineConfig

#: GC-tracked objects one in-flight message may keep alive
PER_MESSAGE_BUDGET = 45

NODES = 2
ROUNDS = 8
SIZE = 256 * KB  # device rendezvous, both intra- and inter-node


def _halo_burst(mpi, messages):
    n = mpi.size
    partners = (1, n // 2)
    sbuf = mpi.alloc_device(SIZE)
    rbufs = (mpi.alloc_device(SIZE), mpi.alloc_device(SIZE))
    yield None
    reqs = []
    for k in range(ROUNDS):
        for j in range(2):
            src = (mpi.rank - partners[j]) % n
            req = mpi.irecv(rbufs[j], SIZE, src=src, tag=k)
            messages.setdefault((src, mpi.rank, k), [None, None])[1] = req
            reqs.append(req)
    for k in range(ROUNDS):
        for off in partners:
            dst = (mpi.rank + off) % n
            req = mpi.isend(sbuf, SIZE, dst=dst, tag=k)
            messages.setdefault((mpi.rank, dst, k), [None, None])[0] = req
            reqs.append(req)
    yield mpi.waitall(reqs)


def _in_flight(messages):
    return sum(
        1 for send, recv in messages.values()
        if send is None or recv is None or not (send.done and recv.done)
    )


def _cells(objects):
    return sum(1 for o in objects if type(o) is types.CellType)


def test_in_flight_messages_stay_within_heap_budget():
    cfg = MachineConfig.summit(nodes=NODES).with_virtual_payload()
    sess = api.session(cfg).model("ampi").build()
    messages = {}
    gc.collect()
    # holding the baseline keeps every counted object alive, so the deltas
    # below are exactly what the run added
    baseline = gc.get_objects()
    base_live = len(baseline)
    base_cells = _cells(baseline)
    peak = {"live": 0}

    def probe():
        objects = gc.get_objects()
        live = len(objects)
        if live > peak["live"]:
            peak.update(live=live, in_flight=_in_flight(messages),
                        cells=_cells(objects) - base_cells)

    sess.sim.set_probe(probe, every=32)
    done = sess.launch(_halo_burst, messages)
    sess.run_until(done)
    sess.sim.set_probe(None)
    del baseline

    assert len(messages) == NODES * 6 * 2 * ROUNDS
    assert _in_flight(messages) == 0
    # the peak really is a burst: most messages are in flight together
    assert peak["in_flight"] >= len(messages) // 2
    per_message = (peak["live"] - base_live) / peak["in_flight"]
    assert per_message <= PER_MESSAGE_BUDGET, (
        f"{per_message:.1f} live objects per in-flight message "
        f"(budget {PER_MESSAGE_BUDGET})"
    )
    assert peak["cells"] == 0, f"{peak['cells']} closure cells alive at the peak"
