"""UCP workers: tag matching and message dispatch.

One worker per process/PE (the paper's non-SMP configuration).  The worker
owns the two matching queues of the UCP tagged API:

* **posted receives** — entries from ``tag_recv_nb`` not yet matched;
* **unexpected messages** — arrived eager payloads and rendezvous RTS
  descriptors with no matching posted receive yet.

Matching is FIFO with wildcard masks: an incoming tag ``t`` matches a posted
entry ``(tag, mask)`` iff ``t & mask == tag & mask``.  This ordering
guarantee is what the Charm++ machine layer's per-(PE, counter) device tags
rely on for correctness.

Both queues are :class:`~repro.core.matchq.IndexedMatchQueue` instances by
default (hash buckets on the full tag, wildcard-mask fallback list), so the
host-side lookup is O(1) amortised for full-mask traffic while the *modeled*
``tag_match_cost * scanned`` delay still charges the virtual linear-scan
length.  ``UcxConfig.indexed_matching=False`` selects the reference linear
lists; simulated results are bit-identical either way.

Fault injection and recovery
----------------------------

When the machine carries a non-empty :class:`~repro.faults.plan.FaultPlan`,
every non-loopback frame consults the :class:`~repro.faults.injector.
FaultInjector` before hitting the wire.  A faulted frame is retransmitted
after an exponential-backoff wait; a frame that exhausts its budget makes
the sender *give up*: the pending request (if any) fails with
``ERR_ENDPOINT_TIMEOUT`` and a ``WireKind.ERR`` notification is delivered
to the peer.  The notification models the peer's own timeout firing for the
same frame — the model's failure detector is symmetric — so it travels
out-of-band (zero extra delay, never itself faulted).  Sequenced ERR frames
inherit the lost frame's ``wire_seq``: the ordered per-pair stream *must*
consume every slot or it stalls behind the loss forever.  Receivers drop
retransmit duplicates by sequence number (already-delivered or held).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.matchq import make_match_queue
from repro.faults.injector import CORRUPT, STALL
from repro.hardware.links import path_transfer
from repro.hardware.memory import Buffer
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.tracing import NULL_SPAN, EndSpan
from repro.ucx.constants import (
    CTRL_MSG_BYTES,
    LOOPBACK_LATENCY,
    TAG_MASK_FULL,
    WIRE_HEADER_BYTES,
)
from repro.ucx.endpoint import UcpEndpoint
from repro.ucx.protocols import eager as eager_proto
from repro.ucx.protocols import rndv as rndv_proto
from repro.ucx.protocols.select import Protocol, choose_send_protocol
from repro.ucx.request import RequestKind, UcxRequest
from repro.ucx.status import UcsStatus, UcxError
from repro.ucx.wire import WireKind, WireMessage


@dataclass
class PostedRecv:
    """One entry of the posted-receive (expected) queue."""

    tag: int
    mask: int
    buf: Buffer
    size: int
    req: UcxRequest

    def matches(self, incoming_tag: int) -> bool:
        return (incoming_tag & self.mask) == (self.tag & self.mask)

    def accepts(self, msg: WireMessage) -> bool:
        """Match predicate over queued (unexpected) wire messages."""
        return self.matches(msg.tag)


class _TracedDone:
    """Trace-on completion hook of a tagged request: ends the request's
    span, observes its latency, then chains the user callback."""

    __slots__ = ("tracer", "metric", "cb")

    def __init__(self, tracer, metric: str, cb) -> None:
        self.tracer = tracer
        self.metric = metric
        self.cb = cb

    def __call__(self, req: UcxRequest) -> None:
        req.span.end()
        self.tracer.observe(self.metric, req.completed_at - req.posted_at,
                            LATENCY_BUCKETS)
        if self.cb is not None:
            self.cb(req)


class _AmFrame:
    """One active-message frame from ``src`` to ``remote``: the AM path's
    per-message descriptor (the tagged path's is :class:`WireMessage`).

    ``rndv`` is ``(size, payload, send_req)`` for a rendezvous RTS, else
    ``None``; ``seq`` is the per-pair AM sequence number (``None`` =
    unsequenced).  A retransmitted frame is the same object."""

    __slots__ = ("src", "remote", "nbytes", "payload", "extra_rx", "rndv", "seq")

    def __init__(self, src: "UcpWorker", remote: "UcpWorker", nbytes: int,
                 payload, extra_rx: float, rndv, seq) -> None:
        self.src = src
        self.remote = remote
        self.nbytes = nbytes
        self.payload = payload
        self.extra_rx = extra_rx
        self.rndv = rndv
        self.seq = seq

    def arrive(self, _ev=None) -> None:
        self.src._am_arrive(self)

    def fetched(self, _ev=None) -> None:
        self.src._am_fetched(self)


class UcpWorker:
    """One communication endpoint owner; see module docstring."""

    def __init__(self, ctx, worker_id: int, node: int, socket: int = 0) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.worker_id = worker_id
        self.node = node
        self.socket = socket
        indexed = ctx.cfg.indexed_matching
        self.posted = make_match_queue(indexed)
        self.unexpected = make_match_queue(indexed)
        telemetry = ctx.telemetry
        if telemetry.enabled:
            self.posted.depth_probe = telemetry.queue_probe(
                "matchq.ucx.posted")
            self.unexpected.depth_probe = telemetry.queue_probe(
                "matchq.ucx.unexpected")
        self.pending_rndv_sends: Dict[int, UcxRequest] = {}
        self._endpoints: Dict[int, UcpEndpoint] = {}
        # per-directed-pair wire sequencing: matchable messages (EAGER/RTS)
        # are processed in send order even when control frames physically
        # arrive first (ordered-QP semantics)
        self._tx_seq: Dict[int, int] = {}
        self._rx_next: Dict[int, int] = {}
        self._rx_held: Dict[int, Dict[int, WireMessage]] = {}
        # the AM (host-message) stream is sequenced independently
        self._am_tx_seq: Dict[int, int] = {}
        self._am_rx_next: Dict[int, int] = {}
        self._am_rx_held: Dict[int, dict] = {}
        # rendezvous lifecycle, for cancellation and loss recovery:
        # ids that finished (FIN seen / gave up) so late or duplicate FINs
        # are ignored; ids the local sender cancelled; ids whose receiver
        # already committed to the data fetch (cancellation fails); and
        # which remote each locally-initiated id was addressed to.  The
        # last two only concern live rendezvous: _rndv_ended drops them.
        self._rndv_done: Set[int] = set()
        self._rndv_cancelled: Set[int] = set()
        self._rndv_started: Set[int] = set()
        self._rndv_remote: Dict[int, int] = {}
        # Composite per-operation cost constants, each summed exactly once
        # here.  Float addition is not associative, so semantically-equal
        # delays derived at different call sites must come from these shared
        # sums rather than re-adding the config fields locally (the engine's
        # tie-break rule; see the repro.sim.engine docstring) — and the hot
        # path saves the re-derivation.
        cfg = ctx.cfg
        self._send_post_cost = cfg.send_overhead + cfg.request_alloc_cost
        self._recv_post_cost = cfg.recv_overhead + cfg.request_alloc_cost
        self._rts_post_cost = (
            cfg.send_overhead + cfg.request_alloc_cost + cfg.rndv_rts_cost
        )
        # per-size host staging-copy times (benchmark loops and halo
        # exchanges revisit a handful of sizes)
        self._host_copy_times: Dict[int, float] = {}
        # statistics
        self.sends = 0
        self.recvs = 0
        self.unexpected_hits = 0
        self.expected_hits = 0
        # total virtual scan length over all matches (what a linear scan
        # would have inspected); the modeled matching delay is proportional
        self.tag_scans = 0

    def _host_copy_time(self, size: int) -> float:
        """Memoized host-memory staging-copy time for ``size`` bytes."""
        t = self._host_copy_times.get(size)
        if t is None:
            t = self.ctx.machine.cfg.topology.host_mem.transfer_time(size)
            self._host_copy_times[size] = t
        return t

    # -- endpoints ------------------------------------------------------------
    def ep(self, remote_id: int) -> UcpEndpoint:
        """Get (and cache) the endpoint to ``remote_id``.

        With a connection limit configured (``UcxConfig.max_endpoints``) the
        cache is LRU: opening an endpoint past the limit closes the
        least-recently-used one first — dropping the peer mappings
        established through it, so reconnecting later pays setup and
        mapping again (production connection-count pressure)."""
        ep = self._endpoints.get(remote_id)
        if ep is not None:
            if self.ctx.ep_limit is not None:
                # dict preserves insertion order: re-insert to mark recency
                del self._endpoints[remote_id]
                self._endpoints[remote_id] = ep
            return ep
        limit = self.ctx.ep_limit
        if limit is not None and len(self._endpoints) >= limit:
            self._evict_lru_endpoint()
        ep = UcpEndpoint(self, self.ctx.worker(remote_id))
        self._endpoints[remote_id] = ep
        self.ctx.ep_total += 1
        if self.ctx.telemetry.enabled:
            self.ctx.telemetry.sample("ucx.ep_table", self.ctx.ep_total,
                                      "endpoints")
        return ep

    def _evict_lru_endpoint(self) -> None:
        victim_id = next(iter(self._endpoints))
        victim = self._endpoints.pop(victim_id)
        victim.closed = True
        self.ctx.ep_total -= 1
        self.ctx.machine.tracer.count("ucx", "ep_evicted")
        if self.ctx.telemetry.enabled:
            self.ctx.telemetry.bump("ucx.ep_evictions")
            self.ctx.telemetry.sample("ucx.ep_table", self.ctx.ep_total,
                                      "endpoints")
        if self.ctx.mapping_enabled:
            self.ctx.drop_pair_mappings(self.worker_id, victim_id)

    # -- public API -------------------------------------------------------------
    def tag_send_nb(
        self,
        ep: UcpEndpoint,
        buf: Buffer,
        size: int,
        tag: int,
        cb=None,
    ) -> UcxRequest:
        """``ucp_tag_send_nb``: non-blocking tagged send."""
        if ep.local is not self:
            raise UcxError("endpoint does not belong to this worker")
        if size > buf.size:
            raise UcxError(f"send size {size} exceeds buffer size {buf.size}")
        self.sends += 1
        ep.messages_sent += 1
        ep.bytes_sent += size
        cfg = self.ctx.cfg
        req = UcxRequest(self.sim, RequestKind.SEND, tag, size, cb)
        proto = choose_send_protocol(cfg, buf, size)
        tracer = self.ctx.machine.tracer
        tracer.count("ucx", "send")
        tracer.charge("ucx", self._send_post_cost)
        flight = tracer.flight
        if flight.enabled and buf.on_device:
            # direct-UCX device sends (OpenMPI) have no machine-layer record
            flight.ensure(tag, src_pe=self.worker_id,
                          dst_pe=ep.remote.worker_id, size=size)
            flight.ucx_send(tag, proto.value)
        if tracer.enabled:
            sp = tracer.span("ucx", "tag_send", tag=tag, size=size, proto=proto.value)
            req.span = sp
            tracer.observe("ucx.send_size_bytes", size)
            req.cb = _TracedDone(tracer, "ucx.send_latency_seconds", cb)
        else:
            sp = NULL_SPAN
        # lazy wireup: the endpoint's first message pays connection setup
        # (0.0 when the lifecycle model is off — adding it then is exact)
        pre = ep.mark_established() if self.ctx.ep_lifecycle_enabled else 0.0
        # matching order follows the tag_send_nb call order, whatever the
        # protocols' differing pre-send delays do to physical arrival order
        seq = self._tx_seq.get(ep.remote.worker_id, 0)
        self._tx_seq[ep.remote.worker_id] = seq + 1
        with tracer.under(sp):
            if proto is Protocol.EAGER:
                eager_proto.start_send(self, ep.remote, buf, size, tag, req,
                                       wire_seq=seq, pre_cost=pre)
            else:
                rndv_proto.start_send(self, ep.remote, buf, size, tag, req,
                                      wire_seq=seq, pre_cost=pre)
        return req

    def tag_recv_nb(
        self,
        buf: Buffer,
        size: int,
        tag: int,
        mask: int = TAG_MASK_FULL,
        cb=None,
    ) -> UcxRequest:
        """``ucp_tag_recv_nb``: post a tagged receive.

        Scans the unexpected queue first (FIFO); on a hit the protocol
        completion runs with the accumulated matching cost as its delay.
        """
        if size > buf.size:
            raise UcxError(f"recv size {size} exceeds buffer size {buf.size}")
        self.recvs += 1
        cfg = self.ctx.cfg
        req = UcxRequest(self.sim, RequestKind.RECV, tag, size, cb)
        posted = PostedRecv(tag, mask, buf, size, req)
        base = self._recv_post_cost
        tracer = self.ctx.machine.tracer
        tracer.count("ucx", "recv")
        tracer.charge("ucx", base)
        if tracer.enabled:
            req.span = tracer.span("ucx", "tag_recv", tag=tag, size=size)
            req.cb = _TracedDone(tracer, "ucx.recv_latency_seconds", cb)

        # unexpected messages carry concrete tags (their queue key); a
        # full-mask receive is an exact lookup, a masked one falls back to
        # the FIFO scan.
        lookup = (tag & TAG_MASK_FULL) if mask == TAG_MASK_FULL else None
        msg, scanned = self.unexpected.match(lookup, posted.accepts)
        if msg is not None:
            self.unexpected_hits += 1
            self.tag_scans += scanned
            tracer.count("ucx", "unexpected_hit")
            tracer.charge("ucx", cfg.tag_match_cost * scanned)
            if tracer.enabled:
                tracer.span(
                    "ucx.match", "tag_match",
                    tag=msg.tag, scanned=scanned, unexpected=True,
                ).close_at(self.sim.now + cfg.tag_match_cost * scanned)
            if tracer.flight.enabled:
                tracer.flight.matched(msg.tag, posted_at=req.posted_at,
                                      unexpected=True)
            delay = base + cfg.tag_match_cost * scanned
            self._dispatch_match(msg, posted, delay)
            return req

        self.posted.append(
            posted, key=((tag & TAG_MASK_FULL) if mask == TAG_MASK_FULL else None)
        )
        return req

    def tag_probe_nb(self, tag: int, mask: int = TAG_MASK_FULL):
        """``ucp_tag_probe_nb``: peek the unexpected queue for a matching
        message without consuming it.  Returns ``(tag, size)`` or ``None``."""
        lookup = (tag & TAG_MASK_FULL) if mask == TAG_MASK_FULL else None
        msg = self.unexpected.peek(
            lookup, lambda m: (m.tag & mask) == (tag & mask)
        )
        return None if msg is None else (msg.tag, msg.size)

    def cancel(self, req: UcxRequest) -> bool:
        """``ucp_request_cancel``.

        * A posted **receive** is cancellable until it matches.
        * An **eager send** is cancellable until its payload has been staged
          onto the wire (the copy-in window).
        * A **rendezvous send** is cancellable until the receiver commits to
          the data fetch: while the RTS is in flight or sitting unmatched in
          the peer's unexpected queue, cancellation retracts it.

        A successful cancel completes the request with ``ERR_CANCELED``
        (closing its tracing span through the completion callback) and
        cleans up the flight record so a reposted same-tag operation does
        not inherit the cancelled one's stages.  Returns ``True`` iff the
        request was cancelled.
        """
        if req.completed:
            return False
        tracer = self.ctx.machine.tracer
        flight = tracer.flight
        if req.kind is RequestKind.RECV:
            if self.posted.remove_first(lambda p: p.req is req) is None:
                return False
            tracer.count("ucx", "cancel_recv")
            if flight.enabled:
                flight.recv_cancelled(req.tag)
            req.complete(UcsStatus.ERR_CANCELED)
            return True
        if getattr(req, "op", "tag") == "am":
            return False  # AM sends are not cancellable (no UCP handle)
        for rid, pending in self.pending_rndv_sends.items():
            if pending is not req:
                continue
            if rid in self._rndv_started:
                return False  # receiver is already fetching the data
            del self.pending_rndv_sends[rid]
            # the RTS still consumes its wire_seq slot at the receiver (it
            # is dropped there, see _process_in_order), so the ordered
            # stream keeps flowing past the cancelled message
            self._rndv_cancelled.add(rid)
            remote_id = self._rndv_remote.get(rid)
            self._rndv_ended(rid)
            if remote_id is not None:
                # retract the RTS if it sits unmatched at the peer
                self.ctx.worker(remote_id).unexpected.remove_first(
                    lambda m: m.kind is WireKind.RTS and m.rndv_id == rid
                )
            tracer.count("ucx", "cancel_send")
            if flight.enabled:
                flight.cancelled(req.tag)
            req.complete(UcsStatus.ERR_CANCELED)
            return True
        # an eager send still staging its payload; the copy-in continuation sees
        # the completed request and emits a slot-consuming ERR frame instead
        # of the payload
        tracer.count("ucx", "cancel_send")
        if flight.enabled:
            flight.cancelled(req.tag)
        req.complete(UcsStatus.ERR_CANCELED)
        return True

    def _rndv_ended(self, rndv_id: int) -> None:
        """A locally-initiated rendezvous is over (FIN, endpoint timeout or
        cancel): keep its id for late-FIN detection, drop its live state."""
        self._rndv_done.add(rndv_id)
        self._rndv_started.discard(rndv_id)
        self._rndv_remote.pop(rndv_id, None)

    # -- active-message host path -----------------------------------------------
    #
    # The Charm++ UCX machine layer moves ordinary host messages over UCP
    # with preposted wildcard buffers.  Rather than fabricate those buffers,
    # the model provides an AM-style path with the *same cost structure* as
    # the tagged protocols (eager copy-in/wire/copy-out below the host
    # rendezvous threshold; RTS + single-copy fetch above it) that delivers
    # to a worker-level handler installed by the machine layer.

    def set_am_handler(self, handler) -> None:
        """Install the callable invoked as ``handler(payload, size, src_id)``
        when an AM host message is delivered to this worker."""
        self._am_handler = handler

    def set_am_error_handler(self, handler) -> None:
        """Install the callable invoked as ``handler(size, src_id)`` when an
        AM host message from ``src_id`` is detected as lost (its sender
        exhausted the retransmit budget).  Without one, a loss raises."""
        self._am_error_handler = handler

    def am_send(self, ep: UcpEndpoint, size: int, payload=None) -> UcxRequest:
        """Send a host message of ``size`` bytes carrying ``payload`` (any
        Python object; not copied) to ``ep.remote``'s AM handler."""
        if ep.local is not self:
            raise UcxError("endpoint does not belong to this worker")
        self.sends += 1
        ep.messages_sent += 1
        ep.bytes_sent += size
        cfg = self.ctx.cfg
        req = UcxRequest(self.sim, RequestKind.SEND, 0, size, None)
        req.op = "am"
        remote = ep.remote
        tracer = self.ctx.machine.tracer
        tracer.count("ucx", "am_send")
        tracer.charge("ucx", self._send_post_cost)
        if tracer.enabled:
            sp = tracer.span(
                "ucx", "am_send",
                size=size, rndv=size >= cfg.host_rndv_threshold,
            )
            req.span = sp
            req.cb = EndSpan(sp)

        # both AM protocols share one per-pair sequence stream: delivery
        # follows send order even across the eager/rendezvous boundary (a
        # small message sent after a large one must not overtake its fetch)
        seq = self._am_tx_seq.get(remote.worker_id, 0)
        self._am_tx_seq[remote.worker_id] = seq + 1

        # first traffic through the endpoint pays lazy connection setup
        pre = ep.mark_established() if self.ctx.ep_lifecycle_enabled else 0.0
        if size < cfg.host_rndv_threshold:
            # eager: copy-in, wire, copy-out
            copy = self._host_copy_time(size)
            delay = self._send_post_cost + copy + pre
            frame = _AmFrame(self, remote, size, payload, copy, None, seq)
            self.sim.schedule(delay, self._am_send_eager, frame, req)
        else:
            # rendezvous: RTS, then a single-copy fetch of the data
            delay = self._rts_post_cost + pre
            frame = _AmFrame(self, remote, CTRL_MSG_BYTES, None, 0.0,
                             (size, payload, req), seq)
            self.sim.schedule(delay, self._am_wire, frame)
        return req

    def _am_send_eager(self, frame: _AmFrame, req: UcxRequest) -> None:
        req.complete()
        self._am_wire(frame)

    def _am_wire(self, frame: _AmFrame, attempt: int = 0) -> None:
        machine = self.ctx.machine
        tracer = machine.tracer
        remote = frame.remote
        if remote.worker_id == self.worker_id:
            if tracer.enabled:
                sp = tracer.span("link", "am_wire", bytes=frame.nbytes)
                self.sim.schedule(LOOPBACK_LATENCY, EndSpan(sp, frame.arrive))
            else:
                self.sim.schedule(LOOPBACK_LATENCY, frame.arrive)
            return
        injector = machine.fault_injector
        if injector is None:
            self._am_put_on_wire(frame)
            return
        fault = injector.frame_fault(
            self.worker_id, remote.worker_id, "am", self.sim.now
        )
        if fault is None:
            self._am_put_on_wire(frame)
            return
        verb, stall = fault
        if verb == STALL:
            # late, not lost: deliver with the stall added; if the stall
            # outlives the retry timer the sender also retransmits, and the
            # receiver dedups the duplicate by sequence number
            self._am_put_on_wire(frame, extra_time=stall)
            if attempt < injector.max_retries and stall >= injector.retry_wait(attempt):
                self._am_schedule_retransmit(frame, injector, attempt)
            return
        if verb == CORRUPT:
            # the frame occupies the wire but fails its integrity check
            route = machine.route(
                machine.host_location(self.node, self.socket),
                machine.host_location(remote.node, remote.socket),
            )
            path_transfer(self.sim, route, frame.nbytes + WIRE_HEADER_BYTES)
        if attempt >= injector.max_retries:
            self._am_give_up(frame)
            return
        self._am_schedule_retransmit(frame, injector, attempt)

    def _am_put_on_wire(self, frame: _AmFrame, extra_time: float = 0.0) -> None:
        machine = self.ctx.machine
        tracer = machine.tracer
        remote = frame.remote
        route = machine.route(
            machine.host_location(self.node, self.socket),
            machine.host_location(remote.node, remote.socket),
        )
        if tracer.enabled:
            sp = tracer.span("link", "am_wire", bytes=frame.nbytes)
            path_transfer(
                self.sim, route, frame.nbytes + WIRE_HEADER_BYTES, extra_time=extra_time
            ).add_callback(EndSpan(sp, frame.arrive))
        else:
            path_transfer(
                self.sim, route, frame.nbytes + WIRE_HEADER_BYTES, extra_time=extra_time
            ).add_callback(frame.arrive)

    def _am_schedule_retransmit(self, frame: _AmFrame, injector, attempt: int) -> None:
        tracer = self.ctx.machine.tracer
        tracer.count("fault", "retransmit")
        if tracer.timeline.enabled:
            tracer.timeline.bump("fault.retransmits")
        wait = injector.retry_wait(attempt)
        if tracer.enabled:
            tracer.span(
                "fault", "retransmit_wait", kind="am", attempt=attempt,
            ).close_at(self.sim.now + wait)
        self.sim.schedule(wait, self._am_wire, frame, attempt + 1)

    def _am_give_up(self, frame: _AmFrame) -> None:
        """The retransmit budget for an AM frame is exhausted."""
        tracer = self.ctx.machine.tracer
        tracer.count("fault", "endpoint_timeout")
        if frame.rndv is not None:
            size, _payload, send_req = frame.rndv
            if not send_req.completed:
                send_req.complete(UcsStatus.ERR_ENDPOINT_TIMEOUT)
            lost = size
        else:
            lost = frame.nbytes
        if frame.seq is not None:
            # the receiver must consume the sequence slot or its ordered AM
            # stream stalls behind the lost message forever; a "lost" entry
            # surfaces the error at delivery order
            self.sim.schedule(
                0.0, frame.remote._am_enqueue, self.worker_id, frame.seq,
                ("lost", lost),
            )

    def _am_arrive(self, frame: _AmFrame) -> None:
        cfg = self.ctx.cfg
        machine = self.ctx.machine
        src = self.worker_id
        remote = frame.remote
        seq = frame.seq
        if frame.rndv is None:
            if seq is None:
                remote._am_deliver(frame.nbytes, frame.payload, src,
                                   cfg.progress_overhead + frame.extra_rx)
                return
            remote._am_enqueue(
                src, seq, ("msg", frame.nbytes, frame.payload, frame.extra_rx))
            return
        if seq is not None and not remote._am_reserve(src, seq):
            # duplicate RTS from a stall-retransmit race: one fetch only
            machine.tracer.count("fault", "duplicate_dropped")
            return
        # receiver fetches the data with a single copy (CMA within a node,
        # RDMA get across nodes; the latter pins the pages first -- a CPU/
        # driver cost that delays the get without occupying the wire)
        reg = cfg.host_rndv_reg_overhead if remote.node != self.node else 0.0
        self.sim.schedule(
            cfg.progress_overhead + cfg.rndv_rts_cost + reg, self._am_start_fetch,
            frame,
        )

    def _am_start_fetch(self, frame: _AmFrame) -> None:
        machine = self.ctx.machine
        remote = frame.remote
        route = machine.route(
            machine.host_location(self.node, self.socket),
            machine.host_location(remote.node, remote.socket),
        )
        size = frame.rndv[0]
        tracer = machine.tracer
        if tracer.enabled:
            sp = tracer.span("link", "am_fetch", bytes=size)
            path_transfer(self.sim, route, size).add_callback(
                EndSpan(sp, frame.fetched))
        else:
            path_transfer(self.sim, route, size).add_callback(frame.fetched)

    def _am_fetched(self, frame: _AmFrame) -> None:
        size, data_payload, send_req = frame.rndv
        if not send_req.completed:
            send_req.complete()
        remote = frame.remote
        if frame.seq is None:
            remote._am_deliver(size, data_payload, self.worker_id,
                               self.ctx.cfg.progress_overhead)
        else:
            remote._am_enqueue(
                self.worker_id, frame.seq, ("msg", size, data_payload, 0.0),
                reserved=True,
            )

    # -- AM receive ordering ------------------------------------------------------
    #
    # Held entries per source are tagged tuples:
    #   ("msg", nbytes, payload, extra_rx)  — ready to deliver
    #   ("pending",)                        — rendezvous fetch in progress
    #   ("lost", nbytes)                    — sender gave up on this slot

    def _am_reserve(self, src: int, seq: int) -> bool:
        """Claim ``seq`` for an in-progress rendezvous fetch.  Returns False
        when the slot was already delivered, reserved, or filled (the frame
        is a retransmit duplicate)."""
        if seq < self._am_rx_next.get(src, 0):
            return False
        held = self._am_rx_held.setdefault(src, {})
        if seq in held:
            return False
        held[seq] = ("pending",)
        return True

    def _am_enqueue(self, src: int, seq: int, entry, reserved: bool = False) -> None:
        """File ``entry`` under ``seq`` and deliver everything now in order.
        Duplicates (slot already delivered or occupied) are dropped unless
        the caller holds the slot's reservation."""
        held = self._am_rx_held.setdefault(src, {})
        if not reserved:
            if seq < self._am_rx_next.get(src, 0) or seq in held:
                self.ctx.machine.tracer.count("fault", "duplicate_dropped")
                return
        held[seq] = entry
        self._am_drain(src)

    def _am_drain(self, src: int) -> None:
        cfg = self.ctx.cfg
        held = self._am_rx_held.get(src)
        while held:
            nxt = self._am_rx_next.get(src, 0)
            entry = held.get(nxt)
            if entry is None or entry[0] == "pending":
                return
            del held[nxt]
            self._am_rx_next[src] = nxt + 1
            if entry[0] == "lost":
                tracer = self.ctx.machine.tracer
                tracer.count("fault", "am_message_lost")
                handler = getattr(self, "_am_error_handler", None)
                if handler is None:
                    raise UcxError(
                        f"worker {self.worker_id}: AM message from {src} lost "
                        f"({entry[1]} bytes) and no AM error handler installed"
                    )
                handler(entry[1], src)
                continue
            _kind, nbytes, payload, extra_rx = entry
            self._am_deliver(nbytes, payload, src, cfg.progress_overhead + extra_rx)

    def _am_deliver(self, size: int, payload, src_id: int, delay: float) -> None:
        handler = getattr(self, "_am_handler", None)
        if handler is None:
            raise UcxError(f"worker {self.worker_id} has no AM handler installed")
        # keep handler invocation order consistent with delivery order: a
        # drained held message must not fire before its predecessor just
        # because its copy-out is cheaper
        if not hasattr(self, "_am_last_deliver"):
            self._am_last_deliver = {}
        at = max(self.sim.now + delay, self._am_last_deliver.get(src_id, 0.0))
        self._am_last_deliver[src_id] = at
        self.sim.schedule(at - self.sim.now, handler, payload, size, src_id)

    # -- wire ----------------------------------------------------------------------
    def transmit(
        self,
        remote: "UcpWorker",
        msg: WireMessage,
        wire_bytes: Optional[int] = None,
    ) -> None:
        """Push ``msg`` onto the wire towards ``remote``.

        Control and eager messages travel host-to-host (device payloads were
        staged by the eager protocol before transmit).  Loopback bypasses
        the link fabric.  With fault injection active, non-loopback frames
        go through the retransmit machinery; ERR notifications are exempt
        (they model the symmetric timeout, not a frame).
        """
        nbytes = (wire_bytes if wire_bytes is not None else msg.size) + WIRE_HEADER_BYTES
        tracer = self.ctx.machine.tracer
        if remote.worker_id == self.worker_id:
            if tracer.enabled:
                sp = tracer.span("link", "wire", kind=msg.kind.name,
                                 tag=msg.tag, bytes=nbytes)
                self.sim.schedule(LOOPBACK_LATENCY, EndSpan(sp, remote._on_wire, msg))
            else:
                self.sim.schedule(LOOPBACK_LATENCY, remote._on_wire, msg)
            return
        msg.dst = remote
        injector = self.ctx.machine.fault_injector
        if injector is not None and msg.kind is not WireKind.ERR:
            self._transmit_faulty(remote, msg, nbytes, injector, 0)
            return
        self._put_on_wire(remote, msg, nbytes)

    def _put_on_wire(
        self, remote: "UcpWorker", msg: WireMessage, nbytes: int,
        extra_time: float = 0.0,
    ) -> None:
        machine = self.ctx.machine
        tracer = machine.tracer
        route = machine.route(
            machine.host_location(self.node), machine.host_location(remote.node)
        )
        if tracer.enabled:
            sp = tracer.span("link", "wire", kind=msg.kind.name,
                             tag=msg.tag, bytes=nbytes)
            path_transfer(self.sim, route, nbytes, extra_time=extra_time).add_callback(
                EndSpan(sp, msg.arrive)
            )
        else:
            path_transfer(self.sim, route, nbytes, extra_time=extra_time).add_callback(
                msg.arrive
            )

    def _transmit_faulty(
        self, remote: "UcpWorker", msg: WireMessage, nbytes: int, injector, attempt: int
    ) -> None:
        fault = injector.frame_fault(
            self.worker_id, remote.worker_id, msg.kind.value, self.sim.now
        )
        if fault is None:
            self._put_on_wire(remote, msg, nbytes)
            return
        verb, stall = fault
        if verb == STALL:
            # late, not lost: deliver with the stall added; when the stall
            # outlives the retry timer, the sender retransmits anyway and
            # the receiver drops whichever copy arrives second
            self._put_on_wire(remote, msg, nbytes, extra_time=stall)
            if attempt < injector.max_retries and stall >= injector.retry_wait(attempt):
                self._schedule_retransmit(remote, msg, nbytes, injector, attempt)
            return
        if verb == CORRUPT:
            # the frame occupies the wire but fails its integrity check
            machine = self.ctx.machine
            route = machine.route(
                machine.host_location(self.node), machine.host_location(remote.node)
            )
            path_transfer(self.sim, route, nbytes)
        if attempt >= injector.max_retries:
            self._give_up(remote, msg)
            return
        self._schedule_retransmit(remote, msg, nbytes, injector, attempt)

    def _schedule_retransmit(
        self, remote: "UcpWorker", msg: WireMessage, nbytes: int, injector, attempt: int
    ) -> None:
        tracer = self.ctx.machine.tracer
        tracer.count("fault", "retransmit")
        if tracer.timeline.enabled:
            tracer.timeline.bump("fault.retransmits")
        flight = tracer.flight
        if flight.enabled and msg.kind in (WireKind.EAGER, WireKind.RTS):
            flight.retransmitted(msg.tag)
        wait = injector.retry_wait(attempt)
        if tracer.enabled:
            tracer.span(
                "fault", "retransmit_wait",
                kind=msg.kind.name, tag=msg.tag, attempt=attempt,
            ).close_at(self.sim.now + wait)
        self.sim.schedule(
            wait, self._transmit_faulty, remote, msg, nbytes, injector, attempt + 1
        )

    def _give_up(self, remote: "UcpWorker", msg: WireMessage) -> None:
        """A tagged-path frame exhausted its retransmit budget."""
        tracer = self.ctx.machine.tracer
        tracer.count("fault", "endpoint_timeout")
        flight = tracer.flight
        if msg.kind is WireKind.FIN:
            # the lost FIN's destination is the original rendezvous sender:
            # surface the timeout on its still-pending send request
            err = WireMessage(
                kind=WireKind.ERR, tag=msg.tag, size=msg.size,
                src_worker=self.worker_id, rndv_id=msg.rndv_id,
                sent_at=self.sim.now, failed_kind=WireKind.FIN,
            )
            self.sim.schedule(0.0, remote._on_wire, err)
            return
        if flight.enabled:
            flight.failed(msg.tag, "endpoint_timeout")
        if msg.kind is WireKind.RTS:
            req = self.pending_rndv_sends.pop(msg.rndv_id, None)
            self._rndv_ended(msg.rndv_id)
            if req is not None and not req.completed:
                req.complete(UcsStatus.ERR_ENDPOINT_TIMEOUT)
        err = WireMessage(
            kind=WireKind.ERR, tag=msg.tag, size=msg.size,
            src_worker=self.worker_id, rndv_id=msg.rndv_id,
            sent_at=self.sim.now, wire_seq=msg.wire_seq, failed_kind=msg.kind,
        )
        self.sim.schedule(0.0, remote._on_wire, err)

    def _on_wire(self, msg: WireMessage) -> None:
        """A message arrived (called at its simulated arrival instant)."""
        tracer = self.ctx.machine.tracer
        tracer.count("ucx", "arrive")
        tracer.charge("ucx", self.ctx.cfg.progress_overhead)
        if msg.kind is WireKind.ERR and msg.failed_kind is WireKind.FIN:
            # a FIN addressed to us was lost: our rendezvous send will never
            # see its completion notification — fail it
            req = self.pending_rndv_sends.pop(msg.rndv_id, None)
            self._rndv_ended(msg.rndv_id)
            if req is not None and not req.completed:
                req.complete(UcsStatus.ERR_ENDPOINT_TIMEOUT)
            return
        if msg.kind is WireKind.FIN:
            rndv_proto.finish_send(self, msg)
            return
        # enforce per-pair matching order: hold early arrivals until their
        # predecessors on the same directed pair have been processed, and
        # drop retransmit duplicates (slot already delivered or held)
        src = msg.src_worker
        if msg.wire_seq is not None:
            expected = self._rx_next.get(src, 0)
            if msg.wire_seq < expected or msg.wire_seq in self._rx_held.get(src, {}):
                tracer.count("fault", "duplicate_dropped")
                return
            if msg.wire_seq != expected:
                self._rx_held.setdefault(src, {})[msg.wire_seq] = msg
                return
        self._process_in_order(msg)
        held = self._rx_held.get(src)
        while held:
            nxt = self._rx_next.get(src, 0)
            follow = held.pop(nxt, None)
            if follow is None:
                break
            self._process_in_order(follow)

    def _process_in_order(self, msg: WireMessage) -> None:
        cfg = self.ctx.cfg
        src = msg.src_worker
        if msg.wire_seq is not None:
            self._rx_next[src] = msg.wire_seq + 1
        if msg.kind is WireKind.ERR and msg.failed_kind is None:
            # slot consumer for a cancelled eager send: the sequence
            # advances but there is nothing to match
            self.ctx.machine.tracer.count("ucx", "cancelled_frame_slot")
            return
        if msg.kind is WireKind.RTS and msg.rndv_id in self.ctx.worker(src)._rndv_cancelled:
            # the sender cancelled while the RTS was in flight: consume the
            # sequence slot but never match the descriptor
            self.ctx.machine.tracer.count("ucx", "cancelled_rts_dropped")
            return
        base = cfg.progress_overhead
        # posted receives with a full mask are bucketed under their tag;
        # masked receives live in the wildcard fallback and are checked via
        # the predicate — FIFO order across both is preserved by slot order.
        posted, scanned = self.posted.match(msg.tag & TAG_MASK_FULL, msg.accepted_by)
        if posted is not None:
            self.expected_hits += 1
            self.tag_scans += scanned
            tracer = self.ctx.machine.tracer
            tracer.count("ucx", "expected_hit")
            tracer.charge("ucx", cfg.tag_match_cost * scanned)
            if tracer.enabled:
                tracer.span(
                    "ucx.match", "tag_match",
                    tag=msg.tag, scanned=scanned, unexpected=False,
                ).close_at(self.sim.now + cfg.tag_match_cost * scanned)
            if tracer.flight.enabled:
                tracer.flight.matched(msg.tag, posted_at=posted.req.posted_at,
                                      unexpected=False)
            delay = base + cfg.tag_match_cost * scanned
            self._dispatch_match(msg, posted, delay)
            return
        self.unexpected.append(msg, key=msg.tag & TAG_MASK_FULL)

    def _dispatch_match(self, msg: WireMessage, posted: PostedRecv, delay: float) -> None:
        if msg.kind is WireKind.EAGER:
            eager_proto.finish_recv(self, msg, posted, delay)
        elif msg.kind is WireKind.RTS:
            rndv_proto.start_transfer(self, msg, posted, delay)
        elif msg.kind is WireKind.ERR:
            # the peer exhausted its retransmit budget for the frame this
            # receive would have consumed
            self.sim.schedule(
                delay, posted.req.complete,
                UcsStatus.ERR_ENDPOINT_TIMEOUT, (msg.tag, msg.size),
            )
        else:  # pragma: no cover - defensive
            raise UcxError(f"unmatchable wire kind {msg.kind}")
