"""Non-blocking operation handles (the ``ucs_status_ptr_t`` of the model)."""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent
from repro.ucx.status import UcsStatus


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


class UcxRequest:
    """Handle for one in-flight ``tag_send_nb`` / ``tag_recv_nb``.

    ``event`` is a :class:`SimEvent` that processes may yield on; ``cb`` (the
    UCP completion callback) is invoked from "progress context" — i.e. at the
    simulated instant of completion.  ``info`` carries the matched tag and
    received length for receives, mirroring ``ucp_tag_recv_info_t``.

    ``user_data`` is an opaque context the poster attaches for its ``cb``
    (UCP's request user data), so a shared callback needs no per-request
    closure.  A completion never runs inside the posting call, so it is
    safe to attach right after posting.

    The event is created on first read: most requests complete through
    ``cb`` and are never waited on.  Read after completion, it is created
    already succeeded with the request, so a process yielding on it resumes
    at the same instant, exactly as if it had existed all along.
    """

    __slots__ = (
        "sim", "kind", "tag", "size", "cb", "_event",
        "status", "info", "posted_at", "completed_at", "span", "op",
        "user_data",
    )

    def __init__(
        self,
        sim: Simulator,
        kind: RequestKind,
        tag: int,
        size: int,
        cb: Optional[Callable[["UcxRequest"], None]] = None,
    ) -> None:
        self.sim = sim
        self.kind = kind
        self.tag = tag
        self.size = size
        self.cb = cb
        self._event: Optional[SimEvent] = None
        self.status = UcsStatus.INPROGRESS
        self.info: Any = None
        self.posted_at = sim.now
        self.completed_at: Optional[float] = None
        # observability: the tracing span covering this request, if any
        self.span: Any = None
        # which API created the request: "tag" (cancellable) or "am"
        self.op = "tag"
        self.user_data: Any = None

    @property
    def event(self) -> SimEvent:
        ev = self._event
        if ev is None:
            ev = SimEvent(self.sim, name=f"ucx.{self.kind.value}")
            if self.completed:
                ev.succeed(self)
            self._event = ev
        return ev

    @property
    def completed(self) -> bool:
        return self.status is not UcsStatus.INPROGRESS

    def complete(self, status: UcsStatus = UcsStatus.OK, info: Any = None) -> None:
        if self.completed:
            raise RuntimeError("request completed twice")
        self.status = status
        self.info = info
        self.completed_at = self.sim.now
        # an event first read inside ``cb`` is created already succeeded
        ev = self._event
        if self.cb is not None:
            self.cb(self)
        if ev is not None:
            ev.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UcxRequest {self.kind.value} tag=0x{self.tag:x} size={self.size} "
            f"{self.status.name}>"
        )
