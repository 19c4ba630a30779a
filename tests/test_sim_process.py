"""Tests for generator-based processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.primitives import AllOf, SimEvent, Timeout
from repro.sim.process import Interrupt, Process, spawn


@pytest.fixture
def sim():
    return Simulator()


def test_process_runs_and_returns_value(sim):
    def gen():
        yield Timeout(sim, 1.0)
        return "done"

    p = Process(sim, gen())
    sim.run()
    assert p.triggered and p.result() == "done"
    assert sim.now == 1.0


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        Process(sim, lambda: None)


def test_process_receives_event_values(sim):
    got = []

    def gen():
        v = yield Timeout(sim, 0.5, value=123)
        got.append(v)

    Process(sim, gen())
    sim.run()
    assert got == [123]


def test_yield_none_resumes_same_instant(sim):
    times = []

    def gen():
        times.append(sim.now)
        yield None
        times.append(sim.now)

    Process(sim, gen())
    sim.run()
    assert times == [0.0, 0.0]


def test_process_join(sim):
    def child():
        yield Timeout(sim, 2.0)
        return 5

    def parent():
        v = yield Process(sim, child())
        return v * 2

    p = Process(sim, parent())
    sim.run()
    assert p.result() == 10


def test_exception_propagates_to_joiner(sim):
    def child():
        yield Timeout(sim, 1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield Process(sim, child())
        except ValueError as e:
            return f"caught {e}"

    p = Process(sim, parent())
    sim.run()
    assert p.result() == "caught child failed"


def test_unjoined_exception_reraises(sim):
    def gen():
        yield Timeout(sim, 0.1)
        raise RuntimeError("unhandled")

    Process(sim, gen())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_unjoined_exception_reraises_at_first_resume(sim):
    # no joiner ever registered: the None-initialised callback slot must
    # still read as "nobody observing"
    def gen():
        raise RuntimeError("at start")
        yield  # pragma: no cover

    proc = Process(sim, gen())
    assert proc._callbacks is None
    with pytest.raises(RuntimeError, match="at start"):
        sim.run()


def test_joined_exception_does_not_reraise(sim):
    def gen():
        yield Timeout(sim, 0.1)
        raise RuntimeError("observed")

    proc = Process(sim, gen())
    failures = []
    proc.add_callback(lambda e: failures.append(e.ok))
    sim.run()
    assert failures == [False]
    with pytest.raises(RuntimeError, match="observed"):
        proc.result()


def test_interrupt_delivers_cause(sim):
    causes = []

    def gen():
        try:
            yield Timeout(sim, 100.0)
        except Interrupt as i:
            causes.append(i.cause)

    p = Process(sim, gen())
    sim.schedule(1.0, p.interrupt, "stop now")
    sim.run()
    assert causes == ["stop now"]
    assert p.triggered


def test_interrupt_after_completion_is_noop(sim):
    def gen():
        yield Timeout(sim, 0.5)

    p = Process(sim, gen())
    sim.run()
    p.interrupt()
    sim.run()


def test_kill_terminates_silently(sim):
    progress = []

    def gen():
        progress.append("start")
        yield Timeout(sim, 100.0)
        progress.append("never")

    p = Process(sim, gen())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert progress == ["start"]
    assert p.triggered and p.result() is None


def test_invalid_yield_type_raises(sim):
    def gen():
        yield 42

    Process(sim, gen())
    with pytest.raises(TypeError, match="yielded"):
        sim.run()


def test_two_processes_interleave(sim):
    log = []

    def worker(name, delay):
        for i in range(3):
            yield Timeout(sim, delay)
            log.append((name, sim.now))

    spawn(sim, worker("fast", 1.0))
    spawn(sim, worker("slow", 1.5))
    sim.run()
    # at t=3.0 both wake; slow's timeout was scheduled earlier (at t=1.5)
    # so FIFO tie-breaking resumes it first
    assert log == [
        ("fast", 1.0), ("slow", 1.5), ("fast", 2.0), ("slow", 3.0),
        ("fast", 3.0), ("slow", 4.5),
    ]


def test_process_waits_on_plain_event(sim):
    ev = SimEvent(sim)
    got = []

    def gen():
        got.append((yield ev))

    Process(sim, gen())
    sim.schedule(2.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_is_event_for_allof(sim):
    def gen(v, d):
        yield Timeout(sim, d)
        return v

    combo = AllOf(sim, [Process(sim, gen("a", 1)), Process(sim, gen("b", 2))])
    sim.run()
    assert combo.result() == ["a", "b"]


def test_yield_from_composes_subgenerators(sim):
    def sub():
        yield Timeout(sim, 1.0)
        return "sub-value"

    def main():
        v = yield from sub()
        return v.upper()

    p = Process(sim, main())
    sim.run()
    assert p.result() == "SUB-VALUE"
