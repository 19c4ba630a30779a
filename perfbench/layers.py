"""Per-layer host self time, measured from outside the program.

A layer is a package of ``repro``: ``sim``, ``hardware``, ``ucx``,
``core``, ``converse``, the model runtimes, ``collectives``, ``apps`` and
``obs``.  :class:`LayerTracer` instruments a running interpreter without
touching ``src/``:

* every callback passed to ``Simulator.schedule`` (``schedule_at`` routes
  through it) runs inside a span of the layer whose module defines it;
* every generator a ``Process`` resumes runs inside a span of the layer that
  defines its innermost delegated generator, so rank-program bodies are not
  billed to the ``sim.process`` trampolines that resume them;
* each layer's public entry points (:data:`ENTRY_POINTS`) run inside a span
  of that layer and count their calls.  An entry point that returns a
  generator (the collectives) only builds it; the generator is handed back
  wrapped, so each resume of its body runs inside a span of the layer of
  *its* innermost delegated generator, and the caller's code after the
  ``yield from`` is billed to the caller again;
* garbage collection is cut out of whichever span it interrupts and billed
  to ``runtime``.

A layer's self time is the wall-clock during which one of its spans is the
innermost open span.  A resume is billed whole to the layer of the
innermost generator at the moment it starts: when a delegated generator
that is not an entry point returns and its delegating generator carries on
within the same resume, that continuation stays with the inner layer.  The
wrapped entry points bound this to code within one layer's own helpers.
Observation must not change results: the wrappers only call through, and
the harness compares traced and untraced outputs.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

#: Layers reported by the traced run, in report order.
LAYERS = ("sim", "hardware", "ucx", "core", "converse", "ampi", "charm",
          "charm4py", "openmpi", "collectives", "apps", "obs")

#: Packages of ``repro`` billed to another layer: the experiment drivers
#: are application code.
_PACKAGE_LAYER = {"bench": "apps"}

#: Modules outside ``repro`` that play the application: the benchmark's own
#: rank programs.
APP_MODULES = frozenset({"perfbench.workloads"})

#: (module, class or None for a module function, attribute, layer, counter).
#: Counters are ``<layer>.<counter>`` in the report; entries sharing a
#: counter add up.  Model sends are counted at each runtime's funnel (AMPI's
#: ``_send_impl`` serves ``send``/``isend``/sub-communicators/collectives),
#: so no message is counted twice.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[str]], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim", None),
    ("repro.sim.engine", "Simulator", "run_until_complete", "sim", None),
    ("repro.sim.primitives", "SimEvent", "_dispatch", "sim", None),
    ("repro.hardware.topology", "Machine", "route", "hardware", "route_calls"),
    ("repro.hardware.links", None, "path_transfer", "hardware", "path_transfer_calls"),
    ("repro.hardware.topology", "Machine", "alloc_device", "hardware", "alloc_calls"),
    ("repro.hardware.topology", "Machine", "free_device", "hardware", "alloc_calls"),
    ("repro.hardware.topology", "Machine", "alloc_host", "hardware", "alloc_calls"),
    ("repro.hardware.topology", "Machine", "free_host", "hardware", "alloc_calls"),
    ("repro.ucx.worker", "UcpWorker", "tag_send_nb", "ucx", "tag_send_calls"),
    ("repro.ucx.worker", "UcpWorker", "tag_recv_nb", "ucx", "tag_recv_calls"),
    ("repro.ucx.worker", "UcpWorker", "am_send", "ucx", "am_send_calls"),
    ("repro.core.machine_ucx", "UcxMachineLayer", "lrts_send_device", "core", "send_device_calls"),
    ("repro.core.machine_ucx", "UcxMachineLayer", "lrts_recv_device", "core", "recv_device_calls"),
    ("repro.converse.cmi", "Converse", "cmi_send", "converse", "send_calls"),
    ("repro.converse.cmi", "Converse", "cmi_send_device", "converse", "send_calls"),
    ("repro.converse.cmi", "Converse", "cmi_recv_device", "converse", "recv_calls"),
    ("repro.ampi.mpi", "AmpiRank", "_send_impl", "ampi", "send_calls"),
    ("repro.ampi.mpi", "AmpiRank", "_recv_impl", "ampi", "recv_calls"),
    ("repro.openmpi.mpi", "OmpiRank", "send", "openmpi", "send_calls"),
    ("repro.openmpi.mpi", "OmpiRank", "recv", "openmpi", "recv_calls"),
    ("repro.charm.charm", "Charm", "invoke", "charm", "send_calls"),
    ("repro.charm4py.channels", "Channel", "send", "charm4py", "send_calls"),
    ("repro.charm4py.channels", "Channel", "recv", "charm4py", "recv_calls"),
    *(("repro.ampi.mpi", "_CollectiveApi", m, "collectives", "calls")
      for m in ("barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
                "scatter", "alltoall", "bcast_device", "reduce_device",
                "allreduce_device", "allgather_device")),
    *(("repro.openmpi.mpi", "OmpiRank", m, "collectives", "calls")
      for m in ("barrier", "bcast_device", "reduce_device", "allreduce_device",
                "allgather_device")),
    *(("repro.obs.tracing", "Tracer", m, "obs", None)
      for m in ("count", "span", "under", "charge", "observe", "emit")),
    ("repro.apps.jacobi3d.driver", None, "run_jacobi", "apps", None),
    ("repro.apps.osu.runner", None, "run_latency", "apps", None),
    ("repro.apps.osu.runner", None, "run_bandwidth", "apps", None),
    ("repro.apps.shuffle.driver", None, "run_shuffle", "apps", None),
)

#: Every counter the traced run reports, in report order.
COUNTERS = tuple(dict.fromkeys(
    f"{layer}.{counter}" for _m, _c, _a, layer, counter in ENTRY_POINTS if counter
))


class SelfTimer:
    """Exclusive-time accounting over a stack of open layer spans.

    ``enter(layer)``/``exit()`` open and close spans; the interval since the
    last boundary is charged to the span that was innermost during it.  The
    bottom of the stack is ``None``: time spent there is unattributed.
    ``skip(dt)`` removes ``dt`` seconds (a pause measured elsewhere) from
    the open interval.  ``enter``/``exit`` are closures over local state:
    they run millions of times in a traced batch.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.self_s: Dict[Optional[str], float] = defaultdict(float)
        stack: List[Optional[str]] = [None]
        acc = self.self_s
        mark = [clock()]
        push, pop = stack.append, stack.pop

        def enter(layer: Optional[str]) -> None:
            now = clock()
            acc[stack[-1]] += now - mark[0]
            mark[0] = now
            push(layer)

        def exit() -> None:
            now = clock()
            acc[pop()] += now - mark[0]
            mark[0] = now

        def skip(seconds: float) -> None:
            mark[0] += seconds

        def flush() -> Dict[Optional[str], float]:
            """Charge the open interval and return a copy of the totals."""
            now = clock()
            acc[stack[-1]] += now - mark[0]
            mark[0] = now
            return dict(acc)

        self.enter, self.exit, self.skip, self.flush = enter, exit, skip, flush
        self._stack = stack

    @property
    def depth(self) -> int:
        return len(self._stack) - 1


class GcClock:
    """CPython collector accounting through ``gc.callbacks``: pause time and
    pass count per generation.  ``on_pause`` (if set) receives each pause so
    a :class:`SelfTimer` can cut it out of the span it interrupted."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self.on_pause: Optional[Callable[[float], None]] = None
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._t0
        gen = info["generation"]
        self.seconds[gen] += dt
        self.passes[gen] += 1
        if self.on_pause is not None:
            self.on_pause(dt)

    def install(self) -> None:
        gc.callbacks.append(self)

    def uninstall(self) -> None:
        gc.callbacks.remove(self)

    def snapshot(self) -> Tuple[List[float], List[int]]:
        return list(self.seconds), list(self.passes)


def layer_of_module(name: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` when it is not part of
    the program (its time stays with the enclosing span)."""
    if not name:
        return None
    if name in APP_MODULES:
        return "apps"
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) < 3:
        return None
    pkg = parts[1]
    return pkg if pkg in LAYERS else _PACKAGE_LAYER.get(pkg)


class LayerTracer:
    """Installs the spans described in the module docstring."""

    def __init__(self) -> None:
        self.timer = SelfTimer()
        self.calls: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._layer_by_code: Dict[object, Optional[str]] = {}
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- layer resolution --------------------------------------------------------
    def callback_layer(self, fn) -> Optional[str]:
        """Layer of the module that defines ``fn`` (function, bound method,
        ``functools.partial`` or callable object)."""
        f = getattr(fn, "__func__", fn)
        while hasattr(f, "func") and hasattr(f, "args"):  # functools.partial
            f = f.func
        code = getattr(f, "__code__", None)
        key = code if code is not None else type(f)
        cache = self._layer_by_code
        if key in cache:
            return cache[key]
        module = getattr(f, "__module__", None) if code is not None else type(f).__module__
        layer = None if module == __name__ else layer_of_module(module)
        cache[key] = layer
        return layer

    def generator_layer(self, gen) -> Optional[str]:
        """Layer of the innermost generator ``gen`` delegates to: the code
        that runs first when it is resumed."""
        inner = gen
        while True:
            nxt = getattr(inner, "gi_yieldfrom", None)
            if nxt is None or not hasattr(nxt, "gi_code"):
                break
            inner = nxt
        code = inner.gi_code
        cache = self._layer_by_code
        if code in cache:
            return cache[code]
        frame = inner.gi_frame
        module = frame.f_globals.get("__name__") if frame is not None else None
        layer = layer_of_module(module)
        cache[code] = layer
        return layer

    # -- wrappers ------------------------------------------------------------------
    def _spanned_generator_class(self):
        """A stand-in for a generator that spans each resume with the layer
        of its innermost delegated generator.  It iterates like the
        generator, so it can be driven by a ``Process`` or delegated to with
        ``yield from``."""
        enter, exit_ = self.timer.enter, self.timer.exit
        generator_layer = self.generator_layer

        class SpannedGenerator:
            __slots__ = ("gen",)

            def __init__(self, gen) -> None:
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                enter(generator_layer(self.gen))
                try:
                    return self.gen.send(value)
                finally:
                    exit_()

            def throw(self, *exc):
                enter(generator_layer(self.gen))
                try:
                    return self.gen.throw(*exc)
                finally:
                    exit_()

            def close(self):
                return self.gen.close()

        return SpannedGenerator

    def _span_call(self, fn, layer: str, counter: Optional[str], spanned):
        enter, exit_ = self.timer.enter, self.timer.exit
        calls = self.calls

        def call(*args, **kwargs):
            if counter is not None:
                calls[counter] += 1
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            # a generator's body runs later, resume by resume
            return spanned(result) if type(result) is GeneratorType else result
        return call

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.process import Process

        if self._patched:
            raise RuntimeError("LayerTracer is already installed")
        enter, exit_ = self.timer.enter, self.timer.exit
        callback_layer = self.callback_layer
        schedule = Simulator.schedule

        def in_layer(layer, fn, *args):
            enter(layer)
            try:
                return fn(*args)
            finally:
                exit_()

        # the layer rides in the event's argument tuple: a closure per event
        # would keep extra objects alive on the agenda and inflate GC work
        def traced_schedule(sim, delay, fn, *args):
            layer = callback_layer(fn)
            enter("sim")
            try:
                if layer is None:
                    return schedule(sim, delay, fn, *args)
                return schedule(sim, delay, in_layer, layer, fn, *args)
            finally:
                exit_()

        self._patch(Simulator, "schedule", traced_schedule)

        spanned = self._spanned_generator_class()
        process_init = Process.__init__

        def traced_init(proc, sim, gen, *args, **kwargs):
            if type(gen) is GeneratorType:
                gen = spanned(gen)
            process_init(proc, sim, gen, *args, **kwargs)

        self._patch(Process, "__init__", traced_init)

        for module_name, cls_name, attr, layer, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            key = f"{layer}.{counter}" if counter else None
            if cls_name is not None:
                owner = getattr(module, cls_name)
                self._patch(owner, attr,
                            self._span_call(vars(owner)[attr], layer, key, spanned))
                continue
            original = getattr(module, attr)
            wrapper = self._span_call(original, layer, key, spanned)
            # module functions are also bound by name in their importers
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value, had = self._patched.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def snapshot(self) -> Tuple[Dict[Optional[str], float], Dict[str, int]]:
        """(self seconds by layer, entry-point calls) so far."""
        return self.timer.flush(), dict(self.calls)
