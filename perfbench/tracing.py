"""Span tracing of the ``repro`` layers, installed from outside the program.

:class:`LayerTracer` replaces selected functions and methods of each
``repro`` module with timing wrappers and restores the originals on
:meth:`LayerTracer.uninstall`. It must be installed before any cluster is
built: hot paths pre-bind callables (``SharedBandwidth._wake_cb``, the
fluid network's tick callback) when their objects are constructed.

Most DES-layer calls (``KVS.commit``, ``DyadProducerClient.produce``,
``FileHandle.write``) are generators, so timing the call would only time
generator creation. Their wrapper, :class:`TracedGen`, opens one span per
*resume* (``send``/``throw``) and forwards ``close`` as well, so ``yield
from`` delegation and ``Process.interrupt`` behave exactly as before.

Spans nest on one stack. A layer's self time is its spans' durations minus
the part covered by child spans. Spans carry name, start, end, parent and
the id of the op (one ``run_workflow`` call or one cache load) they belong
to; they stay in memory, up to ``SPAN_CAP``, and :meth:`write_spans`
writes them out when the run ends.

Counts are taken at the same boundaries. Where the program keeps its own
counter, :meth:`LayerTracer.crosscheck` compares the two after every run,
which catches a hot path that bypasses the wrapped entry points.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["LayerTracer", "Spec", "TracedGen"]

#: spans kept in memory per tracer; later spans still count and time
SPAN_CAP = 50_000


class _Frame:
    """One open span on the tracer's stack."""

    __slots__ = ("layer", "name", "start", "child", "sid", "outer")

    def __init__(self, layer, name, start, sid, outer):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        # True when no enclosing span belongs to the same layer
        self.outer = outer


class TracedGen:
    """Generator proxy that opens one span per resume of ``gen``."""

    __slots__ = ("_gen", "_tracer", "_spec", "_args", "_resumed")

    def __init__(self, gen, tracer: "LayerTracer", spec: "Spec", args):
        self._gen = gen
        self._tracer = tracer
        self._spec = spec
        self._args = args
        self._resumed = False

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()

    def _step(self, method, *payload):
        tracer = self._tracer
        spec = self._spec
        frame = tracer._open(spec)
        deltas = spec.deltas if frame.outer else ()
        if deltas:
            owner = self._args[0]
            before = [get(owner) for _m, get in deltas]
        try:
            yielded = method(*payload)
        except StopIteration as stop:
            if spec.on_return is not None:
                spec.on_return(tracer, self._args, stop.value)
            raise
        else:
            if not self._resumed and spec.on_block is not None:
                spec.on_block(tracer, self._args)
            return yielded
        finally:
            self._resumed = True
            if deltas:
                counts = tracer.counts
                for (metric, get), old in zip(deltas, before):
                    counts[metric] += get(owner) - old
            tracer._close(frame, spec)


class Spec:
    """What to record around one wrapped callable."""

    __slots__ = ("layer", "name", "count", "on_call", "on_return",
                 "on_block", "deltas")

    def __init__(self, layer, name, count=None, on_call=None,
                 on_return=None, on_block=None, deltas=()):
        self.layer = layer
        self.name = name
        self.count = count          # metric incremented per call
        self.on_call = on_call      # fn(tracer, args, kwargs)
        self.on_return = on_return  # fn(tracer, args, value)
        self.on_block = on_block    # generators: first resume yielded
        # (metric, getter(self_obj)) pairs: the program counter's change
        # across each outermost span of this layer (each resume, for a
        # generator) is added to ``metric``
        self.deltas = deltas


class LayerTracer:
    """Installs layer wrappers; accumulates self time, counts and spans."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []
        self._next_sid = 1
        self.op_id = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: wall-clock intervals measured by hooks rather than spans
        self.timers: Dict[str, float] = defaultdict(float)
        #: scratch timestamps the hooks share within one run
        self.marks: Dict[str, float] = {}
        self.spans: List[tuple] = []
        #: op label -> counter mismatches found after that op
        self.mismatches: Dict[str, List[str]] = {}
        self.kvs_instances: List[object] = []
        self._run_counts: Optional[Dict[str, float]] = None

    # -- span bookkeeping ----------------------------------------------------
    def _open(self, spec: Spec) -> _Frame:
        stack = self._stack
        depth = self._depth
        outer = depth[spec.layer] == 0
        depth[spec.layer] += 1
        sid = self._next_sid
        self._next_sid = sid + 1
        frame = _Frame(spec.layer, spec.name, 0.0, sid, outer)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _close(self, frame: _Frame, spec: Spec) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        self._depth[spec.layer] -= 1
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child
        if frame.outer:
            self.total_s[frame.layer] += duration
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.name, frame.start, end,
                               parent.sid if parent else 0, frame.sid,
                               self.op_id))

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, fn: Callable, spec: Spec) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                if spec.count is not None:
                    tracer.counts[spec.count] += 1
                if spec.on_call is not None:
                    spec.on_call(tracer, args, kwargs)
                return TracedGen(fn(*args, **kwargs), tracer, spec, args)
        else:
            def traced(*args, **kwargs):
                if spec.count is not None:
                    tracer.counts[spec.count] += 1
                if spec.on_call is not None:
                    spec.on_call(tracer, args, kwargs)
                deltas = spec.deltas
                frame = tracer._open(spec)
                if deltas and frame.outer:
                    before = [get(args[0]) for _m, get in deltas]
                try:
                    value = fn(*args, **kwargs)
                finally:
                    if deltas and frame.outer:
                        counts = tracer.counts
                        for (metric, get), old in zip(deltas, before):
                            counts[metric] += get(args[0]) - old
                    tracer._close(frame, spec)
                if spec.on_return is not None:
                    spec.on_return(tracer, args, value)
                return value
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch_method(self, cls, attr: str, spec: Spec) -> None:
        """Wrap ``cls.attr`` (plain, static or class method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, spec))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, spec))
        else:
            wrapped = self._wrap(raw, spec)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(self, fn: Callable, spec: Spec) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (``from x import f`` copies the name)."""
        wrapped = self._wrap(fn, spec)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- run bracketing -------------------------------------------------------
    def begin_op(self) -> None:
        """Start a new op: spans recorded from now on carry its id."""
        self.op_id += 1

    def begin_run(self) -> None:
        """Snapshot counts so :meth:`crosscheck` sees this run's share."""
        self.begin_op()
        self.kvs_instances = []
        self._run_counts = dict(self.counts)

    def run_delta(self, metric: str) -> float:
        """Change of ``metric`` since :meth:`begin_run`."""
        before = self._run_counts or {}
        return self.counts.get(metric, 0.0) - before.get(metric, 0.0)

    def crosscheck(self, label: str, pairs) -> None:
        """Record a mismatch for every ``(metric, expected)`` that differs."""
        for metric, expected in pairs:
            got = self.run_delta(metric)
            if got != expected:
                self.mismatches.setdefault(label, []).append(
                    f"{label}: {metric} counted {got:g} at the wrappers, "
                    f"program counter says {expected:g}"
                )

    # -- output ---------------------------------------------------------------
    def reset_measurements(self) -> None:
        """Forget accumulated times, counts and spans (patches stay)."""
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.timers.clear()
        self.spans = []

    def write_spans(self, path: str, run_label: str) -> None:
        """Write the kept spans to ``path`` as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, sid, op in self.spans:
                fh.write(json.dumps({
                    "run": run_label, "op": op, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
