"""Layer tracing from outside the simulator.

:class:`LayerTracer` swaps wrappers in for the public calls into each
``repro`` package (class methods and module functions, looked up at call
time by the simulator) and restores the originals on :meth:`uninstall`.
It never touches ``repro.obs.spans``: a span recorder makes the timing
loop switch to ``Pipeline.tick_spanned``, a different loop from the one
that ships.

Every timed wrapper keeps a stack frame, so a layer's *self* time is its
own duration minus the time of the wrapped calls nested inside it.  The
self times of all frames inside an op add up to the op's duration by
construction; the op's own self time is the part no layer claims.

Calls made millions of times per op (``RUU.requeue``,
``LSQ.forwarding_store``) are counted only, and their time stays in the
caller's self time.  Coarse calls (runs, sweeps, cache and checkpoint
operations) are also kept as individual spans ``(name, start, end,
parent, op id)`` in memory and written once, as a Chrome trace, by
:meth:`write_chrome_trace`.
"""

from __future__ import annotations

import functools
import json
import time


class _TimedTrace:
    """A front-end record stream whose ``__next__`` is timed as the
    ``isa.frontend`` layer."""

    __slots__ = ("_next", "_tracer")

    def __init__(self, source, tracer: "LayerTracer"):
        self._next = iter(source).__next__
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = ["isa.frontend", 0.0]
        stack = tracer.stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            record = self._next()
        finally:
            tracer._close(frame, start, time.perf_counter(), False)
        tracer.counts["isa.records"] += 1
        return record


class LayerTracer:
    """Installs timing and counting wrappers around ``repro`` calls."""

    def __init__(self):
        #: name -> [calls, total seconds, self seconds]
        self.layers: "dict[str, list]" = {}
        #: Exact counters that are not plain call counts.
        self.counts: "dict[str, int]" = {
            "isa.records": 0, "cpu.requeues": 0, "cpu.lsq_forward_scans": 0,
            "cpu.ds_ticks": 0, "cpu.ds_node_cycles": 0,
            "memory.dcache_misses": 0,
        }
        self.stack: "list[list]" = []
        self.spans: "list[tuple]" = []
        self.op_id = 0
        self._patches: "list[tuple]" = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _close(self, frame, start: float, end: float, coarse: bool) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        name = frame[0]
        entry = self.layers.get(name)
        if entry is None:
            entry = self.layers[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if coarse:
            self.spans.append((name, start, end,
                               parent[0] if parent else None, self.op_id))

    def timed(self, name: str, fn, coarse: bool = False, after=None):
        """``fn`` wrapped as layer ``name``; ``after(args, kwargs,
        result)`` runs once the call returns."""
        tracer = self

        # ``wraps`` keeps the original ``__name__``: pickled bound
        # methods (checkpoints hold some) are looked up by name.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, time.perf_counter(), coarse)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to bump ``counts[name]`` per call, untimed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def op(self, fn, *args):
        """Run one benchmark op as the root ``bench.op`` frame."""
        self.op_id += 1
        return self.timed("bench.op", fn, coarse=True)(*args)

    def record(self, name: str, fn, *args):
        """Run a benchmark-side step (e.g. the checkpoint sink's pickling)
        as its own coarse layer."""
        return self.timed(name, fn, coarse=True)(*args)

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, coarse: bool = False,
              after=None) -> None:
        self._patch(owner, attr,
                    self.timed(name, owner.__dict__[attr], coarse, after))

    def install(self, parent_only: bool = False) -> None:
        """Wrap the calls the sweep makes in this process, and unless
        ``parent_only`` also every per-point layer.  Must run before the systems are built:
        pipelines bind some memory-system methods at construction."""
        import concurrent.futures

        from repro.runner import ResultCache, SweepRunner
        from repro.runner import engine as runner_engine

        tracer = self
        pool_base = concurrent.futures.ProcessPoolExecutor

        class TimedPool(pool_base):
            """Times pool construction plus the first submit, which is
            when the executor starts its worker processes."""

            def __init__(self, *args, **kwargs):
                self._started = False
                tracer.timed("runner.pool_start", super().__init__,
                             coarse=True)(*args, **kwargs)

            def submit(self, *args, **kwargs):
                if self._started:
                    return super().submit(*args, **kwargs)
                self._started = True
                return tracer.timed("runner.pool_start", super().submit,
                                    coarse=True)(*args, **kwargs)

        self._patch(runner_engine, "ProcessPoolExecutor", TimedPool)
        self._wrap(SweepRunner, "run", "runner.sweep", coarse=True)
        self._wrap(ResultCache, "load", "runner.cache_load", coarse=True)
        self._wrap(ResultCache, "store", "runner.cache_store", coarse=True)
        if not parent_only:
            self._install_point_layers()

    def _install_point_layers(self) -> None:
        from repro.baseline.perfect import PerfectSystem
        from repro.baseline.traditional import TraditionalSystem
        from repro.checkpoint import state as ckpt_state
        from repro.core import system as core_system
        from repro.core.bshr import BSHRFile
        from repro.core.node import DataScalarNode
        from repro.cpu.lsq import LSQ
        from repro.cpu.pipeline import Pipeline
        from repro.cpu.ruu import RUU
        from repro.interconnect.medium import BusMedium
        from repro.isa.codegen.engine import CompiledExecution
        from repro.isa.interpreter import Interpreter

        counts = self.counts
        tracer = self

        def timed_trace(original):
            def trace(self, limit=None):
                return _TimedTrace(original(self, limit), tracer)
            return trace

        for owner in (Interpreter, CompiledExecution):
            self._patch(owner, "trace", timed_trace(owner.__dict__["trace"]))

        def after_run(args, kwargs, result):
            # Ticks against simulated node-cycles, over DataScalar runs
            # only (the baselines' single pipelines never skip).
            if result is None:
                return
            resume = kwargs.get("resume_from")
            start = resume.cycle if resume is not None else 0
            counts["cpu.ds_node_cycles"] += ((result.cycles - start)
                                             * len(result.nodes))

        run_ticks = self.timed("core.run", core_system.DataScalarSystem.run,
                               coarse=True, after=after_run)

        @functools.wraps(run_ticks)
        def ds_run(*args, **kwargs):
            before = self.layers.get("cpu.tick", (0,))[0]
            result = run_ticks(*args, **kwargs)
            counts["cpu.ds_ticks"] += (self.layers.get("cpu.tick", (0,))[0]
                                       - before)
            return result

        self._patch(core_system.DataScalarSystem, "run", ds_run)

        def after_collect(args, kwargs, result):
            nodes = args[3]
            counts["memory.dcache_misses"] += sum(node.dcache.stats.misses
                                                  for node in nodes)

        system_cls = core_system.DataScalarSystem
        self._wrap(system_cls, "_collect", "core.collect", coarse=True,
                   after=after_collect)
        for attr in ("_make_medium", "_make_traces"):
            self._wrap(system_cls, attr, "core.point_setup")
        self._wrap(core_system, "build_page_table", "core.point_setup")
        self._wrap(DataScalarNode, "__init__", "core.point_setup")
        self._wrap(Pipeline, "__init__", "core.point_setup")
        self._wrap(Pipeline, "tick", "cpu.tick")
        self._wrap(RUU, "dispatch", "cpu.dispatch")
        self._patch(RUU, "requeue",
                    self.counted("cpu.requeues", RUU.__dict__["requeue"]))
        self._patch(LSQ, "forwarding_store",
                    self.counted("cpu.lsq_forward_scans",
                                 LSQ.__dict__["forwarding_store"]))
        self._wrap(DataScalarNode, "load_issue", "memory.load_issue")
        self._wrap(DataScalarNode, "commit_mem", "memory.commit")
        self._wrap(DataScalarNode, "ifetch_line", "memory.ifetch")
        self._wrap(BSHRFile, "load", "core.bshr")
        self._wrap(BSHRFile, "arrival", "core.bshr")
        self._wrap(BusMedium, "broadcast", "interconnect.send")
        self._wrap(PerfectSystem, "run", "baseline.perfect", coarse=True)
        self._wrap(TraditionalSystem, "run", "baseline.traditional",
                   coarse=True)
        self._wrap(ckpt_state, "capture", "checkpoint.capture", coarse=True)
        self._wrap(ckpt_state, "materialize", "checkpoint.materialize",
                   coarse=True)
        self._wrap(ckpt_state, "advance_trace", "checkpoint.replay",
                   coarse=True)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the results.
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[2]

    def snapshot(self) -> dict:
        """Exact counters: every call count plus :attr:`counts`."""
        snap = {f"calls.{name}": entry[0]
                for name, entry in self.layers.items()}
        snap.update(self.counts)
        return snap

    def write_chrome_trace(self, path, label: str) -> None:
        """Write the coarse spans as Chrome trace-event JSON
        (``chrome://tracing`` or Perfetto)."""
        base = min((span[1] for span in self.spans), default=0.0)
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - base) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"op": op_id, "parent": parent},
        } for name, start, end, parent, op_id in self.spans]
        layers = {name: {"calls": entry[0], "total_s": entry[1],
                         "self_s": entry[2]}
                  for name, entry in sorted(self.layers.items())}
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "otherData": {
                "label": label, "layers": layers, "counts": self.counts,
            }}, handle)
