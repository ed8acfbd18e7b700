"""The multi-node DataScalar timing simulator.

Mirrors the paper's simulation platform: a multi-context simulator that
"switches contexts after executing each cycle (i.e., it simulates cycle n
for all contexts before simulating cycle n+1 for any context)".  All
nodes fetch, execute, and commit the identical dynamic stream (SPSD) at
their own pace — asynchronous ESP; one shared functional interpreter
feeds every node through :mod:`repro.isa.fanout`, and provably idle
cycle ranges are skipped (see :meth:`DataScalarSystem._advance`) without
altering any reported cycle count or statistic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..checkpoint import state as ckpt_state
from ..cpu.pipeline import DEADLOCK_CYCLES, Pipeline, PipelineStats
from ..errors import ProtocolError, SimulationError
from ..interconnect.medium import make_medium
from ..isa.codegen import make_trace_source
from ..isa.fanout import fan_out
from ..isa.interpreter import Interpreter
from ..memory.layout import LayoutSpec, build_page_table
from ..obs import spans
from ..obs.events import EventKind
from ..params import SystemConfig

_INF = float("inf")


@dataclass
class NodeResult:
    """Everything one node reports after a run."""

    node_id: int
    pipeline: PipelineStats
    broadcasts_sent: int
    late_broadcasts: int
    bshr_waits: int
    bshr_found: int
    bshr_squashes: int
    bshr_arrivals: int
    false_hits: int
    false_misses: int
    dcache_miss_rate: float
    remote_loads: int
    local_loads: int
    dropped_stores: int


@dataclass
class DataScalarResult:
    """Run-level outcome: IPC plus the Table 3 statistics."""

    cycles: int
    instructions: int
    nodes: "list[NodeResult]"
    bus_transactions: int
    bus_payload_bytes: int
    bus_utilization: float
    layout_summary: object = None
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    # Table 3 aggregates (arithmetic mean over nodes, as in the paper).
    # ------------------------------------------------------------------
    @property
    def late_broadcast_fraction(self) -> float:
        """Fraction of broadcasts issued late (at commit) — column one."""
        fractions = [
            node.late_broadcasts / node.broadcasts_sent
            for node in self.nodes if node.broadcasts_sent
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def bshr_squash_fraction(self) -> float:
        """BSHR entries squashed, out of BSHR accesses — column two."""
        fractions = []
        for node in self.nodes:
            accesses = node.bshr_waits + node.bshr_found + node.bshr_squashes
            if accesses:
                fractions.append(node.bshr_squashes / accesses)
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def found_in_bshr_fraction(self) -> float:
        """Remote accesses that found data waiting in the BSHR — column
        three (evidence of datathreading)."""
        fractions = []
        for node in self.nodes:
            remote = node.bshr_waits + node.bshr_found
            if remote:
                fractions.append(node.bshr_found / remote)
        return sum(fractions) / len(fractions) if fractions else 0.0


class DataScalarSystem:
    """N IRAM nodes on one global broadcast bus (Figure 6(b))."""

    #: Subclasses running asymmetric per-node streams (e.g. result
    #: communication) relax the commit-count equality check.
    require_equal_commits = True

    def __init__(self, config: SystemConfig = None):
        self.config = config or SystemConfig()

    def _make_trace(self, program, node_id: int, limit):
        """Build node ``node_id``'s dynamic stream (hook for subclasses)."""
        return Interpreter(program).trace(limit=limit)

    def _layout_spec(self, replicated_pages, stack_bytes) -> LayoutSpec:
        config = self.config
        return LayoutSpec(
            num_nodes=config.num_nodes,
            page_size=config.node.memory.page_size,
            distribution_block_pages=config.distribution_block_pages,
            replicate_text=config.replicate_text,
            replicated_pages=frozenset(replicated_pages),
            stack_bytes=stack_bytes,
        )

    def _make_medium(self):
        """Build the broadcast transport, wrapped for fault injection
        when ``config.faults`` is set (hook for tests that substitute a
        deliberately broken medium)."""
        config = self.config
        medium = make_medium(config.interconnect, config.bus,
                             config.num_nodes)
        if config.faults is not None:
            from ..faults import FaultyMedium

            medium = FaultyMedium(medium, config.faults, config.num_nodes,
                                  config.bus)
        return medium

    def _make_traces(self, program, limit) -> "list":
        """One dynamic stream per node.

        SPSD nodes consume the identical stream, so the default runs a
        single functional front end and fans its records out to all
        nodes (O(I) interpretation instead of O(N·I)).  The front end —
        predecoded-closure interpreter or program-specialized generated
        code (:mod:`repro.isa.codegen`) — is chosen by
        ``config.engine``; both are bit-identical.  Subclasses that
        override :meth:`_make_trace` (asymmetric per-node streams, e.g.
        result communication) keep one interpreter per node.
        """
        num_nodes = self.config.num_nodes
        if type(self)._make_trace is not DataScalarSystem._make_trace:
            return [self._make_trace(program, node_id, limit)
                    for node_id in range(num_nodes)]
        source = make_trace_source(program, limit=limit,
                                   engine=self.config.engine)
        recorder = spans.active()
        if recorder is not None:
            # The front end is consumed lazily inside the timing loop,
            # so its wall time is charged to a timing-loop/frontend
            # accumulator — the number that settles how much of a run
            # the functional front end actually costs.  Disabled-path
            # runs never see the wrapper (or its clock reads).
            source = spans.timed_iter(
                source, recorder.accumulator("frontend",
                                             under="timing-loop"))
        return fan_out(source, num_nodes)

    def run(self, program, replicated_pages=frozenset(), limit=None,
            stack_bytes: int = 64 * 1024,
            observer=None, tracer=None,
            checkpoint_every=None, checkpoint_sink=None,
            resume_from=None, stop_after=None,
            warmup=None) -> "DataScalarResult | None":
        """Simulate ``program`` across all nodes to completion.

        ``replicated_pages`` are page numbers to replicate statically in
        addition to the text segment; ``limit`` bounds the dynamic
        instruction count per node (all nodes see the same prefix);
        ``observer(cycle, pipelines, nodes, medium)`` is called every
        simulated cycle (see :class:`repro.analysis.timeline`);
        ``tracer`` (a :class:`repro.obs.Tracer`) receives structured
        events from every subsystem — tracing is purely observational,
        so results are bit-identical with it on or off, fast-forward
        included (the tracer's own ``next_event`` bound is folded into
        :meth:`_advance` exactly like the fault layer's).

        Checkpointing (:mod:`repro.checkpoint`):

        * ``checkpoint_every=K`` captures a :class:`~repro.checkpoint.
          Checkpoint` each time every node has committed another K
          instructions and passes it to ``checkpoint_sink(ckpt)``;
        * ``resume_from`` continues a captured checkpoint instead of
          starting at cycle 0 (``program``/``limit``/config must match
          the checkpointed run — the snapshot carries machine state, the
          front end is rebuilt and replayed to its recorded position);
        * ``stop_after=C`` ends the run once every node has committed C
          instructions: the final state goes to ``checkpoint_sink`` and
          ``run`` returns ``None`` (a partial run has no result);
        * ``warmup=W`` skips the first W dynamic records functionally
          before timing starts (SimPoint-style sampling; the timed
          region starts with cold microarchitectural state, so results
          are *not* comparable to a full run).  It cannot be combined
          with ``resume_from``.

        Checkpoint-enabled runs drive the same scheduler loops as plain
        runs, with a per-round boundary check (a scan of the nodes'
        committed counts), and are bit-identical to them.  Observers and
        tracers hold references into live simulator objects and cannot
        be checkpointed.

        With ``config.result_communication`` set, private regions are
        auto-detected and the run delegates to
        :class:`~repro.core.resultcomm_exec.ResultCommSystem`.
        """
        from .node import DataScalarNode  # local import to avoid cycles

        config = self.config
        checkpointing = (checkpoint_every is not None
                         or checkpoint_sink is not None
                         or resume_from is not None
                         or stop_after is not None or warmup)
        if checkpointing:
            if observer is not None or tracer is not None:
                raise SimulationError(
                    "checkpointing is incompatible with observer/tracer "
                    "hooks — they hold references into live run state")
            if config.result_communication:
                raise SimulationError(
                    "checkpointing does not support result-communication "
                    "runs")
            ckpt_state.check_arguments(
                "datascalar", checkpoint_every, checkpoint_sink,
                resume_from, stop_after, warmup)
        elif config.result_communication and type(self) is DataScalarSystem:
            import dataclasses

            from .resultcomm_exec import ResultCommSystem, \
                select_exec_regions

            plain = dataclasses.replace(config, result_communication=False)
            table, _ = build_page_table(
                program, self._layout_spec(replicated_pages, stack_bytes))
            regions = select_exec_regions(program, table, limit=limit)
            return ResultCommSystem(plain, regions).run(
                program, replicated_pages=replicated_pages, limit=limit,
                stack_bytes=stack_bytes, observer=observer, tracer=tracer)
        num = config.num_nodes
        nodes: "list[DataScalarNode]" = []
        # Per-pipeline wake cycles for the selective fast-forward loop
        # (see :meth:`_run_selective`).  A broadcast delivery is the one
        # way a peer creates work for an idle node, so the deliver hook
        # zeroes the target's wake to force a re-tick and a fresh bound.
        # (The hook reads ``nodes`` and ``wake`` at call time, so a
        # restore that rebinds both is picked up.)
        wake = [0] * num

        def deliver(src: int, line: int, arrivals) -> None:
            for node in nodes:
                arrival = arrivals[node.node_id]
                if arrival is not None:
                    node.bshr.arrival(arrival, line)
                    wake[node.node_id] = 0

        if tracer is not None:
            plain_deliver = deliver

            def deliver(src: int, line: int, arrivals) -> None:
                for node in nodes:
                    arrival = arrivals[node.node_id]
                    if arrival is not None:
                        tracer.emit(EventKind.BCAST_ARRIVE, arrival,
                                    node.node_id, src=src, line=line)
                plain_deliver(src, line, arrivals)

        faulted = config.faults is not None
        if resume_from is not None:
            state = ckpt_state.materialize(resume_from)
            pipelines = state["pipelines"]
            nodes = state["nodes"]
            medium = state["medium"]
            page_table = state["page_table"]
            layout_summary = state["layout_summary"]
            wake = state["wake"]
            last_tick = state["last_tick"]
            cycle = resume_from.cycle
            # Rebuild the functional front end exactly as a fresh run
            # would (same engine, same fan-out) and replay it to the
            # recorded per-node positions; this also reconstructs the
            # fan-out tee queues record for record.
            traces = self._make_traces(program, limit)
            with spans.span("frontend-replay"):
                for trace, count in zip(traces, resume_from.consumed):
                    ckpt_state.advance_trace(trace, count)
            for pipeline, trace in zip(pipelines, traces):
                pipeline.rebind_trace(trace)
            for node in nodes:
                node.broadcaster.rebind_deliver(deliver)
        else:
            spec = self._layout_spec(replicated_pages, stack_bytes)
            with spans.span("layout"):
                page_table, layout_summary = build_page_table(program, spec)
            medium = self._make_medium()
            pipelines = []
            # Trace sources are built *outside* the setup span so the
            # codegen-compile phase (charged inside make_trace_source)
            # and the timing-loop/frontend accumulator stay direct
            # children of the point span rather than nesting under setup.
            traces = self._make_traces(program, limit)
            if warmup:
                with spans.span("warmup"):
                    for trace in traces:
                        ckpt_state.advance_trace(trace, warmup, warmup=True)
            with spans.span("setup"):
                for node_id in range(num):
                    if config.l2 is not None:
                        from .node_l2 import DataScalarL2Node

                        node = DataScalarL2Node(
                            node_id, config.node, config.l2, page_table,
                            medium, deliver, num_peers=num - 1)
                    else:
                        node = DataScalarNode(
                            node_id, config.node, page_table, medium,
                            deliver, num_peers=num - 1)
                    nodes.append(node)
                    pipelines.append(
                        Pipeline(config.node.cpu, node, traces[node_id],
                                 icache_line=config.node.icache.line_size))
                    if tracer is not None:
                        pipelines[-1].attach_tracer(tracer, node_id)
                        node.attach_tracer(tracer)
                if tracer is not None and hasattr(medium, "attach_tracer"):
                    medium.attach_tracer(tracer)
            cycle = 0
            last_tick = [0] * num  # first cycle not yet stall-accounted
            # Fault mode arms the BSHR wait tripwire (a restored node
            # carries its armed deadline in the snapshot).
            if faulted:
                for node in nodes:
                    node.bshr.arm_timeout(config.faults.wait_deadline)

        # The idle-skip scheduler learns about medium-level recovery
        # timers in fault mode; with faults disabled the hook does not
        # exist and the loop is untouched.
        extra_event = None
        if faulted:
            extra_event = self._fault_event_fn(nodes, medium)
        if tracer is not None:
            # A sampling tracer bounds idle-skip to its sample cycles;
            # a plain recording tracer returns None and leaves the skip
            # targets untouched — either way results stay bit-identical
            # because skipped and ticked idle cycles are observationally
            # identical.
            extra_event = self._chain_events(extra_event,
                                             getattr(tracer, "next_event",
                                                     None))

        # Wall-clock attribution for the fault layer's per-cycle work:
        # only armed when both faults and a span recorder are active, so
        # the plain hot loop is untouched.
        recorder = spans.active()
        fault_acc = None
        if faulted and recorder is not None:
            fault_acc = recorder.accumulator("fault-recovery",
                                             under="timing-loop")

        # Per-stage wall-time attribution for the timing loop: when a
        # span recorder is active, every pipeline charges its commit /
        # memory / issue stage time to shared timing-loop accumulators
        # and the loop drives the staged tick variant.  Without a
        # recorder the flat fast path runs untouched.
        stage_accs = None
        if recorder is not None:
            stage_accs = (
                recorder.accumulator("commit", under="timing-loop"),
                recorder.accumulator("memory", under="timing-loop"),
                recorder.accumulator("issue", under="timing-loop"),
            )
            for pipeline in pipelines:
                pipeline.attach_stage_accumulators(stage_accs)
        ticks = [p.tick_spanned if stage_accs is not None else p.tick
                 for p in pipelines]

        # Dense per-cycle ticking is required whenever an observer wants
        # to see every cycle; otherwise skip provably idle cycle ranges.
        fast_forward = config.fast_forward and observer is None
        selective = fast_forward and not faulted and tracer is None
        watch = None
        if checkpoint_every is not None or stop_after is not None:
            watch = self._boundary_watch(
                pipelines, nodes, medium, page_table, layout_summary, wake,
                last_tick, selective, resume_from, warmup,
                checkpoint_every, checkpoint_sink, stop_after)
        with spans.span("timing-loop"):
            if selective:
                cycle = self._run_selective(pipelines, ticks, wake, config,
                                            cycle, last_tick, watch)
            else:
                while not all(p.done for p in pipelines):
                    if cycle >= config.max_cycles:
                        raise SimulationError(
                            f"DataScalar run exceeded {config.max_cycles} "
                            f"cycles"
                        )
                    if faulted:
                        if fault_acc is not None:
                            tick0 = time.perf_counter()
                            for node in nodes:
                                node.bshr.check_timeouts(cycle)
                            fault_acc.add(time.perf_counter() - tick0)
                        else:
                            for node in nodes:
                                node.bshr.check_timeouts(cycle)
                    for tick in ticks:
                        tick(cycle)
                    if observer is not None:
                        observer(cycle, pipelines, nodes, medium)
                    if watch is not None and watch(cycle + 1):
                        break
                    if fast_forward:
                        cycle = self._advance(cycle, pipelines, config,
                                              extra_event)
                    else:
                        cycle += 1

        if watch is not None and watch.stopped:
            return None
        with spans.span("analysis"):
            return self._collect(cycle, pipelines, nodes, medium,
                                 page_table, layout_summary)

    @staticmethod
    def _boundary_watch(pipelines, nodes, medium, page_table,
                        layout_summary, wake, last_tick, selective,
                        resume_from, warmup, checkpoint_every,
                        checkpoint_sink, stop_after):
        """The run's :class:`~repro.checkpoint.state.BoundaryWatch`.

        Capture happens after every tick of a cycle ``c`` and records
        ``cycle = c + 1``, the next cycle to simulate.  On the selective
        (per-pipeline idle-skip) path, pipelines that were not ticked at
        ``c`` have their deferred stall accounting flushed first, so the
        snapshot is position-complete; the flush splits a
        ``note_skipped`` range in two, which is exact because a skipped
        pipeline's fetch state is frozen between real ticks (every
        skipped cycle classifies identically no matter when it is
        replayed).  The dense loop's ``_advance`` replays stall
        accounting eagerly at jump time, so it needs no flush.
        """
        position = ckpt_state.frontend_position
        # Records each node's front end passed before its pipeline saw
        # any: the warm-up, or whatever the resumed checkpoint's own
        # positions say beyond its restored machine state.
        if resume_from is not None:
            skipped = [count - position(p)
                       for count, p in zip(resume_from.consumed, pipelines)]
        else:
            skipped = [warmup or 0] * len(pipelines)

        def snapshot(cycle: int):
            for i, pipeline in enumerate(pipelines):
                if not selective:
                    last_tick[i] = cycle
                elif not pipeline.done and last_tick[i] < cycle:
                    pipeline.note_skipped(last_tick[i], cycle)
                    last_tick[i] = cycle
            tree = {
                "pipelines": pipelines, "nodes": nodes, "medium": medium,
                "page_table": page_table, "layout_summary": layout_summary,
                "wake": wake, "last_tick": last_tick,
            }
            return tree, [base + position(p)
                          for base, p in zip(skipped, pipelines)]

        return ckpt_state.BoundaryWatch(
            "datascalar", [p.stats for p in pipelines], snapshot,
            checkpoint_every, checkpoint_sink, stop_after)

    @staticmethod
    def _chain_events(first, second):
        """Combine two optional ``f(now) -> cycle | None`` event bounds
        into their minimum (for folding a tracer's ``next_event`` into
        the idle-skip scheduler alongside the fault layer's)."""
        if second is None:
            return first
        if first is None:
            return second

        def chained(now):
            a = first(now)
            b = second(now)
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return chained

    @staticmethod
    def _fault_event_fn(nodes, medium):
        """Self-generated event bound for the fault layer: the earliest
        outstanding recovery delivery or armed BSHR wait deadline.  The
        idle-skip scheduler folds this in so a jump can never cross a
        scheduled recovery action or overshoot the wait tripwire."""
        medium_next = getattr(medium, "next_event", None)

        def fault_event(now):
            bound = None
            if medium_next is not None:
                bound = medium_next(now)
            for node in nodes:
                deadline = node.bshr.next_deadline()
                if deadline is not None and (bound is None
                                             or deadline < bound):
                    bound = deadline
            return bound

        return fault_event

    @staticmethod
    def _run_selective(pipelines, ticks, wake, config, cycle, last_tick,
                       watch=None) -> int:
        """Drive the timing loop with *per-pipeline* idle skipping (the
        plain fast-forward path: no faults, no tracer, no observer).

        Classic fast-forward (:meth:`_advance`) only skips cycles where
        *every* node is idle, so one busy node forces all of its idle
        peers to tick every cycle.  Here each pipeline carries its own
        wake cycle — the :meth:`Pipeline.next_event` bound computed
        right after its last tick — and simply is not ticked before it.
        The quiescence argument is unchanged: ticks before a pipeline's
        own bound do nothing but stall bookkeeping, and that bookkeeping
        is replayed exactly by one :meth:`Pipeline.note_skipped` call
        just before the next real tick (the pipeline's fetch state is
        frozen in between, so deferred replay classifies every skipped
        cycle identically).

        The one way a peer creates work for an idle pipeline is a
        broadcast delivery, and deliveries are materialized eagerly (at
        broadcast time, with absolute arrival cycles): the system's
        ``deliver`` hook zeroes the target's ``wake`` entry, forcing a
        re-tick and a fresh bound.  A pipeline with no self-generated
        event at all (``next_event`` = inf — wedged waiting on a peer)
        is woken at its deadlock-detection tick once no peer has an
        earlier event, so protocol hangs still surface as typed errors.

        The loop starts at ``cycle``; ``last_tick[i]`` is the first
        cycle pipeline ``i`` has not stall-accounted yet.  ``watch``
        (checkpointed runs) is called after every round with the next
        cycle and ends the loop when it returns True.
        """
        max_cycles = config.max_cycles
        num = len(pipelines)
        running = sum(1 for p in pipelines if not p.done)
        while running:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"DataScalar run exceeded {max_cycles} cycles"
                )
            for i in range(num):
                pipeline = pipelines[i]
                if pipeline.done or wake[i] > cycle:
                    continue
                start = last_tick[i]
                if start < cycle:
                    pipeline.note_skipped(start, cycle)
                ticks[i](cycle)
                last_tick[i] = cycle + 1
                if pipeline.done:
                    running -= 1
                else:
                    wake[i] = pipeline.next_event(cycle)
            if watch is not None and watch(cycle + 1):
                return cycle + 1
            if not running:
                # Match the dense loop's exit value: it advances once
                # more after the tick that finished the last pipeline.
                return cycle + 1
            nxt = cycle + 1
            target = _INF
            for i in range(num):
                if pipelines[i].done:
                    continue
                event = wake[i]
                if event <= nxt:
                    target = nxt
                    break
                if event < target:
                    target = event
            if target == _INF:
                # No pipeline has a self-generated event: jump straight
                # to the earliest deadlock-detector tick and force the
                # stuck pipelines awake there so the error surfaces.
                target = min(p._last_commit_cycle + DEADLOCK_CYCLES + 1
                             for p in pipelines if not p.done)
                for i in range(num):
                    if not pipelines[i].done and wake[i] > target:
                        wake[i] = target
            if target > max_cycles:
                target = max_cycles
            if target < nxt:
                target = nxt
            cycle = int(target)
        return cycle

    @staticmethod
    def _advance(cycle: int, pipelines, config, extra_event=None) -> int:
        """Next cycle to simulate: ``cycle + 1``, or the earliest future
        event when every pipeline is provably idle until then.

        Skipped cycles are observationally idle for every node — no
        commit, issue, resolve, fetch, or interconnect activity can
        occur, only per-cycle stall counting, which
        :meth:`Pipeline.note_skipped` replays exactly.  ``extra_event``
        (fault mode) contributes pending recovery deliveries and BSHR
        wait deadlines, so idle-skip never jumps past a scheduled
        recovery action.
        """
        nxt = cycle + 1
        target = _INF
        active = False
        for pipeline in pipelines:
            if pipeline.done:
                continue
            active = True
            event = pipeline.next_event(cycle)
            if event <= nxt:
                return nxt
            if event < target:
                target = event
        if not active:
            # Everything finished this cycle: the run's cycle count must
            # not be inflated by extra_event bounds (e.g. a sampling
            # tracer's next wake-up) that lie past completion.
            return nxt
        if extra_event is not None:
            event = extra_event(cycle)
            if event is not None:
                if event <= nxt:
                    return nxt
                if event < target:
                    target = event
        if target is _INF:
            # No node has a self-generated event: the dense loop would
            # spin until a pipeline's deadlock detector fires (or the
            # cycle budget runs out) — jump straight to that tick so the
            # same error surfaces at the same cycle.
            target = min(p._last_commit_cycle + DEADLOCK_CYCLES + 1
                         for p in pipelines if not p.done)
        if target > config.max_cycles:
            target = config.max_cycles
        if target <= nxt:
            return nxt
        target = int(target)
        for pipeline in pipelines:
            pipeline.note_skipped(nxt, target)
        return target

    def _collect(self, cycles, pipelines, nodes, medium, page_table,
                 layout_summary) -> DataScalarResult:
        committed = {p.stats.committed for p in pipelines}
        if self.require_equal_commits and len(committed) != 1:
            raise ProtocolError(
                f"nodes committed different instruction counts: {committed}"
            )
        committed = {max(committed)}
        for node in nodes:
            node.validate_final_state()
        node_results = []
        for pipeline, node in zip(pipelines, nodes):
            node_results.append(NodeResult(
                node_id=node.node_id,
                pipeline=pipeline.stats,
                broadcasts_sent=node.broadcaster.stats.sent,
                late_broadcasts=node.broadcaster.stats.late,
                bshr_waits=node.bshr.stats.waits,
                bshr_found=node.bshr.stats.found_in_bshr,
                bshr_squashes=node.bshr.stats.squashes,
                bshr_arrivals=node.bshr.stats.arrivals,
                false_hits=node.tracker.stats.false_hits,
                false_misses=node.tracker.stats.false_misses,
                dcache_miss_rate=node.dcache.stats.miss_rate(),
                remote_loads=node.remote_loads,
                local_loads=node.local_loads,
                dropped_stores=node.dropped_stores,
            ))
        extra = {"unmapped_pages": page_table.unmapped_accesses}
        if hasattr(medium, "fault_stats"):
            # Fault-injected run: the medium's integrity ledger must
            # balance (every sequenced broadcast delivered, every
            # detected fault repaired) or the run is not trustworthy.
            medium.validate_final_state()
            extra["faults"] = medium.snapshot()
        l2_hits = sum(getattr(node, "l2_hits", 0) for node in nodes)
        l2_misses = sum(getattr(node, "l2_misses", 0) for node in nodes)
        if l2_hits or l2_misses:
            extra["l2_hits"] = l2_hits
            extra["l2_misses"] = l2_misses
        return DataScalarResult(
            cycles=cycles,
            instructions=committed.pop(),
            nodes=node_results,
            bus_transactions=medium.transactions,
            bus_payload_bytes=medium.payload_bytes,
            bus_utilization=medium.utilization(cycles),
            layout_summary=layout_summary,
            extra=extra,
        )
