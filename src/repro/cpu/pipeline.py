"""The out-of-order core timing model.

An 8-wide (configurable) machine with a unified RUU window, a load/store
queue half its size, pipelined functional units, and perfect branch
prediction (paper Section 4.2).  The pipeline consumes the functional
interpreter's dynamic trace — under perfect prediction the committed path
is the functional path, and no mis-speculated instructions exist (the
paper's correspondence protocol likewise excludes speculative broadcasts).

Per simulated cycle the pipeline commits (in order), issues (oldest-ready
first), and fetches/dispatches — each up to its configured width.

Two tick implementations share the per-cycle semantics:

* :meth:`Pipeline.tick` is the **fast path**: one flat function with the
  stage logic inlined, per-cycle attribute lookups hoisted into locals,
  and the per-config dispatch structures (FU latency/limit tables,
  widths, the RUU free list) precomputed at construction.  It allocates
  nothing on the steady-state cycle.
* :meth:`Pipeline.tick_spanned` is the **staged path**: the same cycle
  expressed as the classic ``_commit`` / ``_resolve_pending_loads`` /
  ``_issue`` / ``_fetch`` stage methods, with each stage's wall time
  charged to a ``timing-loop/commit|memory|issue`` span accumulator.
  The system loop selects it only while a span recorder is active.

Both orders are identical (commit → resolve → issue → fetch) and both
must stay bit-identical — the equivalence suite runs every workload
through each.
"""

from __future__ import annotations

import time
from bisect import insort
from heapq import heappop as _heappop, heappush as _heappush

from ..errors import SimulationError
from ..isa.opcodes import OpClass
from ..obs.events import EventKind
from ..params import CPUConfig
from .func_units import FUPool
from .interface import MemoryInterface
from .lsq import LSQ
from .ruu import RUU, _entry_seq

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_COMMIT_EVENT = EventKind.COMMIT
_INF = float("inf")

#: Cycles with no commit before the pipeline declares itself wedged.
DEADLOCK_CYCLES = 1_000_000

#: Pipeline attributes a checkpoint leaves out (see
#: :meth:`Pipeline.__getstate__`).
_LIVE_EDGES = ("_trace", "_trace_next", "_trace_queue", "_tracer",
               "_stage_accs")


class PipelineStats:
    """Counters published by one core."""

    __slots__ = ("committed", "loads", "stores", "cycles", "fetch_stalls",
                 "window_stalls", "lsq_stalls", "branches", "mispredicts")

    def __init__(self):
        self.committed = 0
        self.loads = 0
        self.stores = 0
        self.cycles = 0
        self.fetch_stalls = 0
        self.window_stalls = 0
        self.lsq_stalls = 0
        self.branches = 0
        self.mispredicts = 0

    @property
    def misprediction_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class Pipeline:
    """One out-of-order core bound to a memory system and a trace."""

    def __init__(self, config: CPUConfig, mem: MemoryInterface, trace,
                 icache_line: int = 32):
        self.config = config
        self.mem = mem
        self._trace = iter(trace)
        self._trace_next = self._trace.__next__
        # Fan-out views expose their buffered-record deque; pulling from
        # it directly skips a call layer on the fetch fast path.  Any
        # other trace source leaves this ``None`` (falsy), falling back
        # to the iterator protocol.
        self._trace_queue = getattr(self._trace, "_queue", None)
        self._trace_done = False
        self._fetch_buffer = None
        self.ruu = RUU(config.ruu_entries)
        self.lsq = LSQ(config.lsq_entries)
        self.fus = FUPool(config)
        self.stats = PipelineStats()
        # Per-config dispatch structures, hoisted once so the per-cycle
        # fast path never chases ``self.config``.
        self._commit_width = config.commit_width
        self._issue_width = config.issue_width
        self._fetch_width = config.fetch_width
        self._mispredict_penalty = config.misprediction_penalty
        self._oracle = config.oracle_disambiguation
        # Pre-bound memory-system methods (the binding is per-call
        # otherwise, and commit/fetch hit these once per instruction).
        self._commit_mem = mem.commit_mem
        self._ifetch_line = mem.ifetch_line
        self._icache_line_mask = ~(icache_line - 1)
        self._fetch_ready = 0
        self._fetched_line = None
        self._pending_loads = []
        #: Alias-blocked loads (each one a ``lsq.deferred`` bump) in one
        #: walk of a parked stalled bucket, as :meth:`next_event` last
        #: dry-ran it; :meth:`note_skipped` replays it per skipped cycle.
        self._parked_deferred = 0
        self._last_commit_cycle = 0
        self._predictor = self._build_predictor(config.branch_predictor)
        self._redirect_after = None  # branch entry fetch is waiting on
        self.done = False
        #: Observability hook (``None`` = untraced: zero overhead).
        self._tracer = None
        self._trace_node = 0
        #: ``(commit, memory, issue)`` span accumulators, set by the
        #: system loop when phase telemetry is recording; consumed by
        #: :meth:`tick_spanned` only.
        self._stage_accs = None

    def attach_tracer(self, tracer, node_id: int) -> None:
        """Emit this pipeline's events to ``tracer`` as node ``node_id``.

        Tracing is purely observational: no architectural state or
        reported statistic changes, with fast-forward on or off."""
        self._tracer = tracer
        self._trace_node = node_id

    def attach_stage_accumulators(self, accumulators) -> None:
        """Charge per-stage wall time to ``(commit, memory, issue)``
        span accumulators; callers then drive :meth:`tick_spanned`
        instead of :meth:`tick`.  Purely observational."""
        self._stage_accs = accumulators

    def __getstate__(self) -> dict:
        """Pickled state for checkpoints: everything but the live trace
        (a generator or fan-out view, its bound ``__next__`` and queue)
        and the observability hooks.  Restore calls
        :meth:`rebind_trace` and re-attaches hooks as a fresh run does."""
        state = self.__dict__.copy()
        for name in _LIVE_EDGES:
            state[name] = None
        return state

    def rebind_trace(self, trace) -> None:
        """Point the fetch stage at a rebuilt front-end iterator
        (checkpoint restore: snapshots carry the trace *position*, not
        the live iterator — see :mod:`repro.checkpoint`).  The fetch
        buffer and exhaustion flag are machine state and stay put."""
        self._trace = iter(trace)
        self._trace_next = self._trace.__next__
        self._trace_queue = getattr(self._trace, "_queue", None)

    @staticmethod
    def _build_predictor(kind: str):
        if kind == "perfect":
            return None
        from .branch import (
            BimodalPredictor,
            GSharePredictor,
            StaticTakenPredictor,
        )
        if kind == "static":
            return StaticTakenPredictor()
        if kind == "bimodal":
            return BimodalPredictor()
        if kind == "gshare":
            return GSharePredictor()
        raise SimulationError(f"unknown branch predictor {kind!r}")

    # ------------------------------------------------------------------
    # One simulated cycle — the flat fast path.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        """Simulate cycle ``now``.  Sets :attr:`done` when the program has
        fully drained through the machine.

        Stage logic is inlined (commit → resolve → issue → fetch) and
        must mirror the staged methods below exactly — any semantic
        change lands in both or the equivalence suite fails.
        """
        if self.done:
            return
        stats = self.stats
        stats.cycles = now + 1
        ruu = self.ruu
        window = ruu.window
        lsq = self.lsq
        tracer = self._tracer
        nxt = now + 1

        # ---- commit stage (in order, up to commit_width) ----
        if window:
            head = window[0]
            if head.issued:
                result_time = head.result_time
                if result_time is not None and result_time <= now:
                    committed = 0
                    width = self._commit_width
                    commit_mem = self._commit_mem
                    popleft = window.popleft
                    last_writer = ruu._last_writer
                    free = ruu._free
                    free_cap = ruu.capacity
                    while True:
                        if tracer is not None:
                            tracer.emit(_COMMIT_EVENT, now, self._trace_node,
                                        seq=head.seq, op=head.op_class)
                        if head.is_load:
                            if not head.private:
                                commit_mem(now, head.addr, head.size,
                                           False, head.handle)
                            lsq.release_head(head)
                            stats.loads += 1
                        elif head.is_store:
                            if not head.private:
                                commit_mem(now, head.addr, head.size,
                                           True, head.handle)
                            lsq.release_head(head)
                            stats.stores += 1
                        # Inlined RUU.pop_head (head recycling):
                        popleft()
                        dest = head.dest
                        if dest is not None \
                                and last_writer.get(dest) is head:
                            del last_writer[dest]
                        if len(free) < free_cap:
                            free.append(head)
                        committed += 1
                        if committed >= width or not window:
                            break
                        head = window[0]
                        if not head.issued:
                            break
                        result_time = head.result_time
                        if result_time is None or result_time > now:
                            break
                    stats.committed += committed
                    self._last_commit_cycle = now

        # ---- load completion (memory system resolves asynchronously) ----
        pending = self._pending_loads
        if pending:
            kept = 0
            resolve = ruu.resolve
            for entry in pending:
                ready = entry.handle.ready
                if ready is None:
                    pending[kept] = entry
                    kept += 1
                else:
                    when = entry.issued_at + 1
                    if ready > when:
                        when = ready
                    resolve(entry, when)
            if kept != len(pending):
                del pending[kept:]

        # ---- issue stage (oldest-ready first, up to issue_width) ----
        # The walk _issue makes, over the RUU's stalled buckets in place:
        # heap entries ready at ``now`` join the buckets, then loads and
        # other classes are visited merged by age.  No load is visited
        # once the load class is full, and the walk stops at
        # issue_width; entries it does not issue stay in their buckets
        # (the unvisited tails are never touched), so nothing goes
        # through RUU.requeue.
        heap = ruu._ready_heap
        loads = ruu._stalled_loads
        others = ruu._stalled_other
        if heap and heap[0][0] < now:
            # A heap entry keyed before ``now`` (possible after a sleep)
            # walks first, out of age order: take the staged walk.
            self._issue(now)
        elif loads or others or (heap and heap[0][0] == now):
            ruu._stalled_retry = nxt
            while heap and heap[0][0] == now:
                entry = _heappop(heap)[2]
                if entry.issued:
                    continue
                # Inlined RUU._stall (keep the bucket in age order):
                bucket = loads if entry.is_load else others
                if bucket and bucket[-1].seq > entry.seq:
                    insort(bucket, entry, key=_entry_seq)
                else:
                    bucket.append(entry)
            fus = self.fus
            used = fus.begin_cycle(now)
            limits = fus.limit_table
            latencies = fus.latency_table
            width = self._issue_width
            load_limit = limits[_LOAD]
            # Visit loads[i] / others[j] next; the first ``kept_*`` slots
            # of each bucket hold the visited entries that stay.
            n_loads = len(loads) if used[_LOAD] < load_limit else 0
            n_others = len(others)
            i = j = kept_loads = kept_others = 0
            issued = 0
            blocked = 0  # non-load FU classes with no free slot left
            while issued < width:
                if i < n_loads and (j >= n_others
                                    or loads[i].seq < others[j].seq):
                    entry = loads[i]
                    i += 1
                    used[_LOAD] += 1
                    if used[_LOAD] >= load_limit:
                        n_loads = i  # the load class is full
                    blocker = entry.blocker
                    if blocker is not None and blocker.seq < entry.seq \
                            and not blocker.issued:
                        # Parked (see _issue_load): a live memo implies
                        # the store is still queued.
                        if self._oracle:
                            lsq.deferred += 1
                    elif self._issue_load(entry, now):
                        issued += 1
                        continue
                    loads[kept_loads] = entry
                    kept_loads += 1
                    continue
                if j >= n_others:
                    break
                entry = others[j]
                j += 1
                op_class = entry.op_class
                class_bit = 1 << op_class
                if blocked & class_bit:
                    others[kept_others] = entry
                    kept_others += 1
                    continue
                if used[op_class] >= limits[op_class]:
                    blocked |= class_bit
                    others[kept_others] = entry
                    kept_others += 1
                    continue
                used[op_class] += 1
                entry.issued = True
                entry.issued_at = now
                if entry.is_store:
                    lsq._unissued_stores -= 1
                    when = nxt
                else:
                    when = now + latencies[op_class]
                # Inlined RUU.resolve (fixed-latency completion):
                entry.result_time = when
                dependents = entry.dependents
                if dependents:
                    for dep in dependents:
                        if when > dep.operand_time:
                            dep.operand_time = when
                        dep.unresolved -= 1
                        if dep.unresolved == 0 and not dep.issued:
                            _heappush(heap, (dep.operand_time,
                                             dep.seq, dep))
                    entry.dependents = None
                issued += 1
            if kept_loads != i:
                del loads[kept_loads:i]
            if kept_others != j:
                del others[kept_others:j]

        # ---- fetch/dispatch stage (perfect branch prediction) ----
        redirect = self._redirect_after
        fetch_open = True
        if redirect is not None:
            # A mispredicted branch owns fetch until it resolves.
            resolve_time = redirect.result_time
            if resolve_time is None or resolve_time > now:
                stats.fetch_stalls += 1
                if tracer is not None:
                    self._trace_stall(now, "redirect")
                fetch_open = False
            else:
                ready = resolve_time + self._mispredict_penalty
                if ready > self._fetch_ready:
                    self._fetch_ready = ready
                self._redirect_after = None
        if fetch_open:
            if self._trace_done or now < self._fetch_ready:
                if not self._trace_done:
                    stats.fetch_stalls += 1
                    if tracer is not None:
                        self._trace_stall(now, "fetch")
            else:
                buffer = self._fetch_buffer
                trace_next = self._trace_next
                trace_queue = self._trace_queue
                dispatch = ruu.dispatch
                window_cap = ruu.capacity
                lsq_entries = lsq._entries
                lsq_cap = lsq.capacity
                line_mask = self._icache_line_mask
                fetched_line = self._fetched_line
                predictor = self._predictor
                for _ in range(self._fetch_width):
                    dyn = buffer
                    if dyn is None:
                        if trace_queue:
                            dyn = trace_queue.popleft()
                        else:
                            try:
                                dyn = trace_next()
                            except StopIteration:
                                self._trace_done = True
                                break
                        buffer = dyn
                    if len(window) >= window_cap:
                        stats.window_stalls += 1
                        if tracer is not None:
                            self._trace_stall(now, "window")
                        break
                    op_class = dyn.op_class
                    is_mem = op_class == _LOAD or op_class == _STORE
                    if is_mem and len(lsq_entries) >= lsq_cap:
                        stats.lsq_stalls += 1
                        if tracer is not None:
                            self._trace_stall(now, "lsq")
                        break
                    line = dyn.pc & line_mask
                    if line != fetched_line:
                        ready = self._ifetch_line(now, line)
                        fetched_line = line
                        if ready > now:
                            # Miss: the rest of this fetch group waits.
                            self._fetch_ready = ready
                            break
                    buffer = None
                    entry = dispatch(dyn, nxt)
                    if is_mem:
                        lsq.insert(entry)
                    if predictor is not None and dyn.is_cond_branch:
                        stats.branches += 1
                        predicted = predictor.predict(dyn.pc)
                        predictor.train(dyn.pc, dyn.taken)
                        if predicted != dyn.taken:
                            # Wrong path until this branch resolves:
                            # stop fetch.
                            stats.mispredicts += 1
                            self._redirect_after = entry
                            break
                self._fetched_line = fetched_line
                self._fetch_buffer = buffer

        if self._trace_done and not window:
            if self.mem.drain(now):
                self.done = True
            return
        if now - self._last_commit_cycle > DEADLOCK_CYCLES:
            raise SimulationError(
                f"no commit for {DEADLOCK_CYCLES} cycles at cycle {now}; "
                f"head={ruu.head()!r}"
            )

    # ------------------------------------------------------------------
    # One simulated cycle — the staged/instrumented path.
    # ------------------------------------------------------------------
    def tick_spanned(self, now: int) -> None:
        """Bit-identical staged variant of :meth:`tick`.

        Charges each stage's wall clock to the ``timing-loop/commit``,
        ``timing-loop/memory`` (load resolution), and
        ``timing-loop/issue`` accumulators installed by
        :meth:`attach_stage_accumulators`.  Fetch — and the functional
        front end it pulls on — is deliberately left untimed here so the
        separately-accumulated ``timing-loop/frontend`` record and the
        root span's ``<self>`` residual stay disjoint from the stage
        accumulators (the breakdown's children must never sum past the
        root).
        """
        if self.done:
            return
        self.stats.cycles = now + 1
        accumulators = self._stage_accs
        if accumulators is None:
            self._commit(now)
            self._resolve_pending_loads(now)
            self._issue(now)
            self._fetch(now)
        else:
            commit_acc, memory_acc, issue_acc = accumulators
            clock = time.perf_counter
            t0 = clock()
            self._commit(now)
            t1 = clock()
            commit_acc.add(t1 - t0)
            self._resolve_pending_loads(now)
            t2 = clock()
            memory_acc.add(t2 - t1)
            self._issue(now)
            issue_acc.add(clock() - t2)
            self._fetch(now)
        if self._trace_done and not self.ruu.window:
            if self.mem.drain(now):
                self.done = True
            return
        if now - self._last_commit_cycle > DEADLOCK_CYCLES:
            raise SimulationError(
                f"no commit for {DEADLOCK_CYCLES} cycles at cycle {now}; "
                f"head={self.ruu.head()!r}"
            )

    # ------------------------------------------------------------------
    # Commit stage.
    # ------------------------------------------------------------------
    def _commit(self, now: int) -> None:
        tracer = self._tracer
        for _ in range(self._commit_width):
            head = self.ruu.head()
            if head is None:
                break
            if not head.issued:
                break
            if head.result_time is None or head.result_time > now:
                break
            if tracer is not None:
                tracer.emit(EventKind.COMMIT, now, self._trace_node,
                            seq=head.seq, op=head.op_class)
            if head.is_mem:
                if not head.private:
                    self.mem.commit_mem(now, head.addr, head.size,
                                        head.is_store, head.handle)
                self.lsq.release_head(head)
                if head.is_load:
                    self.stats.loads += 1
                else:
                    self.stats.stores += 1
            self.ruu.pop_head()
            self.stats.committed += 1
            self._last_commit_cycle = now

    # ------------------------------------------------------------------
    # Load completion (memory system may resolve handles asynchronously).
    # ------------------------------------------------------------------
    def _resolve_pending_loads(self, now: int) -> None:
        pending = self._pending_loads
        if not pending:
            return
        # Compact in place: the common no-progress cycle (every handle
        # still unresolved) must not allocate.
        kept = 0
        for entry in pending:
            ready = entry.handle.ready
            if ready is None:
                pending[kept] = entry
                kept += 1
            else:
                self.ruu.resolve(entry, max(ready, entry.issued_at + 1))
        if kept != len(pending):
            del pending[kept:]

    # ------------------------------------------------------------------
    # Issue stage.
    # ------------------------------------------------------------------
    def _issue(self, now: int) -> None:
        issued = 0
        ruu = self.ruu
        fus = self.fus
        batch = ruu.schedulable(now)
        width = self._issue_width
        blocked_classes = 0  # FU classes with no free slot left this cycle
        for position, entry in enumerate(batch):
            if issued >= width:
                self._requeue_rest(batch[position:], now)
                return
            op_class = entry.op_class
            class_bit = 1 << op_class
            if blocked_classes & class_bit:
                ruu.requeue(entry, now + 1)
                continue
            if not fus.try_claim(now, op_class):
                blocked_classes |= class_bit
                ruu.requeue(entry, now + 1)
                continue
            if entry.is_load:
                if not self._issue_load(entry, now):
                    ruu.requeue(entry, now + 1)
                    continue
            elif entry.is_store:
                self._issue_store(entry, now)
            else:
                latency = fus.latency(op_class)
                entry.issued = True
                entry.issued_at = now
                ruu.resolve(entry, now + latency)
            issued += 1

    def _requeue_rest(self, rest, now: int) -> None:
        for entry in rest:
            self.ruu.requeue(entry, now + 1)

    def _issue_load(self, entry, now: int) -> bool:
        """Issue load ``entry`` (its AGEN slot already claimed) or report
        that it must wait; the caller keeps a waiting load queued."""
        lsq = self.lsq
        if lsq._stores:
            blocker = entry.blocker
            if blocker is not None:
                if blocker.seq < entry.seq and not blocker.issued:
                    # Parked: still behind the same unissued store (an
                    # older seq rules out a recycled entry), so the
                    # scan below would fail the same way.
                    if self._oracle:
                        lsq.deferred += 1
                    return False
                entry.blocker = None
            if not self._oracle:
                # Conservative disambiguation: wait for every earlier
                # store address to resolve before going to memory.
                blocker = lsq.oldest_unissued_earlier_store(entry)
                if blocker is not None:
                    entry.blocker = blocker
                    return False
            store, resolved = lsq.forwarding_store(entry)
            if not resolved:
                # May not bypass an unissued same-address store; retry.
                entry.blocker = store
                return False
            if store is not None:
                entry.issued = True
                entry.issued_at = now
                handle = _ForwardedHandle(entry.addr, entry.size, now)
                entry.handle = handle
                when = store.issued_at + 1
                if when <= now:
                    when = now + 1
                self.ruu.resolve(entry, when)
                return True
        entry.issued = True
        entry.issued_at = now
        if entry.private:
            handle = self.mem.private_load_issue(now, entry.addr,
                                                 entry.size)
        else:
            handle = self.mem.load_issue(now, entry.addr, entry.size)
        entry.handle = handle
        ready = handle.ready
        if ready is not None:
            when = now + 1
            if ready > when:
                when = ready
            self.ruu.resolve(entry, when)
        else:
            self._pending_loads.append(entry)
        return True

    def _issue_store(self, entry, now: int) -> None:
        # The store's value and address are ready; it waits in the LSQ and
        # writes the cache at commit.  It produces no register result.
        entry.issued = True
        entry.issued_at = now
        self.lsq.note_store_issued()
        self.ruu.resolve(entry, now + 1)

    # ------------------------------------------------------------------
    # Fetch/dispatch stage (perfect branch prediction).
    # ------------------------------------------------------------------
    def _fetch(self, now: int) -> None:
        if self._redirect_after is not None:
            # A mispredicted branch owns fetch until it resolves.
            resolve = self._redirect_after.result_time
            if resolve is None or resolve > now:
                self.stats.fetch_stalls += 1
                if self._tracer is not None:
                    self._trace_stall(now, "redirect")
                return
            self._fetch_ready = max(
                self._fetch_ready,
                resolve + self._mispredict_penalty,
            )
            self._redirect_after = None
        if self._trace_done or now < self._fetch_ready:
            if not self._trace_done:
                self.stats.fetch_stalls += 1
                if self._tracer is not None:
                    self._trace_stall(now, "fetch")
            return
        for _ in range(self._fetch_width):
            dyn = self._peek_trace()
            if dyn is None:
                return
            if self.ruu.is_full():
                self.stats.window_stalls += 1
                if self._tracer is not None:
                    self._trace_stall(now, "window")
                return
            if dyn.op_class in (_LOAD, _STORE) and self.lsq.is_full():
                self.stats.lsq_stalls += 1
                if self._tracer is not None:
                    self._trace_stall(now, "lsq")
                return
            line = dyn.pc & self._icache_line_mask
            if line != self._fetched_line:
                ready = self.mem.ifetch_line(now, line)
                self._fetched_line = line
                if ready > now:
                    # Miss: the rest of this fetch group waits.
                    self._fetch_ready = ready
                    return
            self._consume_trace()
            entry = self.ruu.dispatch(dyn, now + 1)
            if entry.is_mem:
                self.lsq.insert(entry)
            if self._predictor is not None and dyn.is_cond_branch:
                self.stats.branches += 1
                predicted = self._predictor.predict(dyn.pc)
                self._predictor.train(dyn.pc, dyn.taken)
                if predicted != dyn.taken:
                    # Wrong path until this branch resolves: stop fetch.
                    self.stats.mispredicts += 1
                    self._redirect_after = entry
                    return

    def _trace_stall(self, now: int, cause: str, cycles: int = 1) -> None:
        """Emit one fetch-stall episode (callers guard on the tracer).

        Dense ticking emits one-cycle events; :meth:`note_skipped` emits
        a single aggregated event per skipped range — the *totals* match
        the stall counters exactly either way."""
        self._tracer.emit(EventKind.ISSUE_STALL, now, self._trace_node,
                          cause=cause, cycles=cycles)

    def _peek_trace(self):
        if self._fetch_buffer is None and not self._trace_done:
            try:
                self._fetch_buffer = next(self._trace)
            except StopIteration:
                self._trace_done = True
        return self._fetch_buffer

    def _consume_trace(self) -> None:
        self._fetch_buffer = None

    # ------------------------------------------------------------------
    # Fast-forward support (idle-cycle skipping).
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> float:
        """Lower bound on the next cycle at which :meth:`tick` could do
        anything beyond pure stall bookkeeping.

        Valid only immediately after every pipeline in the system has
        ticked cycle ``now`` (cross-node broadcasts resolve load handles
        during other nodes' ticks).  Returns ``inf`` when this pipeline
        has no self-generated event — it is waiting on another node.
        The system loop takes the minimum across nodes — folding in any
        medium-level timers (the fault layer's pending recovery
        deliveries and armed BSHR wait deadlines) — and cycles before it
        are observationally idle everywhere and may be skipped once
        :meth:`note_skipped` replays their stall accounting.

        Pending loads whose handle already carries a known-future ready
        cycle (a BSHR/DCUB completion or a fault-recovery delivery
        materialized by an earlier broadcast) are resolved *eagerly*
        here, so they contribute their exact wake cycle instead of the
        conservative ``now + 1``.  Eager resolution is identical to what
        the next dense tick would do — ``resolve(entry, max(ready,
        issued_at + 1))`` does not depend on the tick cycle — and it is
        only legal when that wake cycle lies strictly past ``now + 1``:
        a result due at ``now + 1`` must stay pending so the dense
        commit-before-resolve stage order is preserved (commit may see
        the result only one cycle after the resolving tick).
        """
        if self.done:
            return _INF
        nxt = now + 1
        pending = self._pending_loads
        tick_next = False
        if pending:
            resolve = self.ruu.resolve
            kept = 0
            for entry in pending:
                ready = entry.handle.ready
                if ready is None:
                    pending[kept] = entry
                    kept += 1
                    continue
                when = entry.issued_at + 1
                if ready > when:
                    when = ready
                if when <= nxt:
                    # Due immediately: the next tick must collect it.
                    pending[kept] = entry
                    kept += 1
                    tick_next = True
                else:
                    resolve(entry, when)
            if kept != len(pending):
                del pending[kept:]
            if tick_next:
                return nxt
        bound = _INF
        ruu = self.ruu
        heap = ruu._ready_heap
        if heap:
            ready = heap[0][0]
            if ready <= nxt:
                return nxt
            bound = ready
        window = ruu.window
        head = window[0] if window else None
        if head is not None and head.issued \
                and head.result_time is not None:
            when = head.result_time
            if when <= nxt:
                return nxt
            if when < bound:
                bound = when
        if self._redirect_after is not None:
            when = self._redirect_after.result_time
            if when is not None:
                if when <= nxt:
                    return nxt
                if when < bound:
                    bound = when
        elif not self._trace_done:
            if nxt < self._fetch_ready:
                if self._fetch_ready < bound:
                    bound = self._fetch_ready
            elif len(window) < ruu.capacity:
                dyn = self._peek_trace()
                if dyn is not None and not (
                        dyn.op_class in (_LOAD, _STORE)
                        and self.lsq.is_full()):
                    return nxt  # fetch dispatches next cycle
        if self._trace_done and not window:
            return nxt  # drain handshake must run every cycle
        if (ruu._stalled_loads or ruu._stalled_other) \
                and not self._bucket_parked():
            return nxt
        return bound

    def _bucket_parked(self) -> bool:
        """Dry-run the next issue walk over the stalled buckets (no heap
        entry is ready before the bound, so the walk sees the buckets
        alone): True when every entry that would claim an FU slot is a
        load parked behind an unissued store.

        Such a walk issues nothing — a parked load claims its slot and
        then fails, so it still crowds younger loads out of the class
        limit, and every other entry stays queued unchanged — and the
        state is frozen until the bound, so each cycle up to it walks
        identically.  The only trace of a walk is one ``lsq.deferred``
        bump per alias-blocked claimer (conservative-disambiguation
        stalls count nothing); that count is stashed for
        :meth:`note_skipped`.  Loads without a live blocker memo get one
        from a side-effect-free LSQ probe, exactly what ``_issue_load``
        would record on its next attempt; the dry run probes them in the
        walk's age order and stops where the walk would first issue.
        """
        ruu = self.ruu
        limits = self.fus.limit_table
        issuer = _INF  # age of the oldest non-load that would issue
        for entry in ruu._stalled_other:
            if limits[entry.op_class] > 0:
                issuer = entry.seq
                break
        lsq = self.lsq
        oracle = self._oracle
        claimed = 0
        # Only the oldest ``limit`` loads reach the FU check.
        for entry in ruu._stalled_loads[:limits[_LOAD]]:
            if entry.seq > issuer:
                return False
            blocker = entry.blocker
            if blocker is None or blocker.seq > entry.seq \
                    or blocker.issued:
                if oracle:
                    blocker = lsq.latest_overlapping_store(entry)
                    if blocker is not None and blocker.issued:
                        blocker = None
                else:
                    blocker = lsq.oldest_unissued_earlier_store(entry)
                if blocker is None:
                    return False  # it would issue
                entry.blocker = blocker
            claimed += 1
        if issuer != _INF:
            return False  # it would issue
        self._parked_deferred = claimed if oracle else 0
        return True

    def note_skipped(self, start: int, stop: int) -> None:
        """Replay stall accounting for skipped cycles ``[start, stop)``.

        The system loop guarantees the range is observationally idle for
        this pipeline (``stop`` is at most :meth:`next_event`), so each
        skipped tick would have incremented exactly the stall counter
        its frozen fetch state selects — mirroring :meth:`_fetch`'s
        branch order: redirect, fetch-ready, window, LSQ.
        """
        cycles = stop - start
        if cycles <= 0 or self.done:
            return
        stats = self.stats
        stats.cycles = stop
        ruu = self.ruu
        if ruu._stalled_loads or ruu._stalled_other:
            # Each skipped tick re-walked the parked buckets: it
            # restamped the retry cycle and re-deferred the alias-blocked
            # loads.
            ruu._stalled_retry = stop
            self.lsq.deferred += self._parked_deferred * cycles
        if self._redirect_after is not None:
            stats.fetch_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "redirect", cycles)
            return
        if self._trace_done:
            return
        if start < self._fetch_ready:
            stats.fetch_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "fetch", cycles)
            return
        if ruu.is_full():
            stats.window_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "window", cycles)
            return
        dyn = self._peek_trace()
        if dyn is not None and dyn.op_class in (_LOAD, _STORE) \
                and self.lsq.is_full():
            stats.lsq_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "lsq", cycles)

    # ------------------------------------------------------------------
    # Whole-program convenience for single-core systems.
    # ------------------------------------------------------------------
    def run(self, max_cycles: int) -> PipelineStats:
        """Tick until done; returns the stats."""
        tick = self.tick
        for cycle in range(max_cycles):
            tick(cycle)
            if self.done:
                return self.stats
        raise SimulationError(f"program did not finish in {max_cycles} cycles")


class _ForwardedHandle:
    """Handle for a load serviced by an in-queue store (1-cycle)."""

    __slots__ = ("addr", "size", "issued_at", "ready", "issue_hit",
                 "found_in_bshr", "forwarded", "dcub_line")

    def __init__(self, addr, size, now):
        self.addr = addr
        self.size = size
        self.issued_at = now
        self.ready = now + 1
        self.issue_hit = None
        self.found_in_bshr = False
        self.forwarded = True
        self.dcub_line = None
