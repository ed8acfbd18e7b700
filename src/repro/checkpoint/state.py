"""Serializable full-simulator state: capture, materialize, advance.

The timing simulator's state is an object graph of plain data — RUU
windows, LSQ entries, free lists, branch-predictor tables, cache tag
arrays, BSHR/DCUB queues, TLBs, the page table, interconnect timing
state, and the fault layer's pending retransmits.  The one thing that
cannot be serialized is *code position*: the functional front end is a
running generator (the predecoded interpreter or a program-specialized
stepper), and generators do not pickle.

A :class:`Checkpoint` therefore splits a run into two parts:

* the **machine state** — pickled in *one* ``pickle.dumps`` of the
  whole tree, so every cross-structure reference (a ``LoadHandle``
  shared by a pipeline's pending-load list and a BSHR waiter queue, a
  ``DCUBEntry`` named by several merged handles, a TLB's walker
  pointing at its node's memory banks) stays one object in the
  snapshot exactly as it is one object live.  The live edges that must
  not be followed — each pipeline's trace iterator, its pre-bound
  ``__next__`` and fan-out queue, span accumulators, tracers, and each
  broadcaster's delivery closure — are left out by the owners'
  ``__getstate__`` (:class:`~repro.cpu.pipeline.Pipeline`,
  :class:`~repro.core.broadcast.Broadcaster`); restore rebinds them
  against the unpickled clones; and
* the **front-end position** — how many dynamic records each node has
  taken from its trace.  Fetch takes a record only to dispatch it, so
  the position is derived from machine state
  (:func:`frontend_position`) plus any warm-up records skipped before
  timing began.  Restore rebuilds the functional front end from the
  program — the same engine the original run chose — and fast-forwards
  it by that count, which also reconstructs the fan-out tee queues
  record for record (the view that produced the newest source record
  always has an empty pending queue, so per-view replay counts
  determine the whole tee state).

A checkpoint holds its snapshot as bytes, so it is immutable, may be
resumed any number of times, and ships through the content-addressed
result cache to pool workers (:class:`repro.runner.sharded.ShardedRun`)
as-is.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs import spans

#: Stamp of the snapshot layout.  Folded into every checkpoint digest
#: (:func:`repro.runner.digest.checkpoint_digest`), so cached blobs can
#: never alias across format changes.  Bump when the ``state`` tree's
#: shape changes.
CHECKPOINT_VERSION = "3"


@dataclass
class Checkpoint:
    """One resumable position of a timing simulation.

    ``cycle`` is the next cycle to simulate (capture happens after
    every tick of cycle ``cycle - 1``); ``committed`` is the minimum
    per-node committed-instruction count at capture; ``consumed`` is
    the per-node count of dynamic records the front end has delivered
    (fetch buffer included).  ``blob`` is the pickled machine-state
    tree; its keys depend on ``kind`` (``"datascalar"``,
    ``"traditional"``, or ``"perfect"``).
    """

    kind: str
    cycle: int
    committed: int
    consumed: "list[int]"
    blob: bytes
    version: str = CHECKPOINT_VERSION
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Deterministic structural summaries (shard stitching verification).
    # ------------------------------------------------------------------
    def summary(self) -> tuple:
        """A deterministic tuple over every externally visible number in
        the snapshot — committed counts, stall counters, occupancies,
        interconnect and fault-layer state.  Two checkpoints of the same
        simulation position always summarize identically, regardless of
        which process produced them; :class:`~repro.runner.sharded.
        ShardedRun` compares a shard's end state against the cached next
        checkpoint through this."""
        state = pickle.loads(self.blob)
        head = (self.kind, self.version, self.cycle, self.committed,
                tuple(self.consumed))
        if self.kind == "datascalar":
            pipelines = state["pipelines"]
            nodes = state["nodes"]
            medium = state["medium"]
            page_table = state["page_table"]
            return head + (
                tuple(_pipeline_summary(p) for p in pipelines),
                tuple(_node_summary(n) for n in nodes),
                medium.state_key(self.cycle),
                (page_table.unmapped_accesses, len(page_table._entries)),
                tuple(state["wake"]),
                tuple(state["last_tick"]),
            )
        if self.kind == "traditional":
            memory = state["memory"]
            return head + (
                _pipeline_summary(state["pipeline"]),
                (memory.requests, memory.onchip_fills,
                 memory.writethroughs_offchip, memory.writebacks_offchip,
                 memory.bus.stats.transactions,
                 memory.bus.stats.payload_bytes,
                 memory.dcub.occupancy()),
            )
        if self.kind == "perfect":
            memory = state["memory"]
            return head + (
                _pipeline_summary(state["pipeline"]),
                (memory.loads, memory.stores),
            )
        raise SimulationError(f"unknown checkpoint kind {self.kind!r}")

    def describe(self) -> dict:
        """Small human-readable digest for logs and the CLI."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "committed": self.committed,
            "consumed": list(self.consumed),
            "version": self.version,
            **self.meta,
        }


def _pipeline_summary(pipeline) -> tuple:
    stats = pipeline.stats
    return (
        stats.committed, stats.loads, stats.stores, stats.cycles,
        stats.fetch_stalls, stats.window_stalls, stats.lsq_stalls,
        stats.branches, stats.mispredicts,
        pipeline.ruu.state_summary(),
        pipeline.lsq.state_summary(),
        len(pipeline._pending_loads),
        pipeline._fetch_ready,
        pipeline._fetched_line,
        pipeline._last_commit_cycle,
        pipeline._trace_done,
        pipeline._fetch_buffer is not None,
        pipeline.done,
    )


def _node_summary(node) -> tuple:
    return (
        node.bshr.occupancy(), node.bshr.stats.waits,
        node.bshr.stats.found_in_bshr, node.bshr.stats.squashes,
        node.bshr.stats.arrivals,
        node.dcub.occupancy(), node.dcub.allocations, node.dcub.merges,
        node.broadcaster.stats.sent, node.broadcaster.stats.late,
        node.remote_loads, node.local_loads,
        node.dropped_stores, node.local_stores,
        node.tracker.stats.false_hits, node.tracker.stats.false_misses,
    )


# ----------------------------------------------------------------------
# Capture / materialize.
# ----------------------------------------------------------------------
def capture(kind: str, cycle: int, committed: int, tree: dict,
            consumed=(), meta: "dict | None" = None) -> Checkpoint:
    """Pickle ``tree`` into a checkpoint.

    Purely observational for the running simulation: the live objects
    are only read.  Charged to a ``checkpoint-save`` span when a
    recorder is active."""
    with spans.span("checkpoint-save"):
        blob = pickle.dumps(tree, pickle.HIGHEST_PROTOCOL)
    return Checkpoint(kind=kind, cycle=cycle, committed=committed,
                      consumed=list(consumed), blob=blob,
                      meta=dict(meta or {}))


def materialize(checkpoint: Checkpoint) -> dict:
    """A fresh, independent copy of the snapshot's state tree."""
    if checkpoint.version != CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint format {checkpoint.version!r} does not match "
            f"this simulator's {CHECKPOINT_VERSION!r}")
    with spans.span("checkpoint-restore"):
        return pickle.loads(checkpoint.blob)


def frontend_position(pipeline) -> int:
    """Records ``pipeline`` has taken from its trace since it was built:
    every committed instruction, every one still in the window, and the
    held fetch buffer.  Fetch takes a record only to dispatch it (or to
    hold it when dispatch stalls), so no other record is ever out."""
    return (pipeline.stats.committed + len(pipeline.ruu.window)
            + (pipeline._fetch_buffer is not None))


def check_arguments(kind: str, checkpoint_every, checkpoint_sink,
                    resume_from, stop_after, warmup) -> None:
    """Reject checkpoint arguments a ``kind`` run cannot honour, before
    any simulation work is done."""
    if checkpoint_every is not None and checkpoint_every < 1:
        raise SimulationError("checkpoint_every must be >= 1")
    if checkpoint_sink is None:
        if checkpoint_every is not None:
            raise SimulationError(
                "checkpoint_every requires a checkpoint_sink")
        if stop_after is not None:
            raise SimulationError("stop_after requires a checkpoint_sink")
    start = 0
    if resume_from is not None:
        if resume_from.kind != kind:
            raise SimulationError(
                f"cannot resume a {resume_from.kind!r} checkpoint on a "
                f"{kind!r} system")
        if warmup:
            raise SimulationError(
                "warmup cannot be combined with resume_from: the "
                "checkpoint already fixes the front-end position")
        start = resume_from.committed
    if stop_after is not None and stop_after <= start:
        raise SimulationError(
            f"stop_after={stop_after} is at or below the run's starting "
            f"point ({start} instructions committed)")


class BoundaryWatch:
    """The per-round checkpoint trigger a timing loop calls after each
    simulated cycle as ``watch(cycle)``, ``cycle`` being the next cycle
    to simulate.

    Once the run's committed count (the minimum over the nodes'
    ``stats``) reaches the next ``every``-instruction boundary or
    ``stop_after``, it calls ``snapshot(cycle) -> (tree, consumed)``
    once and sends ``sink`` one capture per boundary crossed — wide
    commit rounds can cross several, and each nominal boundary gets its
    own checkpoint so warm-start lookups by boundary always land.
    Boundaries past ``stop_after`` are not emitted, and a ``stop_after``
    that is itself a boundary is emitted once.  Returns True (and sets
    :attr:`stopped`) once ``stop_after`` is reached."""

    def __init__(self, kind: str, stats, snapshot, every, sink,
                 stop_after):
        self._kind = kind
        self._stats = stats
        self._lead = stats[0]
        self._snapshot = snapshot
        self._every = every
        self._sink = sink
        self._stop_after = stop_after
        self._next = None
        if every is not None:
            start = min(s.committed for s in stats)
            self._next = (start // every + 1) * every
        self.stopped = False
        self._arm()

    def _arm(self) -> None:
        """Set the committed count at which the next call captures."""
        self._threshold = min(b for b in (self._next, self._stop_after)
                              if b is not None)

    def __call__(self, cycle: int) -> bool:
        # One node below the threshold keeps the minimum below it: a
        # cheap test for the common round.
        if self._lead.committed < self._threshold:
            return False
        committed = min(s.committed for s in self._stats)
        if committed < self._threshold:
            return False
        stop_after = self._stop_after
        self.stopped = stop_after is not None and committed >= stop_after
        last = stop_after if self.stopped else committed
        boundaries = []
        while self._next is not None and self._next <= last:
            boundaries.append(self._next)
            self._next += self._every
        if self.stopped and stop_after not in boundaries:
            boundaries.append(stop_after)
        self._arm()
        tree, consumed = self._snapshot(cycle)
        for boundary in boundaries:
            self._sink(capture(self._kind, cycle, committed, tree,
                               consumed=consumed,
                               meta={"boundary": boundary}))
        return self.stopped


def single_pipeline_watch(kind, pipeline, skipped, tree, checkpoint_every,
                          checkpoint_sink, stop_after):
    """The :class:`BoundaryWatch` of a single-pipeline baseline system
    (``traditional`` or ``perfect``), or ``None`` when nothing is to be
    captured.  ``skipped`` counts the records the front end passed
    before ``pipeline`` was built; ``tree`` is the state to snapshot."""
    if checkpoint_every is None and stop_after is None:
        return None
    return BoundaryWatch(
        kind, [pipeline.stats],
        lambda cycle: (tree, [skipped + frontend_position(pipeline)]),
        checkpoint_every, checkpoint_sink, stop_after)


def drive_single_pipeline(pipeline, cycle, max_cycles, watch,
                          overflow_msg) -> int:
    """Dense tick loop of the single-pipeline baseline systems, from
    ``cycle`` until the pipeline is done or ``watch`` asks to stop.
    Returns the next cycle to simulate — the same convention the
    multi-node system uses."""
    tick = pipeline.tick
    while not pipeline.done:
        if cycle >= max_cycles:
            raise SimulationError(overflow_msg)
        tick(cycle)
        cycle += 1
        if watch is not None and watch(cycle):
            break
    return cycle


def advance_trace(trace, count: int, warmup: bool = False) -> None:
    """Fast-forward a front end by ``count`` records (functional
    warm-up, or replay to a checkpoint's position: the records are
    re-derived and discarded)."""
    step = trace.__next__
    try:
        for _ in range(count):
            step()
    except StopIteration:
        if warmup:
            raise SimulationError(
                f"warmup={count} runs past the end of the program: the "
                f"front end ended before {count} records") from None
        raise SimulationError(
            f"front end exhausted after fewer than {count} records while "
            f"advancing to a checkpoint — program or limit does not match "
            f"the checkpointed run") from None
