"""The specialized timing loop: hot-path structures and skip bounds.

The per-cycle fast path leans on three precomputed/in-place structures
(the RUU free list, the LSQ unissued-store counter, the FU-class
arbitration tables) and on :meth:`Pipeline.next_event` being an *exact*
quiescence bound — the per-pipeline deep-skip scheduler
(:meth:`DataScalarSystem._run_selective`) simply does not tick a
pipeline before its own bound.  These tests pin each structure's
contract directly, then drive randomized programs to check the bound
against dense ticking, and finally pin the fault-recovery
(retransmit-backoff) arrival arithmetic that the skip scheduler relies
on being materialized eagerly.
"""

import dataclasses
import random

import pytest

from repro.baseline.perfect import PerfectMemory
from repro.core import DataScalarSystem
from repro.cpu.func_units import FUPool
from repro.cpu.lsq import LSQ
from repro.cpu.pipeline import Pipeline
from repro.cpu.ruu import RUU
from repro.experiments.config import datascalar_config
from repro.faults.medium import FaultyMedium
from repro.faults.plan import BroadcastFault
from repro.interconnect.medium import make_medium
from repro.isa import Interpreter, ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.params import BusConfig, CPUConfig, FaultConfig
from repro.workloads import build_program


# ----------------------------------------------------------------------
# Helpers: tiny dynamic instructions for driving RUU/LSQ directly.
# ----------------------------------------------------------------------

class _Dyn:
    """Minimal stand-in for a traced dynamic instruction."""

    def __init__(self, seq, op_class=OpClass.IALU, dest=None, srcs=(),
                 addr=0, size=4, private=False):
        self.seq = seq
        self.op_class = int(op_class)
        self.dest = dest
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.private = private


# ----------------------------------------------------------------------
# RUU free list.
# ----------------------------------------------------------------------

def test_ruu_free_list_recycles_committed_entries():
    ruu = RUU(capacity=4)
    first = ruu.dispatch(_Dyn(0, dest="r1"), now=0)
    ruu.resolve(first, 1)
    popped = ruu.pop_head()
    assert popped is first
    # The recycled object must be indistinguishable from a fresh one.
    again = ruu.dispatch(_Dyn(7, op_class=OpClass.LOAD, dest="r2",
                              addr=128), now=5)
    assert again is first  # same object, recycled through the free list
    assert again.seq == 7 and again.is_load and not again.is_store
    assert again.dispatched_at == 5 and again.operand_time == 5
    assert again.issued is False and again.issued_at == -1
    assert again.result_time is None and again.dependents is None
    assert again.handle is None and again.unresolved == 0


def test_ruu_free_list_reuse_preserves_dependence_wiring():
    ruu = RUU(capacity=4)
    producer = ruu.dispatch(_Dyn(0, dest="r1"), now=0)
    ruu.resolve(producer, 3)
    assert ruu.pop_head() is producer
    # Recycle the object as a new in-flight producer: the stale
    # dependents/result_time from its first life must not leak into the
    # wiring of its second.
    fresh = ruu.dispatch(_Dyn(1, dest="r2"), now=4)
    assert fresh is producer  # recycled through the free list
    consumer = ruu.dispatch(_Dyn(2, dest="r3", srcs=("r2",)), now=4)
    assert consumer.unresolved == 1
    assert fresh.dependents == [consumer]
    ruu.resolve(fresh, 9)
    assert consumer.unresolved == 0
    assert consumer.operand_time == 9


def test_ruu_free_list_is_bounded_by_capacity():
    ruu = RUU(capacity=2)
    for seq in range(8):
        ruu.dispatch(_Dyn(seq), now=seq)
        ruu.resolve(ruu.head(), seq)
        ruu.pop_head()
    assert len(ruu._free) <= ruu.capacity


# ----------------------------------------------------------------------
# LSQ unissued-store counter.
# ----------------------------------------------------------------------

def test_lsq_unissued_store_counter_tracks_lifecycle():
    ruu = RUU(capacity=1024)
    lsq = LSQ(capacity=8)
    store0 = _make_entry(ruu, 0, OpClass.STORE, addr=0)
    load1 = _make_entry(ruu, 1, OpClass.LOAD, addr=64)
    store2 = _make_entry(ruu, 2, OpClass.STORE, addr=8)
    for entry in (store0, load1, store2):
        lsq.insert(entry)
    assert lsq._unissued_stores == 2
    assert lsq.oldest_unissued_earlier_store(load1) is store0

    store0.issued = True
    lsq.note_store_issued()
    assert lsq._unissued_stores == 1
    # The remaining unissued store (seq 2) is *younger* than the load,
    # so the O(1) counter alone must not force a stall.
    assert lsq.oldest_unissued_earlier_store(load1) is None

    store2.issued = True
    lsq.note_store_issued()
    assert lsq._unissued_stores == 0
    # Steady state: the check short-circuits without scanning.
    assert lsq.oldest_unissued_earlier_store(load1) is None

    lsq.release_head(store0)
    lsq.release_head(load1)
    lsq.release_head(store2)
    assert len(lsq) == 0 and lsq._unissued_stores == 0


def test_lsq_counter_matches_brute_force_scan_under_random_traffic():
    rng = random.Random(42)
    ruu = RUU(capacity=4096)
    lsq = LSQ(capacity=16)
    live = []
    seq = 0
    for _ in range(400):
        action = rng.random()
        if action < 0.45 and not lsq.is_full():
            kind = OpClass.STORE if rng.random() < 0.5 else OpClass.LOAD
            entry = _make_entry(ruu, seq, kind,
                                addr=rng.randrange(0, 256, 4))
            lsq.insert(entry)
            live.append(entry)
            seq += 1
        elif action < 0.75:
            unissued = [e for e in live if e.is_store and not e.issued]
            if unissued:
                choice = rng.choice(unissued)
                choice.issued = True
                lsq.note_store_issued()
        elif live:
            head = live.pop(0)
            if head.is_store and not head.issued:
                head.issued = True
                lsq.note_store_issued()
            lsq.release_head(head)
        expected = sum(1 for e in live if e.is_store and not e.issued)
        assert lsq._unissued_stores == expected
        for probe in live:
            if probe.is_load:
                brute = next((e for e in live if e.is_store
                              and not e.issued and e.seq < probe.seq),
                             None)
                assert lsq.oldest_unissued_earlier_store(probe) is brute


def _make_entry(ruu, seq, op_class, addr):
    return ruu.dispatch(_Dyn(seq, op_class=op_class, addr=addr), now=0)


# ----------------------------------------------------------------------
# FU arbitration tables.
# ----------------------------------------------------------------------

def test_fu_tables_mirror_config():
    config = CPUConfig()
    fus = FUPool(config)
    for op_class in OpClass:
        index = int(op_class)
        assert fus.latency_table[index] == config.fu_latencies[
            op_class.fu_name]
        count = config.fu_counts.get(op_class.fu_name)
        if count is not None:
            assert fus.limit_table[index] == count
        assert fus.latency(index) == fus.latency_table[index]


def test_fu_try_claim_enforces_per_class_per_cycle_limits():
    config = CPUConfig()
    fus = FUPool(config)
    limited = [int(c) for c in OpClass
               if config.fu_counts.get(c.fu_name) is not None]
    assert limited, "config under test must limit at least one FU class"
    op_class = limited[0]
    limit = fus.limit_table[op_class]
    for _ in range(limit):
        assert fus.try_claim(10, op_class)
    assert not fus.try_claim(10, op_class)  # class slots exhausted
    # Other classes are unaffected by this class's exhaustion.
    other = next(i for i in range(len(fus.limit_table)) if i != op_class)
    assert fus.try_claim(10, other)
    # A new cycle resets every class's slot counter.
    assert fus.try_claim(11, op_class)


# ----------------------------------------------------------------------
# next_event vs dense ticking (the deep-skip quiescence bound).
# ----------------------------------------------------------------------

#: ``div`` is the long-latency op: stores fed by it wait, and the loads
#: behind those stores park.
_OPS = ["addi", "add", "mul", "div", "lw", "sw"]


def _random_program(rng):
    builder = ProgramBuilder()
    base = builder.alloc_global("buf", 256)
    builder.li("r15", base)
    for _ in range(rng.randrange(3, 40)):
        op = rng.choice(_OPS)
        reg = f"r{rng.randrange(1, 13)}"
        if op == "addi":
            builder.addi(reg, reg, 1)
        elif op == "add":
            builder.add(reg, reg, "r15")
        elif op == "mul":
            builder.mul(reg, reg, reg)
        elif op == "div":
            builder.div(reg, reg, "r15")  # r15 is the nonzero buffer base
        elif op == "lw":
            builder.lw(reg, "r15", rng.randrange(0, 32) * 4)
        else:
            builder.sw(reg, "r15", rng.randrange(0, 32) * 4)
    builder.halt()
    return builder.build()


def _random_cpu(rng):
    return CPUConfig(
        fetch_width=rng.choice([1, 2, 4]),
        issue_width=rng.choice([1, 2, 4]),
        commit_width=rng.choice([1, 2, 4]),
        ruu_entries=rng.choice([8, 16, 32]),
        lsq_entries=rng.choice([4, 8]),
    )


def _observable(pipeline):
    """Everything ``next_event`` promises stays frozen before the bound:
    commit-side counters, the window population, and issue activity
    (entries only leave the window at commit, so the per-entry issued
    flags are a faithful issue detector)."""
    stats = pipeline.stats
    return (
        stats.committed, stats.loads, stats.stores, stats.branches,
        stats.mispredicts,
        len(pipeline.ruu.window),
        sum(1 for entry in pipeline.ruu.window if entry.issued),
    )


def _drive_checking_bounds(pipeline, max_cycles=50_000):
    """Dense-tick to completion, verifying after every tick that the
    cycles strictly before ``next_event``'s bound are observationally
    idle (exactly what the skip schedulers assume when they jump)."""
    now = 0
    while not pipeline.done:
        assert now < max_cycles, "bounded program failed to finish"
        pipeline.tick(now)
        if pipeline.done:
            return now + 1
        bound = pipeline.next_event(now)
        stop = min(bound, max_cycles)
        if stop > now + 1:
            frozen = _observable(pipeline)
            for idle in range(now + 1, stop):
                pipeline.tick(idle)
                assert _observable(pipeline) == frozen, (
                    f"activity at cycle {idle}, inside the idle span "
                    f"promised by next_event({now}) == {bound}"
                )
                if pipeline.done:
                    return idle + 1
            now = stop
        else:
            now += 1
    return now


def _drive_skipping(pipeline, max_cycles=50_000):
    """Tick only at ``next_event`` bounds, replaying each skipped range
    with ``note_skipped`` — what the skip schedulers do.  Returns the
    cycle count, the ticks made, and how many skips slept with loads
    parked in the stalled bucket."""
    now = ticks = parked_sleeps = 0
    while True:
        assert now < max_cycles, "bounded program failed to finish"
        pipeline.tick(now)
        ticks += 1
        if pipeline.done:
            return now + 1, ticks, parked_sleeps
        stop = min(pipeline.next_event(now), max_cycles)
        if stop > now + 1:
            parked_sleeps += bool(pipeline.ruu._stalled_loads)
            pipeline.note_skipped(now + 1, stop)
            now = stop
        else:
            now += 1


def _final_state(pipeline):
    """Every counter a run leaves behind, LSQ and RUU included."""
    return (
        {slot: getattr(pipeline.stats, slot)
         for slot in pipeline.stats.__slots__},
        pipeline.lsq.deferred, pipeline.lsq.forwards,
        pipeline.lsq.state_summary(), pipeline.ruu.state_summary(),
    )


def _store_blocked_program(loads=12):
    """A store whose data waits on a chain of divides, then more loads
    than the load class has issue slots: two of every three read the
    store's word (they may not bypass it), the rest the next word."""
    builder = ProgramBuilder()
    base = builder.alloc_global("buf", 64)
    builder.li("r15", base)
    builder.li("r1", 1000)
    for _ in range(3):
        builder.div("r1", "r1", "r15")
    builder.sw("r1", "r15", 0)
    for i in range(loads):
        builder.lw(f"r{2 + i % 10}", "r15", 4 if i % 3 == 2 else 0)
    builder.halt()
    return builder.build()


def test_blocker_memo_does_not_survive_recycling():
    """A parked load's memo names its blocking store; once that store
    commits, its entry object is recycled for a new (unissued, younger)
    instruction, which must not keep the load parked."""
    pipeline = Pipeline(CPUConfig(), PerfectMemory(), iter(()))
    ruu, lsq = pipeline.ruu, pipeline.lsq
    store = _make_entry(ruu, 0, OpClass.STORE, addr=64)
    load = _make_entry(ruu, 1, OpClass.LOAD, addr=64)
    younger = _make_entry(ruu, 2, OpClass.STORE, addr=128)
    for entry in (store, load, younger):
        lsq.insert(entry)
    assert not pipeline._issue_load(load, 1)
    assert load.blocker is store and lsq.deferred == 1

    store.issued = True
    store.issued_at = 1
    lsq.note_store_issued()
    ruu.resolve(store, 2)
    lsq.release_head(store)
    assert ruu.pop_head() is store
    recycled = ruu.dispatch(_Dyn(3), now=3)
    assert recycled is store and not recycled.issued

    # Neither next_event's dry run over the bucket nor the retry itself
    # may treat the recycled entry as the blocker.
    ruu._stalled_loads.append(load)
    assert not pipeline._bucket_parked()
    assert pipeline._issue_load(load, 3)
    assert load.issued and lsq.deferred == 1


def _issue_beside_bucket(tick_name, ready_seq, ready_key):
    """Tick cycle 10 of a hand-built 2-wide core: loads #0 and #3 and
    ALU ops #1, #2, #4 are ready, all but ``ready_seq`` in the stalled
    buckets and that one in the ready heap under ``ready_key``.
    Returns who issued and what stayed, in age order."""
    pipeline = Pipeline(CPUConfig(issue_width=2), PerfectMemory(),
                        iter(()))
    ruu = pipeline.ruu
    classes = [OpClass.LOAD, OpClass.IALU, OpClass.IALU, OpClass.LOAD,
               OpClass.IALU]
    entries = [ruu.dispatch(_Dyn(seq, op_class=op_class, addr=64 * seq),
                            now=0)
               for seq, op_class in enumerate(classes)]
    for entry in ruu.schedulable(9):
        if entry.seq != ready_seq:
            ruu.requeue(entry, 10)
    ruu.requeue(entries[ready_seq], ready_key)
    getattr(pipeline, tick_name)(10)
    return ([entry.seq for entry in entries if entry.issued],
            [entry.seq for entry in ruu._stalled_loads],
            [entry.seq for entry in ruu._stalled_other],
            ruu.state_summary())


@pytest.mark.parametrize("ready_seq, ready_key, issued, others", [
    (4, 7, [0, 4], [1, 2]),
    (4, 10, [0, 1], [2, 4]),
    (1, 10, [0, 1], [2, 4]),
], ids=["stale", "current-young", "current-old"])
def test_fast_issue_walk_keeps_staged_order_beside_a_bucket(
        ready_seq, ready_key, issued, others):
    """A heap entry keyed before the cycle (legal after a sleep) walks
    ahead of every bucket entry, in ``(key, seq)`` order; one keyed at
    the cycle merges with the buckets by age.  The fast tick must issue
    exactly what the staged tick issues, and leave both buckets in age
    order."""
    fast = _issue_beside_bucket("tick", ready_seq, ready_key)
    assert fast == _issue_beside_bucket("tick_spanned", ready_seq,
                                        ready_key)
    assert fast[:3] == (issued, [3], others)


def test_blocked_loads_are_not_rewalked(monkeypatch):
    """Regression on an exact, machine-independent count: once the load
    class is full, the issue walk leaves the younger ready loads in
    their bucket instead of requeueing each one every cycle (238,700
    requeues on tomcatv and 431,234 on applu when it did)."""
    calls = 0
    requeue = RUU.requeue

    def counting_requeue(self, entry, not_before):
        nonlocal calls
        calls += 1
        return requeue(self, entry, not_before)

    monkeypatch.setattr(RUU, "requeue", counting_requeue)
    for workload in ("tomcatv", "applu"):
        calls = 0
        DataScalarSystem(datascalar_config(4)).run(
            build_program(workload), limit=4000)
        assert calls <= 2000, workload


@pytest.mark.parametrize("oracle", [True, False],
                         ids=["oracle", "conservative"])
def test_loads_parked_behind_a_store_sleep_and_replay_exactly(oracle):
    """Loads waiting on an unissued store do not force a tick every
    cycle: the pipeline sleeps with them parked in the stalled bucket,
    and ``note_skipped`` replays the skipped walks (retry restamp,
    per-cycle alias deferrals) so every counter matches dense ticking."""
    program = _store_blocked_program()
    cpu = CPUConfig(oracle_disambiguation=oracle)
    assert cpu.fu_counts["AGEN"] < 12  # loads crowd each other out

    dense = Pipeline(cpu, PerfectMemory(), Interpreter(program).trace())
    cycles = 0
    while not dense.done:
        dense.tick(cycles)
        cycles += 1

    skipping = Pipeline(cpu, PerfectMemory(), Interpreter(program).trace())
    skipped_cycles, ticks, parked_sleeps = _drive_skipping(skipping)

    assert skipped_cycles == cycles
    assert parked_sleeps and ticks < cycles // 2
    assert _final_state(skipping) == _final_state(dense)
    assert (dense.lsq.deferred > 0) == oracle


@pytest.mark.parametrize("seed_block", range(4))
def test_next_event_bound_matches_dense_ticking(seed_block):
    """200 random (program, machine-shape) pairs, each under oracle and
    conservative disambiguation: dense ticking must be observationally
    idle strictly before every ``next_event`` bound, and neither
    interleaving ``next_event`` with dense ticking (what the
    fast-forward scheduler does every cycle) nor skipping to each bound
    with ``note_skipped`` may change one final number — stats, LSQ
    forwards/deferrals, RUU occupancy — vs a pure dense run."""
    for seed in range(seed_block * 50, seed_block * 50 + 50):
        rng = random.Random(seed)
        program = _random_program(rng)
        shape = _random_cpu(rng)
        for oracle in (True, False):
            cpu = dataclasses.replace(shape, oracle_disambiguation=oracle)
            where = f"seed {seed}, oracle={oracle}"

            checked = Pipeline(cpu, PerfectMemory(),
                               Interpreter(program).trace())
            cycles = _drive_checking_bounds(checked)

            skipping = Pipeline(cpu, PerfectMemory(),
                                Interpreter(program).trace())
            skipped_cycles = _drive_skipping(skipping)[0]

            dense = Pipeline(cpu, PerfectMemory(),
                             Interpreter(program).trace())
            now = 0
            while not dense.done:
                dense.tick(now)
                now += 1
            assert cycles == now, f"{where}: cycle count diverged"
            assert skipped_cycles == now, f"{where}: skipping diverged"
            expected = _final_state(dense)
            assert _final_state(checked) == expected, where
            assert _final_state(skipping) == expected, where


def test_store_bound_nodes_sleep(monkeypatch):
    """Regression on an exact, machine-independent count: tomcatv's
    loads mostly wait behind unissued stores, and with them parked a
    4-node run ticks about a tenth of its node-cycles (every one of
    them when parked loads still forced a tick per cycle)."""
    ticks = 0
    tick = Pipeline.tick

    def counting_tick(self, now):
        nonlocal ticks
        ticks += 1
        return tick(self, now)

    monkeypatch.setattr(Pipeline, "tick", counting_tick)
    result = DataScalarSystem(datascalar_config(4)).run(
        build_program("tomcatv"), limit=4000)
    assert ticks / (result.cycles * 4) <= 0.25


# ----------------------------------------------------------------------
# Fault recovery (BSHR retransmit backoff) is eager and exact.
# ----------------------------------------------------------------------

class _ScriptedPlan:
    """Deterministic replacement for the seeded FaultPlan."""

    def __init__(self, faults, outcomes=()):
        self._faults = list(faults)
        self._outcomes = list(outcomes)

    def for_broadcast(self, src):
        if self._faults:
            return self._faults.pop(0)
        return BroadcastFault()

    def retransmit_outcome(self):
        if self._outcomes:
            return self._outcomes.pop(0)
        return (False, False)


def _faulty_bus(config, num_nodes=2):
    bus = BusConfig()
    return FaultyMedium(make_medium("bus", bus, num_nodes), config,
                        num_nodes, bus), bus


def test_recovered_arrival_is_materialized_eagerly_and_exactly():
    """A dropped delivery's repaired arrival must come back from
    ``broadcast`` itself (absolute cycle, timeout + one request/data
    round trip) — not as a deferred event the skip scheduler would have
    to poll for."""
    config = FaultConfig(seed=0, receiver_drop_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan([BroadcastFault(dropped=frozenset({1}))])

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x1000, 64)[1]

    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)
    expected = due + config.bshr_timeout + request + data

    arrivals = medium.broadcast(0, 0, 0x1000, 64)
    assert arrivals[1] == expected
    assert medium.recovery_stats.timeouts == 1
    assert medium.recovery_stats.retransmits == 1
    assert medium.recovery_stats.recovered == 1
    # next_event mirrors the materialized arrival exactly — and is
    # consumed once reached, never lingering as a stale skip bound.
    assert medium.next_event(0) == expected
    assert medium.next_event(expected) is None


def test_retransmit_backoff_arithmetic_is_exact():
    """Failed retransmit attempts pay timeout + exponential backoff;
    the final arrival must land on exactly the closed-form cycle."""
    config = FaultConfig(seed=0, receiver_drop_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan(
        [BroadcastFault(dropped=frozenset({1}))],
        outcomes=[(True, False), (True, False), (False, False)],
    )

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x2000, 64)[1]
    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)

    when = due + config.bshr_timeout
    for attempt in range(2):  # two dropped attempts back off
        arrived = when + request + data
        when = (arrived + config.bshr_timeout
                + config.retry_backoff * config.backoff_factor ** attempt)
    expected = when + request + data

    arrivals = medium.broadcast(0, 0, 0x2000, 64)
    assert arrivals[1] == expected
    assert medium.recovery_stats.retransmits == 3
    assert medium.recovery_stats.recovered == 1
    assert medium.recovery_stats.retry_high_water == 3
    assert medium.next_event(0) == expected


def test_nacked_corruption_skips_the_timeout():
    """ECC failure is detected at arrival: the NACK leaves immediately,
    so the repaired arrival must NOT be charged the sequence-gap bound."""
    config = FaultConfig(seed=0, corrupt_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan([BroadcastFault(corrupted=frozenset({1}))])

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x3000, 64)[1]
    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)

    arrivals = medium.broadcast(0, 0, 0x3000, 64)
    assert arrivals[1] == due + request + data
    assert medium.recovery_stats.nacks == 1
    assert medium.recovery_stats.timeouts == 0


def test_fault_recovery_is_invisible_to_idle_skip():
    """Regression for the skip schedulers crossing recovery windows: a
    loss-heavy run on the slowest bus (long idle stretches, so skipping
    actually matters) must be bit-identical between fast-forward and
    dense ticking, with real recoveries in play."""
    from repro.experiments.config import timing_bus_config
    from repro.isa.interpreter import Interpreter as _Interp

    class _DenseSystem(DataScalarSystem):
        def _make_trace(self, program, node_id, limit):
            return _Interp(program).trace(limit=limit)

    program = build_program("compress")
    faults = FaultConfig(seed=11, receiver_drop_prob=3e-2, corrupt_prob=1e-2)
    config = dataclasses.replace(
        datascalar_config(
            num_nodes=4,
            bus=timing_bus_config(cycles_per_bus_cycle=16)),
        faults=faults)
    assert config.fast_forward

    fast = DataScalarSystem(config).run(program, limit=1_500)
    dense = _DenseSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=1_500)

    assert fast.cycles == dense.cycles
    assert fast.instructions == dense.instructions
    assert fast.bus_transactions == dense.bus_transactions
    assert fast.extra["faults"] == dense.extra["faults"]
    assert fast.extra["faults"]["recovery"]["recovered"] > 0
