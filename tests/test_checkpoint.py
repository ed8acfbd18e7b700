"""Checkpoint/restore, intra-run sharding, and the cache plumbing
underneath warm starts.

Bit-identity of restore-and-continue against straight-through runs is
pinned per-row in ``test_fastforward_equivalence.py``; this file covers
the machinery around it: snapshot serialization, the
:class:`~repro.runner.ShardedRun` cold/warm protocol and its
stale-cache defense, ``REPRO_CACHE_MAX_BYTES`` LRU pruning, and the
ProgressLine ETA fix for cached/replayed points.
"""

import os
import pickle
import time

import pytest

from repro.core import DataScalarSystem
from repro.errors import RunnerError
from repro.experiments.config import datascalar_config
from repro.runner import ResultCache, ShardedRun, SweepPoint, SweepRunner
from repro.runner.digest import checkpoint_digest, result_fingerprint
from repro.runner.telemetry import ProgressLine
from repro.workloads import build_program

LIMIT = 2_000


def _config(num_nodes=2):
    return datascalar_config(num_nodes=num_nodes)


def _checkpoints(config, limit=LIMIT, every=700):
    program = build_program("compress")
    saved = []
    DataScalarSystem(config).run(program, limit=limit,
                                 checkpoint_every=every,
                                 checkpoint_sink=saved.append)
    return saved


# ----------------------------------------------------------------------
# Snapshot object.
# ----------------------------------------------------------------------
def test_checkpoint_pickles_and_summary_is_stable():
    config = _config()
    saved = _checkpoints(config)
    assert [ckpt.meta["boundary"] for ckpt in saved] == [700, 1400]
    for ckpt in saved:
        blob = pickle.dumps(ckpt)
        clone = pickle.loads(blob)
        assert clone.kind == "datascalar"
        assert clone.cycle == ckpt.cycle
        assert clone.committed == ckpt.committed
        # The deterministic summary is the stitcher's verification key:
        # it must survive serialization exactly.
        assert clone.summary() == ckpt.summary()
        assert clone.describe()["kind"] == "datascalar"


@pytest.mark.parametrize("workload", ["wave5", "tomcatv"])
def test_boundary_summaries_match_between_dense_and_fast_forward(workload):
    """At the same boundary, a fast-forward snapshot must describe the
    same machine as a dense one: per-pipeline stats (``cycles``
    included, also for a pipeline asleep at the boundary), RUU and LSQ
    state (parked-load deferrals included), nodes and interconnect.
    Only the scheduler's own ``wake``/``last_tick`` lists may differ."""
    import dataclasses

    program = build_program(workload)
    summaries = {}
    for fast_forward in (True, False):
        config = dataclasses.replace(_config(4), fast_forward=fast_forward)
        saved = []
        DataScalarSystem(config).run(program, limit=LIMIT,
                                     checkpoint_every=500,
                                     checkpoint_sink=saved.append)
        assert len(saved) == LIMIT // 500
        # summary() = head (5 fields), pipelines, nodes, medium, page
        # table, then the scheduler-only wake and last_tick.
        summaries[fast_forward] = [ckpt.summary()[:-2] for ckpt in saved]
    assert summaries[True] == summaries[False]


def test_version_mismatch_refuses_restore():
    """A foreign stamp, or "2" (the format that pickled the RUU with one
    stalled bucket), must fail typed on restore, not run."""
    from repro.checkpoint import materialize
    from repro.errors import SimulationError

    for version in ("incompatible", "2"):
        ckpt = _checkpoints(_config())[0]
        ckpt.version = version
        with pytest.raises(SimulationError, match=f"format '{version}'"):
            materialize(ckpt)
        with pytest.raises(SimulationError, match=f"format '{version}'"):
            DataScalarSystem(_config()).run(build_program("compress"),
                                            limit=LIMIT, resume_from=ckpt)


def test_stop_after_emits_final_checkpoint_and_returns_none():
    config = _config()
    program = build_program("compress")
    saved = []
    out = DataScalarSystem(config).run(program, limit=LIMIT,
                                       checkpoint_every=600,
                                       checkpoint_sink=saved.append,
                                       stop_after=600)
    assert out is None
    assert saved and saved[-1].committed >= 600


def test_stop_after_on_a_boundary_is_captured_once():
    saved = []
    out = DataScalarSystem(_config()).run(build_program("compress"),
                                          limit=LIMIT, checkpoint_every=500,
                                          checkpoint_sink=saved.append,
                                          stop_after=1000)
    assert out is None
    assert [ckpt.meta["boundary"] for ckpt in saved] == [500, 1000]


def test_stop_after_at_or_below_resume_point_is_rejected():
    from repro.errors import SimulationError

    config = _config()
    program = build_program("compress")
    start = _checkpoints(config, every=1500)[0]
    assert start.meta["boundary"] == 1500
    for stop_after in (500, start.committed):
        saved = []
        with pytest.raises(SimulationError, match="stop_after"):
            DataScalarSystem(config).run(program, limit=LIMIT,
                                         resume_from=start,
                                         stop_after=stop_after,
                                         checkpoint_sink=saved.append)
        assert saved == []


def _baseline_systems():
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.experiments.config import traditional_config

    return {
        "datascalar": lambda: DataScalarSystem(_config()),
        "traditional": lambda: TraditionalSystem(traditional_config(4)),
        "perfect": PerfectSystem,
    }


@pytest.mark.parametrize("kind", ["datascalar", "traditional", "perfect"])
def test_resume_with_warmup_is_rejected(kind):
    from repro.errors import SimulationError

    make = _baseline_systems()[kind]
    program = build_program("compress")
    saved = []
    make().run(program, limit=LIMIT, checkpoint_every=900,
               checkpoint_sink=saved.append)
    with pytest.raises(SimulationError, match="warmup"):
        make().run(program, limit=LIMIT, resume_from=saved[0], warmup=300)


@pytest.mark.parametrize("kind", ["datascalar", "traditional", "perfect"])
def test_warmup_past_the_end_names_warmup(kind):
    from repro.errors import SimulationError

    make = _baseline_systems()[kind]
    with pytest.raises(SimulationError, match="warmup=2001 runs past"):
        make().run(build_program("compress"), limit=2000, warmup=2001)


# ----------------------------------------------------------------------
# The capture path: pickled snapshots, live edges left out.
# ----------------------------------------------------------------------
def test_live_pipeline_and_broadcaster_pickle_without_live_edges():
    """A mid-run pipeline fed by a generator-backed fan-out view, with
    hooks attached, pickles; exactly the live edges are dropped, and
    the live objects are untouched."""
    from repro.core.broadcast import Broadcaster
    from repro.cpu.pipeline import Pipeline
    from repro.baseline.perfect import PerfectMemory
    from repro.interconnect.medium import make_medium
    from repro.isa.fanout import fan_out
    from repro.isa.interpreter import Interpreter
    from repro.obs.tracer import EventTracer
    from repro.params import CPUConfig

    views = fan_out(Interpreter(build_program("compress")).trace(limit=500),
                    2)
    pipeline = Pipeline(CPUConfig(), PerfectMemory(), views[0])
    pipeline.attach_tracer(EventTracer(), 0)
    pipeline.attach_stage_accumulators(object())
    for cycle in range(50):
        pipeline.tick(cycle)
    assert pipeline.stats.committed and not pipeline.done
    assert pipeline._trace_queue is not None

    edges = {"_trace", "_trace_next", "_trace_queue", "_tracer",
             "_stage_accs"}
    state = pipeline.__getstate__()
    assert state.keys() == pipeline.__dict__.keys()
    assert {name for name in state
            if state[name] is not pipeline.__dict__[name]} == edges
    assert all(state[name] is None for name in edges)
    clone = pickle.loads(pickle.dumps(pipeline, pickle.HIGHEST_PROTOCOL))
    assert all(getattr(clone, name) is None for name in edges)
    assert clone.ruu.state_summary() == pipeline.ruu.state_summary()
    assert clone.stats.committed == pipeline.stats.committed
    assert pipeline._trace is views[0]

    config = _config()
    medium = make_medium(config.interconnect, config.bus, 2)
    delivered = []
    broadcaster = Broadcaster(0, medium, 2, 32,
                              lambda *args: delivered.append(args))
    broadcaster.attach_tracer(EventTracer())
    broadcaster.broadcast(10, 0x40)
    state = broadcaster.__getstate__()
    assert state.keys() == broadcaster.__dict__.keys()
    assert {name for name in state
            if state[name] is not broadcaster.__dict__[name]} == {"_deliver",
                                                                  "_tracer"}
    clone = pickle.loads(pickle.dumps(broadcaster))
    assert clone._deliver is None and clone._tracer is None
    assert clone.stats.sent == 1
    broadcaster.broadcast(20, 0x80)
    assert len(delivered) == 2


def test_resume_from_memory_and_from_pickle_match_straight_run():
    config = _config()
    program = build_program("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)
    ckpt = _checkpoints(config)[0]
    # The in-memory checkpoint is resumed twice: resuming must not
    # mutate it.
    for resume in (ckpt, ckpt, pickle.loads(pickle.dumps(ckpt))):
        resumed = DataScalarSystem(config).run(program, limit=LIMIT,
                                               resume_from=resume)
        assert result_fingerprint(resumed) == result_fingerprint(straight)


class _CountingTrace:
    """Test oracle: counts the records a consumer takes from a trace."""

    def __init__(self, trace):
        self._next = iter(trace).__next__
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        record = self._next()
        self.consumed += 1
        return record


def _gshare(config):
    import dataclasses

    node = config.node
    cpu = dataclasses.replace(node.cpu, branch_predictor="gshare")
    return dataclasses.replace(config,
                               node=dataclasses.replace(node, cpu=cpu))


@pytest.mark.parametrize("predictor", ["perfect", "gshare"])
@pytest.mark.parametrize("warmup", [0, 300])
@pytest.mark.parametrize("kind", ["datascalar", "traditional", "perfect"])
def test_frontend_position_matches_counting_oracle(kind, warmup, predictor,
                                                   monkeypatch):
    """Every checkpoint's ``consumed`` (derived from machine state) equals
    what a counting wrapper around each trace saw, at capture time —
    also after a resume, where the skipped-record base is re-derived."""
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.experiments.config import traditional_config
    from repro.isa.interpreter import Interpreter
    from repro.params import CPUConfig

    counters = []
    if kind == "datascalar":
        class System(DataScalarSystem):
            def _make_traces(self, program, limit):
                views = [_CountingTrace(view) for view in
                         super()._make_traces(program, limit)]
                counters[:] = views
                return views

        config = _config(4)
        if predictor == "gshare":
            config = _gshare(config)

        def make():
            return System(config)
    else:
        original = Interpreter.trace

        def counted(self, limit=None):
            counters[:] = [_CountingTrace(original(self, limit))]
            return counters[0]

        monkeypatch.setattr(Interpreter, "trace", counted)
        if kind == "traditional":
            config = traditional_config(4)
            if predictor == "gshare":
                config = _gshare(config)

            def make():
                return TraditionalSystem(config)
        else:
            cpu = CPUConfig(branch_predictor=predictor)

            def make():
                return PerfectSystem(cpu)

    saved = []
    checked = []

    def sink(ckpt):
        assert ckpt.consumed == [c.consumed for c in counters]
        checked.append(ckpt.meta["boundary"])
        saved.append(ckpt)

    program = build_program("gcc")
    kwargs = {"warmup": warmup} if warmup else {}
    straight = make().run(program, limit=LIMIT, checkpoint_every=300,
                          checkpoint_sink=sink, **kwargs)
    assert len(checked) >= 5
    assert checked[0] == 300 and saved[0].consumed[0] > warmup + 300
    checked.clear()
    resumed = make().run(program, limit=LIMIT, resume_from=saved[1],
                         checkpoint_every=300, checkpoint_sink=sink)
    assert checked and checked[0] == saved[2].meta["boundary"]
    assert result_fingerprint(resumed) == result_fingerprint(straight)
    if predictor == "gshare":
        stats = {"datascalar": lambda r: r.nodes[0].pipeline,
                 "traditional": lambda r: r.pipeline,
                 "perfect": lambda r: r}[kind](straight)
        assert stats.mispredicts > 0


# ----------------------------------------------------------------------
# ShardedRun: cold populates, warm resumes in parallel, both identical.
# ----------------------------------------------------------------------
def test_sharded_cold_then_warm_bit_identical(tmp_path):
    config = _config()
    program = build_program("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)

    cache = ResultCache(tmp_path)
    sharded = ShardedRun(3, cache=cache, jobs=2)
    cold = sharded.run("compress", limit=LIMIT, config=config)
    assert not sharded.last_warm
    assert sharded.last_boundaries == [667, 1334]
    counters = sharded.registry
    assert counters.counter("runner.checkpoint.saves").value == 2
    assert counters.counter("runner.checkpoint.misses").value == 2
    assert result_fingerprint(cold) == result_fingerprint(straight)

    warm = sharded.run("compress", limit=LIMIT, config=config)
    assert sharded.last_warm
    assert counters.counter("runner.checkpoint.hits").value == 2
    assert result_fingerprint(warm) == result_fingerprint(straight)


def test_sharded_single_shard_never_touches_cache(tmp_path):
    config = _config()
    cache = ResultCache(tmp_path)
    sharded = ShardedRun(1, cache=cache, jobs=1)
    result = sharded.run("compress", limit=LIMIT, config=config)
    assert not sharded.last_warm
    assert sharded.last_boundaries == []
    assert cache.stores == 0
    program = build_program("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)
    assert result_fingerprint(result) == result_fingerprint(straight)


def test_sharded_detects_stale_cache_entry(tmp_path):
    """A checkpoint stored under the wrong boundary's digest (stale or
    foreign entry) must fail the stitch verification loudly instead of
    silently producing a wrong figure."""
    config = _config()
    cache = ResultCache(tmp_path)
    sharded = ShardedRun(3, cache=cache, jobs=1)
    sharded.run("compress", limit=LIMIT, config=config)  # cold populate

    base = SweepPoint.make("datascalar", "compress", limit=LIMIT,
                           config=config)
    b1, b2 = sharded.last_boundaries
    d1 = checkpoint_digest(base, b1, cache.code_version)
    d2 = checkpoint_digest(base, b2, cache.code_version)
    hit, early = cache.load(base, digest=d1)
    assert hit
    # Poison: boundary-b2's slot now serves boundary-b1's state.
    assert cache.store(base, early, digest=d2)

    with pytest.raises(RunnerError, match="stale or foreign"):
        sharded.run("compress", limit=LIMIT, config=config)


# ----------------------------------------------------------------------
# Satellite: REPRO_CACHE_MAX_BYTES LRU pruning.
# ----------------------------------------------------------------------
def _point(tag):
    return SweepPoint.make("esp-schedule", None,
                           broadcast_latency=tag + 1)


def test_cache_lru_pruning_evicts_oldest(tmp_path):
    cache = ResultCache(tmp_path, code_version="t", max_bytes=1)
    # max_bytes=1: every store prunes everything but the newest entry.
    for tag in range(3):
        assert cache.store(_point(tag), {"payload": "x" * 64})
        time.sleep(0.01)  # distinct mtimes for deterministic LRU order
    assert cache.evictions == 2
    hit, _ = cache.load(_point(2))
    assert hit  # the just-stored entry is never evicted
    hit, _ = cache.load(_point(0))
    assert not hit


def test_cache_env_budget_and_hit_touch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "100000")
    cache = ResultCache(tmp_path, code_version="t")
    assert cache.max_bytes == 100_000
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
    assert ResultCache(tmp_path, code_version="t").max_bytes is None

    # A load refreshes mtime, so hot entries survive pruning (LRU, not
    # FIFO): store A then B, touch A via load, then set a budget that
    # forces exactly one eviction — B (now least-recently-used) goes,
    # A stays.
    cache = ResultCache(tmp_path, code_version="t")
    assert cache.store(_point(0), {"payload": "a" * 64})
    time.sleep(0.01)
    assert cache.store(_point(1), {"payload": "b" * 64})
    time.sleep(0.01)
    assert cache.load(_point(0))[0]  # touch A
    time.sleep(0.01)
    sizes = [path.stat().st_size for path in tmp_path.glob("*/*.pkl")]
    cache.max_bytes = sum(sizes)  # room for two entries, not three
    assert cache.store(_point(2), {"payload": "c" * 64})
    assert cache.load(_point(0))[0]
    assert not cache.load(_point(1))[0]


def test_runner_surfaces_eviction_counter(tmp_path):
    cache = ResultCache(tmp_path, code_version="t", max_bytes=1)
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run([_point(tag) for tag in range(3)])
    assert cache.evictions >= 2
    counter = runner.registry.counter("runner.cache.evictions")
    assert counter.value == cache.evictions


# ----------------------------------------------------------------------
# Satellite: ProgressLine ETA must ignore cached/replayed completions.
# ----------------------------------------------------------------------
def test_progress_eta_excludes_cached_points():
    line = ProgressLine(total=10, enabled=False)
    line._start -= 10.0  # pretend 10s have elapsed

    # Position arithmetic (the old fallback): 6 done of which 5 cached
    # looks like 1 executed / 4 remaining -> eta 40s.
    fallback = line.render(6, 5, 0)
    assert "eta 0:40" in fallback

    # True work-unit counts: 1 digest executed, 1 digest remaining
    # (the other 3 remaining positions are dedup copies) -> eta 10s.
    informed = line.render(6, 5, 0, executed=1, remaining=1)
    assert "eta 0:10" in informed

    # Everything so far came from cache/journal: no rate estimate at
    # all rather than an absurdly optimistic one.
    replayed = line.render(6, 6, 0, executed=0, remaining=4)
    assert "eta" not in replayed


def test_progress_eta_serial_sweep_uses_digest_counts(tmp_path, capsys):
    """End to end: a sweep with duplicate points passes unique-digest
    executed/remaining counts through update()."""
    seen = []

    class Spy(ProgressLine):
        def update(self, done, cached, running, slowest=None,
                   executed=None, remaining=None):
            seen.append((done, cached, executed, remaining))

    import repro.runner.engine as engine_mod
    original = engine_mod.ProgressLine
    engine_mod.ProgressLine = Spy
    try:
        runner = SweepRunner(jobs=1,
                             cache=ResultCache(tmp_path, code_version="t"))
        runner.run([_point(0), _point(0), _point(1)])
    finally:
        engine_mod.ProgressLine = original
    # Two unique digests executed; the dedup duplicate never counts as
    # an executed sample.
    assert seen[-1] == (3, 0, 2, 0)
    assert (2, 0, 1, 1) in seen


def test_sharded_warm_bit_identical_under_faults(tmp_path):
    """Sharding composes with seeded fault injection: the shards carry
    the fault layer's RNG, pending retransmits, and recovery ledger
    through the checkpoints."""
    import dataclasses

    from repro.params import FaultConfig
    from repro.workloads import build_program as _build

    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(datascalar_config(num_nodes=4),
                                 faults=faults)
    program = _build("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)
    assert straight.extra["faults"]["recovery"]["recovered"] > 0

    sharded = ShardedRun(3, cache=ResultCache(tmp_path), jobs=2)
    cold = sharded.run("compress", limit=LIMIT, config=config)
    warm = sharded.run("compress", limit=LIMIT, config=config)
    assert sharded.last_warm
    assert result_fingerprint(cold) == result_fingerprint(straight)
    assert result_fingerprint(warm) == result_fingerprint(straight)
    assert warm.extra["faults"] == straight.extra["faults"]
