"""Fast-forward must be invisible: bit-identical results vs. dense ticking.

The scheduler in :mod:`repro.core.system` skips cycle ranges that are
provably idle for every node and shares one functional interpreter
across all nodes (:mod:`repro.isa.fanout`).  Neither is allowed to
change a single reported number: these tests run the same workload with
``fast_forward`` on and off — the off runs also forced back onto
per-node interpreters, reproducing the original dense scheduler exactly
— across every interconnect medium and node count, and compare full
result snapshots.
"""

import dataclasses

import pytest

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.isa.interpreter import Interpreter
from repro.workloads import build_program

WORKLOADS = ["compress", "mgrid"]
MEDIA = ["bus", "ring", "optical"]
NODE_COUNTS = [1, 2, 4]
LIMIT = 2_500


class _DenseSystem(DataScalarSystem):
    """The pre-optimization scheduler: one interpreter per node (the
    ``_make_trace`` override disables the shared-trace fan-out) and, via
    ``fast_forward=False`` in its config, dense per-cycle ticking."""

    def _make_trace(self, program, node_id, limit):
        return Interpreter(program).trace(limit=limit)


def _snapshot(result):
    """Every externally-visible number in a :class:`DataScalarResult`."""
    nodes = []
    for node in result.nodes:
        stats = node.pipeline
        pipeline = {
            slot: getattr(stats, slot) for slot in stats.__slots__
        }
        node_fields = dataclasses.asdict(node)
        node_fields["pipeline"] = pipeline
        nodes.append(node_fields)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "bus_transactions": result.bus_transactions,
        "bus_payload_bytes": result.bus_payload_bytes,
        "bus_utilization": result.bus_utilization,
        "nodes": nodes,
    }


def _config(num_nodes, interconnect):
    return dataclasses.replace(
        datascalar_config(num_nodes=num_nodes), interconnect=interconnect)


@pytest.mark.parametrize("interconnect", MEDIA)
@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_forward_matches_dense(workload, num_nodes, interconnect):
    program = build_program(workload)

    fast_cfg = _config(num_nodes, interconnect)
    assert fast_cfg.fast_forward  # the default path under test
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)

    dense_cfg = dataclasses.replace(fast_cfg, fast_forward=False)
    dense = _DenseSystem(dense_cfg).run(program, limit=LIMIT)

    assert _snapshot(fast) == _snapshot(dense)


#: Store-bound kernels: most of their loads wait behind unissued
#: stores, so fast-forward parks them and sleeps (``Pipeline.next_event``)
#: where the other kernels never do.
STORE_BOUND = ["tomcatv", "applu"]


@pytest.mark.parametrize("workload", STORE_BOUND)
def test_parked_loads_match_dense(workload):
    program = build_program(workload)
    fast_cfg = _config(4, "bus")
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)
    dense = _DenseSystem(dataclasses.replace(
        fast_cfg, fast_forward=False)).run(program, limit=LIMIT)
    assert _snapshot(fast) == _snapshot(dense)


def test_parked_loads_match_dense_conservative_disambiguation():
    """Under conservative disambiguation a load parks on the oldest
    unissued earlier store, whatever its address."""
    program = build_program("tomcatv")
    base = _config(4, "bus")
    cpu = dataclasses.replace(base.node.cpu, oracle_disambiguation=False)
    fast_cfg = dataclasses.replace(
        base, node=dataclasses.replace(base.node, cpu=cpu))
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)
    dense = _DenseSystem(dataclasses.replace(
        fast_cfg, fast_forward=False)).run(program, limit=LIMIT)
    assert _snapshot(fast) == _snapshot(dense)


# ----------------------------------------------------------------------
# The issue walk: the fast tick walks the RUU's stalled buckets in place
# (Pipeline.tick), the staged tick through RUU.schedulable and
# RUU.requeue.  These rows run both on kernels and machine shapes whose
# loads or other classes fill their FU slots, comparing each node's LSQ
# counters and RUU occupancy as well as the result.
# ----------------------------------------------------------------------
@pytest.fixture
def built_pipelines(monkeypatch):
    """Every Pipeline constructed during the test, in order."""
    from repro.cpu.pipeline import Pipeline

    made = []
    init = Pipeline.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Pipeline, "__init__", recording_init)
    return made


def _run_observed(system, program, built, staged=False):
    """Result snapshot plus each node's final LSQ deferrals, forwards
    and RUU state; ``staged`` records spans, which drives
    ``Pipeline.tick_spanned``."""
    from repro.obs.spans import SpanRecorder, recording

    start = len(built)
    if staged:
        with recording(SpanRecorder()):
            result = system.run(program, limit=LIMIT)
    else:
        result = system.run(program, limit=LIMIT)
    pipelines = built[start:]
    assert pipelines and all((p._stage_accs is not None) == staged
                             for p in pipelines)
    return _snapshot(result), [
        (p.lsq.deferred, p.lsq.forwards, p.ruu.state_summary())
        for p in pipelines]


def _with_cpu(config, **changes):
    cpu = dataclasses.replace(config.node.cpu, **changes)
    return dataclasses.replace(
        config, node=dataclasses.replace(config.node, cpu=cpu))


@pytest.mark.parametrize("workload, oracle", [
    ("tomcatv", True), ("applu", True), ("hydro2d", True),
    ("tomcatv", False),
], ids=["tomcatv", "applu", "hydro2d", "tomcatv-conservative"])
def test_staged_tick_matches_fast_tick_on_blocked_classes(
        workload, oracle, built_pipelines):
    program = build_program(workload)
    config = _with_cpu(_config(4, "bus"), oracle_disambiguation=oracle)
    fast = _run_observed(DataScalarSystem(config), program,
                         built_pipelines)
    staged = _run_observed(DataScalarSystem(config), program,
                           built_pipelines, staged=True)
    assert staged == fast


#: An issue-starved core: every FU class the kernels use can fill, and
#: the 4-wide issue limit stops walks with entries still queued.
NARROW_FU = {"AGEN": 2, "IALU": 2, "FADD": 1, "FMULT": 1}


@pytest.mark.parametrize("num_nodes", [2, 4])
@pytest.mark.parametrize("workload", ["tomcatv", "mgrid", "gcc"])
def test_narrow_issue_matches_dense_selective_and_staged(
        workload, num_nodes, built_pipelines):
    program = build_program(workload)
    base = _config(num_nodes, "bus")
    config = _with_cpu(base, issue_width=4,
                       fu_counts={**base.node.cpu.fu_counts, **NARROW_FU})
    selective = _run_observed(DataScalarSystem(config), program,
                              built_pipelines)
    dense = _run_observed(
        _DenseSystem(dataclasses.replace(config, fast_forward=False)),
        program, built_pipelines)
    staged = _run_observed(DataScalarSystem(config), program,
                           built_pipelines, staged=True)
    assert selective == dense
    assert staged == selective


def test_observer_forces_dense_and_sees_every_cycle():
    """An installed observer disables skipping: it must be called for
    cycles 0..N-1 with no gaps, and the result still matches."""
    program = build_program("compress")
    config = _config(2, "bus")
    seen = []
    observed = DataScalarSystem(config).run(
        program, limit=LIMIT,
        observer=lambda cycle, pipelines, nodes, medium: seen.append(cycle))
    assert seen == list(range(observed.cycles))
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    assert _snapshot(observed) == _snapshot(plain)


@pytest.mark.parametrize("interconnect", ["bus", "ring"])
def test_fast_forward_matches_dense_under_faults(interconnect):
    """The faulty medium adds pending recovery timers and BSHR wait
    deadlines; ``next_event`` must fold them in so skipping stays
    invisible — including the seeded fault schedule itself."""
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    fast_cfg = dataclasses.replace(_config(4, interconnect), faults=faults)
    assert fast_cfg.fast_forward
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)

    dense_cfg = dataclasses.replace(fast_cfg, fast_forward=False)
    dense = _DenseSystem(dense_cfg).run(program, limit=LIMIT)

    assert _snapshot(fast) == _snapshot(dense)
    assert fast.extra["faults"] == dense.extra["faults"]
    assert fast.extra["faults"]["recovery"]["recovered"] > 0


@pytest.mark.parametrize("num_nodes", [2, 4])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_bit_identical(workload, num_nodes):
    """Tracing is purely observational: a fully-traced fast-forwarded
    run must report exactly the numbers of the untraced run (and of the
    dense untraced run, by transitivity with the tests above)."""
    from repro.obs import EventTracer, SamplingTracer

    program = build_program(workload)
    config = _config(num_nodes, "bus")
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    traced = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=EventTracer())
    assert _snapshot(traced) == _snapshot(plain)

    # A scheduled tracer bounds idle-skips to its sample cycles; the
    # skipped-vs-ticked split changes, the numbers must not.
    sampled = DataScalarSystem(config).run(program, limit=LIMIT,
                                           tracer=SamplingTracer(128))
    assert _snapshot(sampled) == _snapshot(plain)


def test_tracing_is_bit_identical_under_faults():
    """The faulty row: tracing must not perturb the seeded fault
    schedule, the recovery ledger, or the cycle count."""
    from repro.obs import EventKind, EventTracer
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(_config(4, "bus"), faults=faults)
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    tracer = EventTracer()
    traced = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=tracer)
    assert _snapshot(traced) == _snapshot(plain)
    assert traced.extra["faults"] == plain.extra["faults"]
    injected = plain.extra["faults"]["injected"]["injected"]
    recover_events = tracer.counts.get(EventKind.FAULT_RECOVER, 0)
    assert recover_events == injected > 0


def test_fast_forward_flag_disables_skipping():
    """``fast_forward=False`` alone (shared fan-out still active) must
    also be bit-identical — the two optimizations are independent."""
    program = build_program("mgrid")
    config = _config(4, "bus")
    fast = DataScalarSystem(config).run(program, limit=LIMIT)
    dense = DataScalarSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=LIMIT)
    assert _snapshot(fast) == _snapshot(dense)


# ----------------------------------------------------------------------
# The codegen rows: the generated-code front end (engine="codegen",
# repro.isa.codegen) must be exactly as invisible as fast-forward —
# against the interpreter, the dense scheduler, faults, and tracing.
# ----------------------------------------------------------------------
def _engine(config, engine):
    return dataclasses.replace(config, engine=engine)


@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_interpreter(workload, num_nodes):
    """Same fast-forwarded system, only the front end differs."""
    program = build_program(workload)
    config = _config(num_nodes, "bus")
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    interpreted = DataScalarSystem(
        _engine(config, "interpreter")).run(program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(interpreted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_dense(workload):
    """codegen + fast-forward vs the original dense per-node
    interpreters: the two optimization layers compose invisibly."""
    program = build_program(workload)
    config = _config(2, "bus")
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    dense = _DenseSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(dense)


def test_codegen_matches_interpreter_under_faults():
    """The faulty row: the engine choice must not perturb the seeded
    fault schedule or the recovery ledger."""
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(_config(4, "bus"), faults=faults)
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    interpreted = DataScalarSystem(
        _engine(config, "interpreter")).run(program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(interpreted)
    assert generated.extra["faults"] == interpreted.extra["faults"]
    assert generated.extra["faults"]["recovery"]["recovered"] > 0


def test_codegen_tracing_is_bit_identical():
    """The traced row: tracing a codegen-fed run reports exactly the
    untraced interpreter-fed numbers."""
    from repro.obs import EventTracer

    program = build_program("mgrid")
    config = _config(2, "bus")
    traced = DataScalarSystem(_engine(config, "codegen")).run(
        program, limit=LIMIT, tracer=EventTracer())
    plain = DataScalarSystem(_engine(config, "interpreter")).run(
        program, limit=LIMIT)
    assert _snapshot(traced) == _snapshot(plain)


# ----------------------------------------------------------------------
# The checkpoint rows: save at a (seeded-random) committed-instruction
# boundary -> serialize -> restore in a fresh system -> continue, and
# the result must be bit-identical to the straight-through run — over
# engines {interpreter, codegen}, clean and faulty transport, and the
# fast-forward vs dense schedulers (repro.checkpoint).
# ----------------------------------------------------------------------
import pickle
import random


def _fault_config():
    from repro.params import FaultConfig

    return FaultConfig(seed=17, receiver_drop_prob=1e-2,
                       corrupt_prob=5e-3, jitter_prob=2e-2,
                       stall_prob=5e-3)


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["fast-forward", "dense"])
@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faulty"])
@pytest.mark.parametrize("engine", ["interpreter", "codegen"])
def test_checkpoint_restore_matches_straight_through(engine, faulty,
                                                     fast_forward):
    program = build_program("compress")
    config = dataclasses.replace(_config(4, "bus"), engine=engine,
                                 fast_forward=fast_forward)
    if faulty:
        config = dataclasses.replace(config, faults=_fault_config())

    straight = DataScalarSystem(config).run(program, limit=LIMIT)

    # A seeded-random save point (different per row, stable per run of
    # the suite) — the restore path must work from *any* boundary, not
    # just round numbers.
    rng = random.Random(hash((engine, faulty, fast_forward)) & 0xFFFF)
    boundary = rng.randrange(200, LIMIT - 200)
    saved = []
    checkpointed = DataScalarSystem(config).run(
        program, limit=LIMIT, checkpoint_every=boundary,
        checkpoint_sink=saved.append)
    # Emitting checkpoints must itself be invisible.
    assert _snapshot(checkpointed) == _snapshot(straight)
    assert saved and saved[0].committed >= boundary

    # Serialize -> restore in a *fresh* system -> continue.
    blob = pickle.dumps(saved[0])
    resumed = DataScalarSystem(config).run(
        program, limit=LIMIT, resume_from=pickle.loads(blob))
    assert _snapshot(resumed) == _snapshot(straight)
    if faulty:
        assert resumed.extra["faults"] == straight.extra["faults"]
        assert straight.extra["faults"]["recovery"]["recovered"] > 0


def test_checkpoint_restore_baselines_match_straight_through():
    """The traditional and perfect baselines share the checkpoint
    protocol (kind-tagged snapshots, front-end replay)."""
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.experiments.config import traditional_config
    from repro.runner.digest import result_fingerprint

    program = build_program("compress")

    tconfig = traditional_config(denom=4)
    straight = TraditionalSystem(tconfig).run(program, limit=LIMIT)
    saved = []
    TraditionalSystem(tconfig).run(program, limit=LIMIT,
                                   checkpoint_every=900,
                                   checkpoint_sink=saved.append)
    resumed = TraditionalSystem(tconfig).run(
        program, limit=LIMIT,
        resume_from=pickle.loads(pickle.dumps(saved[0])))
    assert result_fingerprint(resumed) == result_fingerprint(straight)

    pstraight = PerfectSystem().run(program, limit=LIMIT)
    saved = []
    PerfectSystem().run(program, limit=LIMIT, checkpoint_every=900,
                        checkpoint_sink=saved.append)
    presumed = PerfectSystem().run(
        program, limit=LIMIT,
        resume_from=pickle.loads(pickle.dumps(saved[0])))
    assert result_fingerprint(presumed) == result_fingerprint(pstraight)
