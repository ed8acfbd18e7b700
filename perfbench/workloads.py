"""The benchmark's workloads.

Each workload has a kernel pool.  The seed shuffles the pool into
rounds: a run is a whole number of rounds, so every kernel of the pool
runs equally often whatever the seed, and each op gets the kernel its
round's shuffle gives it.  One op is one call sequence into the public
entry points (``DataScalarSystem.run`` or ``SweepRunner.run``); it
returns the host seconds of each timed part plus the simulated results,
which the caller checks.

Every point starts with cold modelled caches and simulates ``LIMIT``
dynamic instructions on the figure7 configuration (4 core cycles per
bus cycle).
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

#: Dynamic instructions per simulated point.  At 4000 the bus-bound
#: kernels already saturate the bus (utilization >= 0.98) and tick only
#: a quarter of node-cycles, as at 16000, while an op stays short enough
#: for a run to hold dozens of them.
LIMIT = 4000

#: Worker processes of the sweep's own pool.
JOBS = min(2, len(os.sched_getaffinity(0)))

BUS_POOL = ("compress", "wave5", "vortex", "gcc", "hydro2d")
ISSUE_POOL = ("applu", "tomcatv")
SWEEP_POOL = ("compress", "go", "wave5", "mgrid", "turb3d")


@dataclass
class OpResult:
    """What one op measured and produced."""

    #: Wall seconds of the whole op, and the same scaled to the host's
    #: nominal speed (see ``calibrate.py``); the metrics use the latter.
    wall_seconds: float = 0.0
    seconds: float = 0.0
    #: Program instructions the op simulated (cache hits excluded).
    instructions: int = 0
    #: Results of the op's DataScalar points, the ones ``sim_ipc`` and
    #: the exact core/interconnect counts are taken over.
    ds_results: list = field(default_factory=list)
    #: label -> result, compared against the first op with the label.
    checked: dict = field(default_factory=dict)
    #: label -> other exact numbers, compared the same way.
    exact: dict = field(default_factory=dict)
    #: Pairs ``(what, a, b)`` that must be bit-identical within the op.
    equal: list = field(default_factory=list)
    #: Named parts of the op, in wall seconds.
    parts: dict = field(default_factory=dict)
    #: Node count -> wall seconds of that point (bus-bound ops).
    node_seconds: dict = field(default_factory=dict)
    #: Exact checkpoint counts (captures, pickled bytes).
    captures: int = 0
    checkpoint_bytes: int = 0
    #: Result-cache lookups that hit and missed (sweep ops only).
    cache_hits: int = 0
    cache_misses: int = 0


class Workload:
    """A kernel pool and the op run on each pick."""

    name = ""
    pool: "tuple[str, ...]" = ()
    #: Ops run on a process pool forked from the benchmark process.
    forks_pool = False

    def rounds(self, seed: int):
        """Endless seeded rounds; each round is a list of op arguments
        covering the pool once, in a seeded order."""
        rng = random.Random(seed)
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield self.round_ops(order)

    def round_ops(self, order) -> list:
        return [(kernel,) for kernel in order]

    def setup(self, scratch: str) -> float:
        """Build every pool kernel and warm the lazy parts (front-end
        compile, imports) with a tiny run; returns build seconds."""
        from repro.workloads import build_program

        start = time.perf_counter()
        self.programs = {name: build_program(name) for name in self.pool}
        build_s = time.perf_counter() - start
        self.warm_up(scratch)
        return build_s

    def warm_up(self, scratch: str) -> None:
        from repro.core import DataScalarSystem
        from repro.experiments.config import datascalar_config

        for program in self.programs.values():
            DataScalarSystem(datascalar_config(2)).run(program, limit=200)

    def op(self, scratch: str, kernel: str, record) -> OpResult:
        raise NotImplementedError


def committed(result) -> int:
    """Committed program instructions of any point's result (the
    perfect baseline returns bare pipeline stats)."""
    return getattr(result, "instructions", None) or result.committed


def _run_point(num_nodes: int, program):
    from repro.core import DataScalarSystem
    from repro.experiments.config import datascalar_config

    return DataScalarSystem(datascalar_config(num_nodes)).run(program,
                                                              limit=LIMIT)


class BusBound(Workload):
    name = "ds-bus-bound"
    pool = BUS_POOL
    node_counts = (2, 4, 8)

    def op(self, scratch, kernel, record):
        program = self.programs[kernel]
        out = OpResult()
        for nodes in self.node_counts:
            start = time.perf_counter()
            result = _run_point(nodes, program)
            out.node_seconds[nodes] = time.perf_counter() - start
            out.instructions += result.instructions
            out.ds_results.append(result)
            out.checked[f"{kernel}/ds{nodes}"] = result
        return out


class IssueBound(Workload):
    name = "ds-issue-bound"
    pool = ISSUE_POOL

    def op(self, scratch, kernel, record):
        result = _run_point(4, self.programs[kernel])
        return OpResult(instructions=result.instructions,
                        ds_results=[result],
                        checked={f"{kernel}/ds4": result})


class CheckpointResume(Workload):
    name = "ckpt-resume"
    pool = BUS_POOL

    def warm_up(self, scratch):
        super().warm_up(scratch)
        from repro.core import DataScalarSystem
        from repro.experiments.config import datascalar_config

        system = DataScalarSystem(datascalar_config(2))
        program = self.programs[self.pool[0]]
        kept = []
        system.run(program, limit=200, checkpoint_every=100,
                   checkpoint_sink=kept.append)
        system.run(program, limit=200,
                   resume_from=pickle.loads(pickle.dumps(kept[0])))

    def op(self, scratch, kernel, record):
        from repro.core import DataScalarSystem
        from repro.experiments.config import datascalar_config

        program = self.programs[kernel]
        system = DataScalarSystem(datascalar_config(4))
        out = OpResult()
        start = time.perf_counter()
        plain = system.run(program, limit=LIMIT)
        out.parts["plain"] = time.perf_counter() - start

        blobs = {}

        def pickle_checkpoint(checkpoint):
            # Pickled as the result cache pickles what it stores.
            blobs[checkpoint.meta["boundary"]] = pickle.dumps(
                checkpoint, protocol=pickle.HIGHEST_PROTOCOL)

        def sink(checkpoint):
            record("checkpoint.pickle", pickle_checkpoint, checkpoint)

        start = time.perf_counter()
        checkpointed = system.run(program, limit=LIMIT,
                                  checkpoint_every=LIMIT // 4,
                                  checkpoint_sink=sink)
        out.parts["checkpointed"] = time.perf_counter() - start

        start = time.perf_counter()
        middle = record("checkpoint.pickle", pickle.loads, blobs[LIMIT // 2])
        resumed = system.run(program, limit=LIMIT, resume_from=middle)
        out.parts["resume"] = time.perf_counter() - start

        out.instructions = (plain.instructions + checkpointed.instructions
                            + resumed.instructions - middle.committed)
        out.ds_results.append(plain)
        out.checked[f"{kernel}/ds4"] = plain
        out.equal += [(f"{kernel} checkpointed run", plain, checkpointed),
                      (f"{kernel} resumed run", plain, resumed)]
        out.captures = len(blobs)
        out.checkpoint_bytes = sum(len(blob) for blob in blobs.values())
        out.exact[f"{kernel}/checkpoints"] = [out.captures,
                                              out.checkpoint_bytes]
        return out


class Figure7Sweep(Workload):
    """One op sweeps the five Figure 7 points of every pool kernel, in
    the seed's kernel order, on an empty cache and then again on the
    full one.  Each op covers the whole pool, so no seed weighs the
    kernels differently."""

    name = "fig7-sweep"
    pool = SWEEP_POOL
    forks_pool = True

    def round_ops(self, order):
        return [(tuple(order),)]

    def warm_up(self, scratch):
        # Tiny sweeps: in-process first, so the baselines are imported
        # before the pool forks, then on the pool.
        self.op(scratch, self.pool, None, jobs=1, limit=200)
        self.op(scratch, self.pool, None, limit=200)

    def op(self, scratch, kernels, record, jobs=None, limit=LIMIT):
        from repro.experiments.figure7 import benchmark_points
        from repro.runner import ResultCache, SweepRunner

        points = [point for kernel in kernels
                  for point in benchmark_points(kernel, limit=limit)]
        root = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        try:
            cache = ResultCache(root)
            runner = SweepRunner(jobs=jobs or JOBS, cache=cache)
            start = time.perf_counter()
            cold = runner.run(points)
            middle = time.perf_counter()
            warm = runner.run(points)
            end = time.perf_counter()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        out = OpResult(parts={"cold": middle - start, "warm": end - middle},
                       cache_hits=cache.hits, cache_misses=cache.misses)
        for point, result, again in zip(points, cold, warm):
            out.instructions += committed(result)
            if point.kind == "datascalar":
                out.ds_results.append(result)
            out.checked[point.label] = result
            out.equal.append((f"{point.label} warm vs cold", result, again))
        return out


WORKLOADS = {workload.name: workload for workload in
             (BusBound(), IssueBound(), Figure7Sweep(), CheckpointResume())}
