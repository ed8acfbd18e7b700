#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the DataScalar simulator.

    python3 perfbench/run.py --workload ds-bus-bound --seed 1 --seconds 20 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
One client drives the simulator as a closed loop: each op starts when
the last one ends.  ``--trace 0`` times the ops and prints the
end-to-end metrics; ``--trace 1`` times an untraced pass, then repeats
the same rounds with layer wrappers installed (see ``tracing.py``) and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Host time is wall time of this process (``time.perf_counter``), scaled
to the host's nominal speed by a reference kernel timed around every op
(``calibrate.py``); the wall-clock figures are printed beside them.
Simulated cycles and IPC are the modelled machine's; the model has no
hardware reference, so no error figure is given.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes: per-run scratch, Chrome traces and
#: the exact counts remembered across runs of the same code.
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 1
#: Fresh processes timed from spawn to the first op; setup_s is their
#: median.
SETUP_PROBES = 7
#: Samples that must lie above the tail percentile op_s_tail reports.
TAIL_ABOVE = 10

END_TO_END_UNITS = {
    "setup_s": "s", "sim_ips": "instr/s", "op_s_p50": "s", "op_s_tail": "s",
    "fail_frac": "ratio", "sim_ipc": "instr/cycle", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_metrics():
    """``(name, unit)`` of the end-to-end and the per-layer metrics
    BENCHMARK.json declares, in its order."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


# ----------------------------------------------------------------------
# Running ops.
# ----------------------------------------------------------------------
def fingerprint(value) -> str:
    from repro.runner import result_fingerprint

    return json.dumps(result_fingerprint(value), sort_keys=True)


class Checker:
    """Compares every op's results with the first op of the same label,
    and the pairs an op declares equal (resumed = plain, warm = cold)."""

    def __init__(self):
        self.reference: "dict[str, str]" = {}
        self.counts: "dict[str, dict]" = {}

    def problems(self, out) -> "list[str]":
        from workloads import LIMIT, committed

        found = []
        for label, result in out.checked.items():
            if committed(result) != LIMIT:
                found.append(f"{label}: committed {committed(result)} "
                             f"instructions, expected {LIMIT}")
            found += self._repeats(label, fingerprint(result))
        for label, value in out.exact.items():
            found += self._repeats(label, json.dumps(value))
        for what, first, second in out.equal:
            if fingerprint(first) != fingerprint(second):
                found.append(f"{what}: results differ")
        return found

    def _repeats(self, label: str, digest: str) -> "list[str]":
        if self.reference.setdefault(label, digest) != digest:
            return [f"{label}: differs from the first op's"]
        return []

    def same_counts(self, key: str, counts: dict) -> "list[str]":
        """Exact per-op counters must repeat for every op of ``key``."""
        first = self.counts.setdefault(key, counts)
        return [f"{key}: {name} = {counts.get(name)} here, "
                f"{first.get(name)} on the first op"
                for name in sorted(set(first) | set(counts))
                if first.get(name) != counts.get(name)]

    def digest(self) -> str:
        blob = json.dumps(self.reference, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Pass:
    """The ops of one timed pass, all whole rounds."""

    def __init__(self, label: str):
        self.label = label
        self.ops = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        #: Each round's op results, and the ops in a round.
        self.round_results = []
        self.ops_per_round = 1

    def seconds_per_round(self) -> float:
        return sum(out.seconds for out in self.ops) / self.rounds

    def scale(self) -> float:
        """Calibrated over wall seconds, across the pass."""
        wall = sum(out.wall_seconds for out in self.ops)
        return sum(out.seconds for out in self.ops) / wall if wall else 1.0


def run_pass(label, workload, rounds, scratch, checker, *, seconds=None,
             max_rounds=None, tracer=None, op_kwargs=None):
    """Run whole rounds until ``seconds`` have passed or ``max_rounds``
    are done; every op is timed, calibrated, checked, and counted."""
    from calibrate import Calibrator

    op = functools.partial(workload.op, **(op_kwargs or {}))
    if tracer is not None:
        record = tracer.record
    else:
        def record(name, fn, *args):
            return fn(*args)
    result = Pass(label)
    deadline = time.perf_counter() + (seconds or 0.0)
    calibrator = Calibrator()
    while True:
        ops = next(rounds)
        result.ops_per_round = len(ops)
        done = len(result.ops)
        for args in ops:
            run_op(result, op, args, scratch, record, tracer, checker,
                   calibrator)
        result.round_results.append(result.ops[done:])
        result.rounds += 1
        if max_rounds is not None:
            if result.rounds >= max_rounds:
                break
        elif time.perf_counter() >= deadline:
            break
    return result


def run_op(result, op, args, scratch, record, tracer, checker, calibrator):
    result.attempted += 1
    key = "+".join(sorted(args[0])) if isinstance(args[0], tuple) else args[0]
    before = tracer.snapshot() if tracer is not None else None
    start = time.perf_counter()
    try:
        if tracer is not None:
            out = tracer.op(op, scratch, *args, record)
        else:
            out = op(scratch, *args, record)
    except Exception:
        calibrator.factor()
        result.failed += 1
        print(f"[{result.label}] op {key} raised:", file=sys.stderr)
        traceback.print_exc()
        return
    out.wall_seconds = time.perf_counter() - start
    out.seconds = out.wall_seconds * calibrator.factor()
    out.key = key
    found = checker.problems(out)
    if tracer is not None:
        after = tracer.snapshot()
        found += checker.same_counts(
            f"{result.label}/{key}",
            {name: after[name] - before.get(name, 0) for name in after})
    if found:
        result.failed += 1
        for problem in found:
            print(f"[{result.label}] MISMATCH {problem}", file=sys.stderr)
    result.ops.append(out)


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------
def probe_setup(workload_name: str, seed: int) -> "tuple[float, float]":
    """Wall and calibrated seconds from spawning a fresh interpreter until
    it has done the whole set-up and could start its first op."""
    from calibrate import Calibrator

    calibrator = Calibrator()
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
    wall = ready - start
    return wall, wall * calibrator.factor()


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def tail(values):
    """``(value, percentile, samples above)`` at the highest percentile
    that still has TAIL_ABOVE samples above it (the maximum when there
    are too few samples)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_ABOVE
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_ABOVE


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ds_totals(ops) -> dict:
    """Exact sums over the ops' DataScalar results."""
    totals = dict.fromkeys(
        ("instructions", "cycles", "broadcasts", "late", "waits", "found",
         "false_hits", "false_misses", "transactions", "payload_bytes"), 0)
    busy = 0.0
    for out in ops:
        for result in out.ds_results:
            totals["instructions"] += result.instructions
            totals["cycles"] += result.cycles
            totals["transactions"] += result.bus_transactions
            totals["payload_bytes"] += result.bus_payload_bytes
            busy += result.bus_utilization * result.cycles
            for node in result.nodes:
                totals["broadcasts"] += node.broadcasts_sent
                totals["late"] += node.late_broadcasts
                totals["waits"] += node.bshr_waits
                totals["found"] += node.bshr_found
                totals["false_hits"] += node.false_hits
                totals["false_misses"] += node.false_misses
    totals["utilization"] = busy / totals["cycles"] if totals["cycles"] else 0
    return totals


def timings(timed: Pass, attr: str) -> dict:
    """sim_ips, op_s_p50 and op_s_tail over the ops' ``attr`` seconds."""
    seconds = [getattr(out, attr) for out in timed.ops] or [float("inf")]
    rounds = [sum(getattr(out, attr) for out in ops)
              for ops in timed.round_results]
    value, percentile, above = tail(seconds)
    return {
        "sim_ips": sum(out.instructions for out in timed.ops) / sum(seconds),
        # A round runs every pool kernel once, so rounds are alike
        # whatever the seed; single ops are not.
        "op_s_p50": statistics.median(rounds) / timed.ops_per_round,
        "op_s_tail": value,
        "tail": f"p{percentile:.1f} of {len(timed.ops)} ops, {above} above",
    }


def end_to_end(timed: Pass, setup_samples) -> dict:
    """The end-to-end metrics, calibrated, and a note per metric with its
    wall-clock figure or how it was taken."""
    totals = ds_totals(timed.ops)
    scaled = timings(timed, "seconds")
    wall = timings(timed, "wall_seconds")
    metrics = {
        "setup_s": statistics.median(c for _, c in setup_samples),
        "sim_ips": scaled["sim_ips"],
        "op_s_p50": scaled["op_s_p50"],
        "op_s_tail": scaled["op_s_tail"],
        "fail_frac": timed.failed / timed.attempted,
        "sim_ipc": totals["instructions"] / max(totals["cycles"], 1),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes; wall "
                   f"{statistics.median(w for w, _ in setup_samples):.6g}",
        "sim_ips": f"wall {wall['sim_ips']:.6g}",
        "op_s_p50": f"median of {timed.rounds} rounds of {timed.ops_per_round} "
                    f"ops; wall {wall['op_s_p50']:.6g}",
        "op_s_tail": f"{scaled['tail']}; wall {wall['op_s_tail']:.6g}",
        "sim_ipc": f"{totals['instructions']} instr / "
                   f"{totals['cycles']} cycles",
    }
    return metrics, notes


def node_cost(ops) -> float:
    """Median over ops of the least-squares slope of point seconds
    against node count (0 when no op varies the node count)."""
    slopes = []
    for out in ops:
        factor = out.seconds / out.wall_seconds
        points = [(nodes, secs * factor)
                  for nodes, secs in out.node_seconds.items()]
        if len(points) < 2:
            continue
        mean_x = statistics.fmean(x for x, _ in points)
        mean_y = statistics.fmean(y for _, y in points)
        slopes.append(sum((x - mean_x) * (y - mean_y) for x, y in points)
                      / sum((x - mean_x) ** 2 for x, _ in points))
    return statistics.median(slopes) if slopes else 0.0


def per_layer(untraced: Pass, traced: Pass, layers, pool_side, build_s):
    """Per-layer metrics, per round.  ``layers`` traced every layer over
    ``traced`` (for the sweep: at jobs=1); ``pool_side`` is ``(pass,
    tracer)`` of the sweep traced at jobs=J in this process only, or None."""
    pool_pass, pool_tracer = pool_side or (traced, layers)
    counts = layers.counts
    rounds = traced.rounds
    # Layer seconds are calibrated with their pass's overall factor.
    scale = traced.scale() / rounds
    pool_scale = pool_pass.scale() / pool_pass.rounds

    def self_s(name):
        return layers.self_s(name) * scale

    def total_s(name):
        return layers.total_s(name) * scale

    def exact_sum(attr):
        return sum(getattr(out, attr) for out in untraced.ops) / untraced.rounds

    def parts(name):
        return [out.parts[name] * out.seconds / out.wall_seconds
                for out in untraced.ops if name in out.parts]

    totals = ds_totals(untraced.ops)
    plain, checkpointed, warm = (parts("plain"), parts("checkpointed"),
                                 parts("warm"))
    return {
        "workloads.build_s": build_s,
        "isa.records": counts["isa.records"] / rounds,
        "isa.frontend_s": self_s("isa.frontend"),
        "cpu.ticks": counts["cpu.ds_ticks"] / rounds,
        "cpu.skip_ratio": (counts["cpu.ds_ticks"] / counts["cpu.ds_node_cycles"]
                           if counts["cpu.ds_node_cycles"] else 0.0),
        "cpu.tick_self_s": self_s("cpu.tick"),
        "cpu.requeues": counts["cpu.requeues"] / rounds,
        "cpu.lsq_forward_scans": counts["cpu.lsq_forward_scans"] / rounds,
        "cpu.dispatches": layers.calls("cpu.dispatch") / rounds,
        "cpu.dispatch_s": self_s("cpu.dispatch"),
        "memory.load_issue_s": self_s("memory.load_issue"),
        "memory.commit_s": self_s("memory.commit"),
        "memory.ifetch_s": self_s("memory.ifetch"),
        "memory.dcache_misses": counts["memory.dcache_misses"] / rounds,
        "core.sched_self_s": self_s("core.run"),
        "core.point_setup_s": self_s("core.point_setup"),
        "core.collect_s": self_s("core.collect"),
        "core.node_cost_s": node_cost(untraced.ops),
        "core.bshr_s": self_s("core.bshr"),
        "core.broadcasts": totals["broadcasts"] / untraced.rounds,
        "core.late_broadcast_frac": (totals["late"] / totals["broadcasts"]
                                     if totals["broadcasts"] else 0.0),
        "core.bshr_found_frac": (
            totals["found"] / (totals["waits"] + totals["found"])
            if totals["waits"] + totals["found"] else 0.0),
        "core.false_hits": totals["false_hits"] / untraced.rounds,
        "core.false_misses": totals["false_misses"] / untraced.rounds,
        "interconnect.transactions": totals["transactions"] / untraced.rounds,
        "interconnect.payload_bytes": (totals["payload_bytes"]
                                       / untraced.rounds),
        "interconnect.utilization": totals["utilization"],
        "interconnect.send_s": self_s("interconnect.send"),
        "baseline.perfect_s": total_s("baseline.perfect"),
        "baseline.traditional_s": total_s("baseline.traditional"),
        "runner.cache_store_s": (pool_tracer.total_s("runner.cache_store")
                                 * pool_scale),
        "runner.cache_load_s": (pool_tracer.total_s("runner.cache_load")
                                * pool_scale),
        "runner.cache_hits": exact_sum("cache_hits"),
        "runner.cache_misses": exact_sum("cache_misses"),
        "runner.warm_pass_s": statistics.median(warm) if warm else 0.0,
        "runner.pool_start_s": (pool_tracer.total_s("runner.pool_start")
                                * pool_scale),
        "checkpoint.captures": exact_sum("captures"),
        "checkpoint.bytes": exact_sum("checkpoint_bytes"),
        "checkpoint.capture_s": total_s("checkpoint.capture"),
        "checkpoint.restore_s": (total_s("checkpoint.materialize")
                                 + total_s("checkpoint.replay")),
        "checkpoint.overhead_frac": (sum(checkpointed) / sum(plain) - 1.0
                                     if plain else 0.0),
        "trace.overhead_frac": (pool_pass.seconds_per_round()
                                / untraced.seconds_per_round() - 1.0),
        "trace.unattributed_frac": (layers.self_s("bench.op")
                                    / layers.total_s("bench.op")),
    }


def exact(value, unit: str):
    """Counts print as integers when they are whole."""
    if unit.split("/")[0] in ("count", "byte") and float(value).is_integer():
        return int(value)
    return value


def layer_table(tracer, rounds) -> "list[str]":
    """Self seconds per round of every layer, plus the unattributed
    part; they add up to the traced op time."""
    total = tracer.total_s("bench.op")
    lines = [f"  {'layer':28s} {'wall self s':>14s} {'calls/round':>14s}"]
    summed = 0.0
    for name, (calls, _, self_s) in sorted(tracer.layers.items(),
                                            key=lambda item: -item[1][2]):
        summed += self_s
        label = "(unattributed: op self)" if name == "bench.op" else name
        lines.append(f"  {label:28s} {self_s / rounds:14.6f} "
                     f"{calls / rounds:14.1f}")
    lines.append(f"  {'sum of self times':28s} {summed / rounds:14.6f}")
    lines.append(f"  {'traced op time':28s} {total / rounds:14.6f}")
    if abs(summed - total) > 1e-6 * max(total, 1e-9):
        lines.append("  WARNING: self times do not add up to the op time")
    return lines


# ----------------------------------------------------------------------
# Exact counts remembered across runs of the same code.
# ----------------------------------------------------------------------
def remember_counts(workload_name: str, checker: Checker) -> "list[str]":
    """Compare this run's exact results and counts with those an earlier
    run of the same code recorded, then record this run's."""
    from repro.runner import code_version

    path = STATE / "counts.json"
    try:
        with open(path) as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    mine = {label: hashlib.sha256(digest.encode()).hexdigest()
            for label, digest in checker.reference.items()}
    mine.update({f"counts:{key}": counts
                 for key, counts in checker.counts.items()})
    entry = known.setdefault(code_version(), {}).setdefault(workload_name, {})
    problems = [f"{key}: differs from an earlier run of the same code"
                for key, value in mine.items()
                if key in entry and entry[key] != value]
    entry.update(mine)
    tmp = path.with_name(f".counts.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(known, handle, sort_keys=True)
    os.replace(tmp, path)
    return problems


# ----------------------------------------------------------------------
# Main.
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        if args.probe_setup:
            workload.setup(scratch)
            print(json.dumps({"ready": time.time()}))
            return 0
        return measure(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload, scratch) -> int:
    e2e_names, layer_names = benchmark_metrics()
    if args.trace == 0:
        setup_samples = [probe_setup(workload.name, args.seed)
                         for _ in range(SETUP_PROBES)]
    build_s = workload.setup(scratch)
    # One untimed op: the first full-size sweep costs about 1.5x a later
    # one (and the first op of any workload pays for lazy warm-up).
    first = next(workload.rounds(args.seed))[0]
    workload.op(scratch, *first, lambda name, fn, *a: fn(*a))
    checker = Checker()
    rounds = workload.rounds(args.seed)
    print(f"workload {workload.name}  seed {args.seed}  "
          f"nproc {len(os.sched_getaffinity(0))}  "
          f"python {platform.python_version()}  "
          f"pool {','.join(workload.pool)}")
    passes = []
    if args.trace == 0:
        timed = run_pass("untraced", workload, rounds, scratch, checker,
                         seconds=args.seconds)
        passes.append(timed)
        values, notes = end_to_end(timed, setup_samples)
        names = e2e_names
        for name, unit in END_TO_END_UNITS.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:28s} {values[name]:.6g} {unit}{note}")
    else:
        from tracing import LayerTracer

        untraced = run_pass("untraced", workload, rounds, scratch, checker,
                            seconds=args.seconds / 2)
        passes.append(untraced)
        pool_side = None
        if workload.forks_pool:
            # The pool's workers fork from this process, so per-point
            # wrappers stay off here: calls made in this process only.  A second
            # pass at jobs=1 then sees the per-point layers in-process.
            pool_tracer = LayerTracer()
            pool_tracer.install(parent_only=True)
            try:
                pool_pass = run_pass(
                    "traced-pool", workload, rounds, scratch, checker,
                    max_rounds=untraced.rounds, tracer=pool_tracer)
            finally:
                pool_tracer.uninstall()
            passes.append(pool_pass)
            pool_side = (pool_pass, pool_tracer)
        tracer = LayerTracer()
        tracer.install()
        try:
            if pool_side is not None:
                traced = run_pass("traced-jobs1", workload, rounds, scratch,
                                  checker, seconds=args.seconds / 2,
                                  tracer=tracer, op_kwargs={"jobs": 1})
            else:
                traced = run_pass("traced", workload, rounds, scratch,
                                  checker, max_rounds=untraced.rounds,
                                  tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        values = per_layer(untraced, traced, tracer, pool_side, build_s)
        names = layer_names
        print(f"traced pass: {traced.rounds} round(s); layer self times:")
        print("\n".join(layer_table(tracer, traced.rounds)))
        trace_path = STATE / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, f"{workload.name} seed "
                                              f"{args.seed}")
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        for name, unit in layer_names:
            print(f"  {name:28s} {values[name]:.6g} {unit}")

    problems = remember_counts(workload.name, checker)
    for problem in problems:
        print(f"DETERMINISM FAILURE {problem}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"sim_digest {checker.digest()}  ops {attempted}  failed {failed}  "
          f"rounds {'/'.join(str(p.rounds) for p in passes)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": exact(values[name], unit), "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
