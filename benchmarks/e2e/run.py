"""The DisCFS end-to-end benchmark: one workload, one seed, one result.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        [--seconds S] [--trace 0|1] [--smoke] [--record FILE]
    python -m benchmarks.e2e.run ...          (the same)

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (:data:`END_TO_END`);
with ``--trace 1``, the per-layer ones of a traced round
(``layers.PER_LAYER``).

How a run is laid out (README.md says why):

* the runner re-executes itself with a fixed ``PYTHONHASHSEED`` and pins
  itself to one CPU;
* the workload's inputs are generated from the seed, once;
* ``workloads.ROUNDS`` rounds of a *fixed* number of ops, each on a
  deployment built for it and torn down after it, ``gc.collect()`` in
  between; every round issues the same ops in the same order;
* an op's time is the fastest of its repetitions, one per round, and a
  percentile is taken over the ops (:func:`timings`); ``setup_s`` is the
  median of the rounds' build times;
* end-of-run checks (read-back, durability, denials) on the last
  deployment feed ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

# Sibling modules are imported inside the functions that use them: run
# as a script this file has no package yet and only gets as far as
# :func:`_reexec`.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: (name, unit, better, bound) of every end-to-end metric, in print order.
#: The timing bounds are 0.25, not ISSUE 12's 0.10: the driver refuses a
#: benchmark in which any cell's quartile spread over ten runs exceeds its
#: bound and asks for three times the spreads seen, which reach 6.9 %
#: (README.md, "How well it repeats").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("meta_p50_ms", "ms", "lower", 0.25),
    ("share_p50_ms", "ms", "lower", 0.25),
    ("store_bytes_per_user_byte", "ratio", "lower", 0.01),
    ("peak_rss_mib", "MiB", "lower", 0.05),
]

_REEXEC_MARK = "DISCFS_E2E_CHILD"


def _reexec() -> None:
    """Start over as ``python -m benchmarks.e2e.run`` in a fixed
    environment, so hash order and import paths are the same however the
    runner was launched."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: the benchmark "
                 "measures the program in this checkout and cannot run "
                 "without it")
    env = dict(os.environ, PYTHONHASHSEED="0", **{_REEXEC_MARK: "1"})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    os.execve(sys.executable,
              [sys.executable, "-m", "benchmarks.e2e.run", *sys.argv[1:]], env)


def _pin_to_one_cpu() -> None:
    # The system's threads share one interpreter lock and cannot run in
    # parallel; spread over two virtual CPUs their hand-offs become
    # cross-CPU wake-ups, which doubled replica-remote's latency and its
    # run-to-run spread on the machine this was fitted on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: Stretches a round is cut into for ``ops_per_s`` (30-60 ms each at full
#: size): long enough to hold what the program does between ops, short
#: enough that not every repetition of one is disturbed.
STRETCHES = 64


def fastest(repetitions) -> list[int]:
    """Per position, the fastest of the rounds' repetitions of it."""
    return [min(times) for times in zip(*repetitions)]


def timings(meters) -> dict[str, float]:
    """The timing metrics of a run, from its rounds' meters.

    The rounds issue the same ops in the same order, so the n-th sample
    of a class is the same op in every round.  Interference on a shared
    host only ever adds time, in bursts that move from round to round;
    what the program itself costs an op it costs it in every round.  So
    an op's time is the fastest of its repetitions, a percentile is
    taken over the ops, and ``ops_per_s`` is the ops of a round over the
    sum of its stretches, each the fastest of its repetitions.
    """
    from .workloads import Meter, percentile_ms

    def p50(*kinds: str) -> float:
        return percentile_ms(
            [ns for kind in kinds
             for ns in fastest(m.samples[kind] for m in meters)], 0.50)

    marks = len(meters[0].ends)
    step = ceil((marks - 1) / STRETCHES)
    cuts = [*range(0, marks - 1, step), marks - 1]
    wall_ns = sum(fastest([m.ends[b] - m.ends[a] for a, b in zip(cuts, cuts[1:])]
                          for m in meters))
    ops = sum(len(meters[0].samples[kind]) for kind in Meter.OPS)
    return {
        "ops_per_s": ops / (wall_ns / 1e9),
        "op_p50_ms": p50(*Meter.OPS),
        "read_p50_ms": p50("read"),
        "write_p50_ms": p50("write"),
        "meta_p50_ms": p50("meta"),
        "share_p50_ms": p50("share"),
    }


class Run:
    """Drives one workload object through builds, rounds and checks."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.builds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: ``ru_maxrss`` after the latest round, before its end-of-run
        #: checks (which hold whole files in memory).
        self.peak_rss_kib = 0

    def round(self, trace=None, last: bool = False):
        """One round on a deployment of its own.

        Returns ``(meter, build seconds, bytes stored)``; ``meter.ends``
        runs from the round's start through every op's end to the
        round's end.  The last round's deployment also gets the
        end-of-run checks.  ``trace`` is the ``layers.RoundTrace`` of a
        traced round.
        """
        from .workloads import Meter

        workload = self.workload
        directory = self.workdir / f"build{self.builds}"
        directory.mkdir(parents=True)
        self.builds += 1
        gc.collect()
        start = perf_counter()
        workload.build(directory)
        build_s = perf_counter() - start
        try:
            gc.collect()
            stored = workload.store_bytes_written()
            meter = workload.meter = Meter(trace and trace.recorder)
            if trace:
                trace.begin(workload)
            meter.ends.append(perf_counter_ns())
            workload.round()
            meter.ends.append(perf_counter_ns())
            if trace:
                trace.end(workload)
            stored = workload.store_bytes_written() - stored
            self.peak_rss_kib = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._absorb(meter)
            if last:
                checks = workload.meter = Meter()
                try:
                    workload.verify()
                except Exception as exc:
                    checks.fail(f"end-of-run check raised {exc!r}")
                self._absorb(checks)
        finally:
            workload.close()
            shutil.rmtree(directory, ignore_errors=True)
        return meter, build_s, stored

    def _absorb(self, meter) -> None:
        self.attempted += meter.attempted
        self.failed += meter.failed
        self.errors.extend(meter.errors[:8 - len(self.errors)])


def timed_run(run: Run, rounds: int):
    """The untraced run: end-to-end metrics and the report lines."""
    meters, setup = [], []
    stored = user_bytes = 0
    for index in range(rounds):
        meter, build_s, round_stored = run.round(last=index == rounds - 1)
        meters.append(meter)
        setup.append(build_s)
        stored += round_stored
        user_bytes += meter.user_bytes
    counts = {kind: len(v) for kind, v in meters[0].samples.items()}
    if any({kind: len(v) for kind, v in m.samples.items()} != counts
           or len(m.ends) != len(meters[0].ends) for m in meters):
        run.failed += 1
        run.errors.append("the rounds did not issue the same ops")
    values = timings(meters)
    values["setup_s"] = median(setup)
    values["store_bytes_per_user_byte"] = stored / user_bytes
    values["peak_rss_mib"] = run.peak_rss_kib / 1024
    lines = [
        f"{rounds} round(s) of the same ops, a fresh deployment each; "
        f"samples per round: " + ", ".join(
            f"{kind} {n}" for kind, n in counts.items()),
        f"op percentiles over {counts['read'] + counts['write'] + counts['meta']}"
        f" ops, each timed as the fastest of its {rounds} repetition(s); "
        f"setup_s is the median of the builds",
    ]
    return values, lines


def wall_ops_per_s(meter) -> float:
    """Ops per wall second of one round."""
    ops = sum(len(meter.samples[kind]) for kind in meter.OPS)
    return ops / ((meter.ends[-1] - meter.ends[0]) / 1e9)


def traced_run(run: Run, name: str):
    """The traced run: per-layer metrics of one round, and the table.

    A warm-up round and an untraced round run first, each on its own
    deployment; the traced deployment is built entirely under the
    wrappers, so the overhead figure compares like with like.
    """
    from . import layers
    from .spans import write_jsonl

    run.round()
    plain = wall_ops_per_s(run.round()[0])

    trace = layers.RoundTrace()
    layers.install(trace.recorder)
    try:
        meter = run.round(trace, last=True)[0]
    finally:
        trace.recorder.unpatch_all()
    traced = wall_ops_per_s(meter)
    overhead = (plain / traced - 1.0) * 100.0
    spans = trace.spans
    folded = layers.Folded(spans)
    values = layers.layer_metrics(folded, trace.delta, meter,
                                  run.workload.replay_ms, overhead)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace_{name}.jsonl"
    write_jsonl(spans, folded.top, str(trace_path))
    lines = [
        f"traced round: {folded.ops} ops, {folded.shares} share cycles, "
        f"{len(spans)} spans -> {trace_path.relative_to(ROOT)}",
        f"untraced {plain:.1f} ops/s, traced {traced:.1f} ops/s",
        layers.layer_table(folded),
    ]
    return values, lines


def measure(name: str, seed: int, seconds: float | None = None,
            trace: bool = False, smoke: bool = False):
    """Run one workload; returns (result object, report lines)."""
    from .layers import PER_LAYER
    from .workloads import ROUNDS, RUN_SECONDS, WORKLOADS, sizes_for

    size = sizes_for(name, "smoke" if smoke else "full",
                     RUN_SECONDS if seconds is None else seconds)
    workdir = HERE / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(WORKLOADS[name](seed, size), workdir)
    try:
        if trace:
            values, lines = traced_run(run, name)
            listing = [(n, u) for n, u, _b in PER_LAYER]
        else:
            values, lines = timed_run(run, 1 if smoke else ROUNDS)
            listing = [(n, u) for n, u, _b, _bound in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    lines.insert(0, f"workload {name}  seed {seed}  "
                    f"{'smoke' if smoke else 'full'} size  stores under "
                    f"{workdir.parent.relative_to(ROOT)} (checkout's disk, "
                    f"fsync on)")
    width = max(len(n) for n, _u in listing)
    lines += [f"{n:<{width}}  {values[n]:>14.4f} {u}" for n, u in listing]
    lines.append(f"ops_attempted {run.attempted}  ops_failed {run.failed}")
    lines += [f"FAILED: {error}" for error in run.errors]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in listing},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    from .workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales the op count of a round "
                             f"(default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round, for the test suite")
    parser.add_argument("--record", metavar="FILE",
                        help="append the result as a JSON line (for compare)")
    args = parser.parse_args(argv)
    _pin_to_one_cpu()
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.smoke)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "smoke": args.smoke,
                "result": result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get(_REEXEC_MARK) != "1":
        _reexec()
    sys.exit(main())
