"""lsaforge benchmark: one closed-loop workload per run, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The set-up (fresh import of lsaforge
from ``src/``, seeded input generation, input files written) is repeated
``SETUP_REPEATS`` times and its median reported as ``setup_s``.  Then
whole rounds of the workload's operations run, one after another, until
``--seconds`` have passed (at least one round).  Every output is checked
by the benchmark's own checkers outside the timed section.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate (see tracing.py), and the metrics are the per-layer
ones, per traced round, plus ``trace.overhead_s``.  The trace (counts and spans) is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import checkers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_max_s": "s", "peak_rss_mb": "MiB"}


def per_layer_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)["per_layer"]]


def fresh_import():
    """Import lsaforge from src/ anew, so that every set-up pays for it."""
    for name in [n for n in sys.modules
                 if n == "lsaforge" or n.startswith("lsaforge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("lsaforge")
    importlib.import_module("lsaforge.cli")
    return package


class Runner:
    """Runs rounds of operations and keeps their latencies and verdicts."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = [None] * len(ops)
        self.latencies = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = {}

    def round(self) -> float:
        ctx = {}
        total = 0.0
        clock = time.perf_counter
        for index, op in enumerate(self.ops):
            start = clock()
            try:
                out = op.call(ctx)
            except Exception as exc:
                elapsed = clock() - start
                ok = False
                self.problems.setdefault(op.name, "raised %s: %s" % (
                    type(exc).__name__, str(exc)[:200]))
            else:
                elapsed = clock() - start
                ok = self.verify(index, op, out)
            total += elapsed
            self.latencies[index].append(elapsed)
            self.attempted += 1
            self.failed += not ok
        return total

    def verify(self, index, op, out) -> bool:
        try:
            if self.digests[index] is None:
                op.check(out)
                self.digests[index] = op.digest(out)
            elif op.digest(out) != self.digests[index]:
                checkers.fail("output differs from the first round's")
        except Exception as exc:
            self.correct = False
            detail = "".join(traceback.format_exception_only(type(exc), exc))
            self.problems.setdefault(op.name, "wrong output: " +
                                     detail.strip()[:300])
            return False
        return True


def rounds_until(runner, deadline) -> list:
    walls = [runner.round()]
    while time.perf_counter() < deadline:
        walls.append(runner.round())
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "lsaforge")):
        print("error: no lsaforge sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "%s-s%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lsa = fresh_import()
            ops = WORKLOADS[args.workload](lsa, random.Random(args.seed),
                                           workdir)
            setups.append(time.perf_counter() - start)

        runner = Runner(ops)
        begin = time.perf_counter()
        if not args.trace:
            walls = rounds_until(runner, begin + args.seconds)
            op_means = [statistics.mean(op) for op in runner.latencies]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.mean(walls),
                # each operation of the round taken at its mean over rounds
                "op_p50_ms": 1000 * statistics.median(op_means),
                "op_max_s": max(op_means),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}
            summary = "%d rounds" % len(walls)
        else:
            # untraced and traced rounds alternate, so that drifts in the
            # machine's speed fall on both alike
            plain, traced = [], []
            tracer = Tracer(lsa)
            while not traced or time.perf_counter() < begin + args.seconds:
                plain.append(runner.round())
                tracer.install()
                try:
                    traced.append(runner.round())
                finally:
                    tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced))
            metrics["trace.overhead_s"] = {
                "value": statistics.mean(traced) - statistics.mean(plain),
                "unit": "s"}
            trace_path = os.path.join(OUT, "trace-%s-s%d-%d.json" % (
                args.workload, args.seed, os.getpid()))
            tracer.write(trace_path)
            summary = "%d untraced and %d traced rounds, trace in %s" % (
                len(plain), len(traced), os.path.relpath(trace_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s seed %d: %s, %d operations, %d failed"
          % (args.workload, args.seed, summary, runner.attempted,
             runner.failed))
    for name, problem in sorted(runner.problems.items()):
        print("  %s: %s" % (name, problem))
    print(json.dumps({"correct": runner.correct,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, rounds) -> dict:
    """Every per-layer metric of BENCHMARK.json, per traced round."""
    modules = tracer.module_self()
    out = {}
    for name, unit in per_layer_names():
        if name == "trace.overhead_s":
            continue
        stem, _, kind = name.rpartition(".")
        if "." not in stem:                      # a module's total self time
            value = modules.get(stem, 0.0)
        else:
            calls, self_s = tracer.stats.get(stem, (0, 0.0))
            value = calls if kind == "calls" else self_s
        out[name] = {"value": value / rounds, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
