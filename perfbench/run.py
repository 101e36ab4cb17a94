"""Benchmark for commclass: three workloads run in-process, one thread.

    python3 perfbench/run.py --workload e2g --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  A run imports the program, then runs whole passes over the
workload's operations until the next pass would end past --seconds (at
least MIN_PASSES).  Before each pass it times SETUP_REPEATS fresh set-ups
(import plus catalog construction), so the set-up median samples the
same stretch of time as the passes.  Outputs are checked by the oracles
after the timed passes.

The host's processor speed drifts by up to 60% over stretches of seconds
to minutes, so wall times follow the drift and a run's medians depend on
when it ran.  While an operation or set-up is timed, a fixed reference
loop is therefore timed too: before it, after it, and every
SAMPLE_INTERVAL seconds during it from a SIGALRM timer.  The step's wall
time, less the loops run inside it, is rescaled by the mean speed these
samples show to the speed at which the loop takes REFERENCE_SECONDS (its
time at full speed on a 2-vCPU x86-64 VM with Python 3.11).  The time
metrics are these rescaled times; the wall-clock medians go to standard
error.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; a readable summary
goes to standard error.

    python3 perfbench/run.py --selftest [--seed N]

runs the oracles' self-test and one untimed, checked pass of every
workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

import oracles
import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 3
REFERENCE_LOOPS = 1500
REFERENCE_SECONDS = 0.00024
SAMPLE_INTERVAL = 0.02

TIME_LAYERS = (
    "groups.commuting_tuples",
    "simplicial.build",
    "simplicial.boundary",
    "simplicial.homology",
    "intlinalg.homology_at",
    "intlinalg.matmul",
    "intlinalg.snf",
    "intlinalg.lattice",
    "cosetposet.poset",
    "cosetposet.chains",
    "cosetposet.homology",
    "groupring.coinvariants",
    "groupring.moore_h2",
    "torus.element",
    "torus.commutator",
    "torus.cover",
    "torus.lattice",
    "cocycles.build",
    "cocycles.validate",
    "cocycles.clutch",
    "fileio.parse",
    "cli.self",
    "bench.self",
)
CALL_LAYERS = ("simplicial.boundary", "intlinalg.homology_at", "intlinalg.matmul", "intlinalg.snf")
COUNTERS = (
    "groups.tuples",
    "simplicial.simplices",
    "simplicial.boundary_nnz",
    "intlinalg.snf_nnz",
    "cosetposet.chains",
    "torus.mul_calls",
    "torus.commutator_calls",
)


def _commclass_modules():
    return {n: m for n, m in sys.modules.items() if n == "commclass" or n.startswith("commclass.")}


def fresh_import():
    """Import commclass from scratch, so its catalog caches start empty."""
    for name in _commclass_modules():
        del sys.modules[name]
    cli = importlib.import_module("commclass.cli")
    mods = sys.modules
    return types.SimpleNamespace(
        cli=cli,
        catalog=mods["commclass.catalog"],
        torus=mods["commclass.torus"],
        cocycles=mods["commclass.cocycles"],
    )


def reference_seconds():
    """Wall time of a fixed loop of interpreter work: the host's speed now."""
    start = perf_counter()
    d = {}
    for i in range(REFERENCE_LOOPS):
        k = i * 7919 % 509
        d[k] = d.get(k, 0) + i * i % 7
    return perf_counter() - start


class Speed:
    """Times steps and rescales them to reference speed, from reference
    loops timed before, during and after each step."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - start

    def time(self, step):
        """Runs step(); returns its result, its seconds at reference speed
        and its wall seconds less the loops timed inside it."""
        self.samples = [reference_seconds()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = perf_counter()
        try:
            result = step()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(reference_seconds())
        seconds = wall - self.spent
        return result, seconds * statistics.fmean(REFERENCE_SECONDS / r for r in self.samples), seconds


def time_setup(workload, speed):
    """Seconds, at reference speed, for one fresh import plus the
    workload's catalog construction.  The modules in use are put back
    afterwards."""
    in_use = _commclass_modules()
    _, seconds, _ = speed.time(lambda: workloads.setup_objects(workload, fresh_import()))
    for name in _commclass_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


class Passes:
    """Times and outcomes of the passes of one run.

    Only the first pass's outputs are kept; a later pass is compared with
    them when it ends and then dropped, so the benchmark's own memory does
    not grow with the number of passes."""

    def __init__(self, ops):
        self.ops = ops
        self.speed = Speed()
        self.seconds = []
        self.slowest = []
        self.wall = []
        self.first = None
        self.differs = [0] * len(ops)

    def run(self, tracer=None, tag=""):
        """Run every operation once; returns the pass's wall seconds and
        records its seconds at reference speed.  Garbage left by earlier
        passes and set-ups is collected first, untimed."""
        gc.collect()
        results = []
        start = perf_counter()
        for op in self.ops:
            (code, out), seconds, wall = self.speed.time(lambda: self._call(op, tracer, tag))
            results.append((code, out, seconds, wall))
        wall = perf_counter() - start
        self.seconds.append(sum(r[2] for r in results))
        self.slowest.append(max(r[2] for r in results))
        self.wall.append((sum(r[3] for r in results), max(r[3] for r in results)))
        if self.first is None:
            self.first = [(code, out) for code, out, _, _ in results]
        else:
            for i, (code, out, _, _) in enumerate(results):
                if (code, out) != self.first[i]:
                    self.differs[i] += 1
        return wall

    @staticmethod
    def _call(op, tracer, tag):
        try:
            if tracer is None:
                return op.run()
            return tracer.run_op(f"{tag}{op.name}", op.run)
        except SystemExit as e:
            return e.code, None
        except Exception as e:
            return None, f"{type(e).__name__}: {e}"

    def check(self):
        """Check the first pass with the oracles; a later pass fails where
        it differs from the first.  Returns (failed operation runs, wrong
        answers, reasons by operation)."""
        outputs = {op.name: out for op, (_, out) in zip(self.ops, self.first)}
        reasons = {}
        wrong = failed = 0
        for i, (op, (code, out)) in enumerate(zip(self.ops, self.first)):
            if code != 0:
                reasons[op.name] = f"exit code {code}: {out if isinstance(out, str) else ''}"[:300]
                failed += len(self.seconds)
                continue
            try:
                reason = op.check(out, outputs)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
            if reason:
                reasons[op.name] = reason
                wrong += 1
                failed += len(self.seconds)
            elif self.differs[i]:
                reasons[op.name] = f"output or exit code differs in {self.differs[i]} later passes"
                failed += self.differs[i]
        return failed, wrong, reasons


def timed_passes(workload, ops, seconds):
    """Returns the passes and the set-up times taken between them."""
    passes = Passes(ops)
    setups = []
    start = perf_counter()
    while True:
        setups.extend(time_setup(workload, passes.speed) for _ in range(SETUP_REPEATS))
        last = passes.run()
        if len(passes.seconds) >= MIN_PASSES and perf_counter() - start + last > seconds:
            return passes, setups


def traced_passes(ops, seconds, tracer):
    """Alternate untraced and traced passes, untraced first; returns the
    passes."""
    passes = Passes(ops)
    start = perf_counter()
    while True:
        wall = passes.run()
        tracer.install()
        try:
            wall += passes.run(tracer, f"{len(passes.seconds) // 2}:")
        finally:
            tracer.uninstall()
        if perf_counter() - start + wall > seconds:
            return passes


def layer_metrics(tracer, passes):
    """Per traced pass.  Self times are wall times rescaled by the traced
    passes' ratio of reference-speed to wall seconds, so that they add up
    to pass_s."""
    plain, traced = passes.seconds[0::2], passes.seconds[1::2]
    n = len(traced)
    scale = sum(traced) / sum(w for w, _ in passes.wall[1::2])
    metrics = {}
    for layer in TIME_LAYERS:
        metrics[f"{layer}_s"] = (tracer.self_time.get(layer, 0.0) * scale / n, "s")
    for layer in CALL_LAYERS:
        metrics[f"{layer}_calls"] = (tracer.calls.get(layer, 0) / n, "count")
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0) / n, "count")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run(args):
    failures = oracles.self_test()
    cc = fresh_import()
    ops = workloads.build(args.workload, cc, args.seed, ROOT)
    if args.trace:
        tracer = tracer_mod.Tracer()
        passes = traced_passes(ops, args.seconds, tracer)
        metrics = layer_metrics(tracer, passes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        passes, setups = timed_passes(args.workload, ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(passes.seconds), "s"),
            "slowest_op_s": (statistics.median(passes.slowest), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(
            f"  wall clock: pass median {statistics.median(w[0] for w in passes.wall):.3f} s, "
            f"slowest operation median {statistics.median(w[1] for w in passes.wall):.3f} s",
            file=sys.stderr,
        )
    failed, wrong, reasons = passes.check()
    attempted = len(ops) * len(passes.seconds)
    for failure in failures:
        print(f"self-test failed: {failure}", file=sys.stderr)
    for name, reason in sorted(reasons.items()):
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(passes.seconds)} passes of {len(ops)} operations, "
        f"{attempted} attempted, {failed} failed",
        file=sys.stderr,
    )
    print("  pass seconds: " + " ".join(f"{t:.3f}" for t in passes.seconds), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}", file=sys.stderr)
    return {
        "correct": not failures and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def selftest(seed):
    failures = oracles.self_test()
    for failure in failures:
        print(f"self-test failed: {failure}")
    ok = not failures
    for workload in workloads.WORKLOADS:
        cc = fresh_import()
        ops = workloads.build(workload, cc, seed, ROOT)
        passes = Passes(ops)
        seconds = passes.run()
        failed, wrong, reasons = passes.check()
        for name, reason in sorted(reasons.items()):
            print(f"FAILED {workload} {name}: {reason}")
        print(f"{workload}: {len(ops)} operations, {failed} failed, {seconds:.1f} s")
        ok = ok and failed == 0
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check the oracles and one pass of each workload")
    args = p.parse_args(argv)
    if not (SRC / "commclass" / "__init__.py").is_file():
        print(f"error: no commclass sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return 0 if selftest(args.seed) else 1
    if args.workload is None:
        p.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
