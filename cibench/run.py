"""Benchmark of the cikit library: four workloads through its public API.

    python3 cibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment, pass count, raw times and failure causes.

A pass runs the workload's fixed list of operations once.  The first pass
always completes; later ones run until ``--seconds`` have passed, the last
one stopping early.  Every run of an operation is checked.  ``attempted``
counts the workload's distinct operations and ``failed`` those with a
failed run, so both are set by the inputs, not by how many passes fit.

With ``--trace 0`` the end-to-end metrics are reported.  Times are at
reference speed (see ``speed.py``): each run of an operation is timed,
scaled by the machine's slowdown around it, and an operation's time is the
median over its runs.  ``wall_s`` is the sum of those medians and
``op_p50_ms`` their median.  With ``--trace 1`` passes alternate between
untraced ones, the base of ``trace.overhead_frac``, and ones with the span
tracer installed (at least one of each); the per-layer metrics are
averages per traced pass, and the spans are written to
``.bench_build/cibench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "cibench")
SETUP_REPEATS = 11
# Operations under SHORT_OP_S at reference speed run again at the end of
# each untraced pass, up to SHORT_RUNS runs in all, so that each has several
# runs to take a median of.  In the first pass they get MIN_SHORT_RUNS even
# past the deadline, for at most OVERRUN_S more: the verify-fp pass alone
# takes longer than a run.
SHORT_OP_S = 0.5
SHORT_RUNS = 8
MIN_SHORT_RUNS = 6
OVERRUN_S = 5.0


class SetupProbe:
    """Times a fresh interpreter that imports every cikit module and builds
    the workload's inputs.  Samples are spread over the run, between
    operations, each with the gauge's timer paused and a gauge sample just
    before and after it.  A first, untimed start writes the bytecode
    caches, which an installed CLI has as well."""

    def __init__(self, workload, seed, seconds, gauge):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
        code = "import sys, workloads; workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
        self.cmd = [sys.executable, "-c", code, workload, str(seed), ROOT]
        self.env = env
        self.gauge = gauge
        self.interval = seconds / (SETUP_REPEATS + 1)
        self.spans: list = []  # (start, end) of each timed start
        self._start()
        self.last = time.perf_counter()

    def _start(self):
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, stdout=subprocess.DEVNULL)
        return t0, time.perf_counter()

    def _sample(self):
        self.gauge.stop()
        self.spans.append(self._start())
        self.gauge.start()
        self.last = time.perf_counter()

    def maybe_sample(self):
        """Take a sample if the next one is due."""
        if len(self.spans) < SETUP_REPEATS and time.perf_counter() - self.last >= self.interval:
            self._sample()

    def finish(self):
        while len(self.spans) < SETUP_REPEATS:
            self._sample()

    def median(self):
        """Median set-up time at reference speed (call after the gauge stopped)."""
        return statistics.median(self.gauge.at_reference(t0, t1)[0] for t0, t1 in self.spans)


class Runner:
    """Runs passes of one workload; keeps, per operation, the (start, end)
    of each run and the first failure."""

    def __init__(self, workload, inputs, tracer, gauge=None, setup_probe=None):
        self.inputs = inputs
        self.tracer = tracer
        self.gauge = gauge
        self.setup_probe = setup_probe
        self.runs = 0
        self.failures: dict = {}  # op index -> [op, first failure text]
        self.reference: dict = {}  # corpus-stream: entry name -> first result
        if workload in ("verify-q", "verify-fp"):
            self.ops = workloads.verify_ops(inputs)
        elif workload == "queries":
            self.ops = workloads.query_ops(inputs)
        else:
            self.ops = None  # built per pass, with that pass's cache directory

    def run_pass(self, traced, deadline, complete):
        """One pass; returns {operation index: [(start, end), ...]}.  Past
        ``deadline`` the pass stops after the current operation, unless it
        is ``complete``: then every operation runs, and every short one
        MIN_SHORT_RUNS times unless that takes more than OVERRUN_S past the
        deadline or the end of the first round, whichever is later."""
        stream = None
        ops = self.ops
        if ops is None:
            os.makedirs(OUT_DIR, exist_ok=True)
            stream = workloads.StreamPass(self.inputs, OUT_DIR)
            ops = stream.ops(self.reference)
        times = {}
        try:
            for i, op in enumerate(ops):
                if not complete and time.perf_counter() >= deadline:
                    return times
                times[i] = [self._execute(i, op, traced)]
            short = [] if traced or self.gauge is None else [
                i for i, [run] in times.items()
                if ops[i].repeatable and self.gauge.at_reference(*run)[0] < SHORT_OP_S]
            overrun_end = max(deadline, time.perf_counter()) + OVERRUN_S
            for n in range(2, SHORT_RUNS + 1):
                for i in short:
                    now = time.perf_counter()
                    if now >= deadline and (n > MIN_SHORT_RUNS or not complete
                                            or now >= overrun_end):
                        return times
                    times[i].append(self._execute(i, ops[i], traced))
        finally:
            if stream is not None:
                stream.close()
        return times

    def _execute(self, i, op, traced):
        """Run, time and check operation ``i`` once; returns (start, end)."""
        tr = self.tracer
        # every run starts without the garbage of earlier ones, as in a fresh
        # CLI process; left to the collector's schedule, it makes the peak
        # resident memory depend on the order of the operations
        gc.collect()
        span = tr.begin_op(i) if traced else None
        # work in other processes is timed between two gauge samples, with
        # the timer paused, so that the gauge does not compete with it
        if op.multiprocess and self.gauge is not None:
            self.gauge.stop()
        t0 = time.perf_counter()
        try:
            out, failure = op.call(), None
        except Exception as exc:  # a failed operation, counted below
            out, failure = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if op.multiprocess and self.gauge is not None:
            self.gauge.start()
        if traced:
            tr.end_op(span)
            tr.enabled = False
        if failure is None:
            failure = op.check(out)
        if traced:
            tr.enabled = True
        self.runs += 1
        if failure is not None:
            self.failures.setdefault(i, [op, failure])
        if self.setup_probe is not None:
            self.setup_probe.maybe_sample()
        return t0, t1

    def causes(self):
        """Failed operations by cause; 'unexplained' for any the known
        defects do not account for."""
        out: dict = {}
        for op, _ in self.failures.values():
            cause = (op.explain() if op.explain else None) or "unexplained"
            out[cause] = out.get(cause, 0) + 1
        return out


def per_op(passes, measure):
    """Per operation, the median of ``measure(start, end)`` over its runs."""
    return [statistics.median(measure(*run) for p in passes for run in p.get(i, ()))
            for i in passes[0]]


def run(args):
    inputs = workloads.build_inputs(args.workload, args.seed, ROOT)
    tr = tracing.Tracer()
    gauge = probe = None
    if not args.trace:
        gauge = speed.SpeedGauge()
        probe = SetupProbe(args.workload, args.seed, args.seconds, gauge)
        gauge.start()
    runner = Runner(args.workload, inputs, tr, gauge, probe)
    base, traced = [], []
    spans_by_pass = []
    deadline = time.perf_counter() + args.seconds
    # the first pass and traced runs complete their passes, so that every
    # operation has a time and per-pass layer metrics compare
    while True:
        if args.trace and len(traced) < len(base):
            tr.install()
            lo = len(tr.spans)
            traced.append(runner.run_pass(True, deadline, True))
            spans_by_pass.append((lo, len(tr.spans)))
            tr.uninstall()
        else:
            base.append(runner.run_pass(False, deadline, args.trace or not base))
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break
    if gauge is not None:
        probe.finish()
        gauge.stop()
    return runner, base, traced, spans_by_pass, tr


def raw_time(t0, t1):
    return t1 - t0


def per_layer(tr, base, traced, spans_by_pass):
    selfs = tracing.self_times(tr.spans)
    per_pass = [tracing.layer_metrics(tr.spans, selfs, lo, hi) for lo, hi in spans_by_pass]
    out = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = sum(per_op(traced, raw_time)) / sum(per_op(base, raw_time)) - 1.0
    return out


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cikit", "__init__.py")):
        print(f"cibench: no cikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # an inherited result cache would turn the uncached workloads into cache reads
    if args.workload != "corpus-stream":
        os.environ.pop("CIKIT_CACHE_DIR", None)

    workloads.import_all_cikit()
    runner, base, traced, spans_by_pass, tr = run(args)

    from cikit import linalg

    causes = runner.causes()
    failed = len(runner.failures)
    attempted = len(base[0])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {
            "kernel": linalg.KERNEL,
            "CIKIT_PURE_PYTHON": os.environ.get("CIKIT_PURE_PYTHON"),
            "CIKIT_CACHE_DIR": os.environ.get("CIKIT_CACHE_DIR"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "passes": {"untraced": len(base), "traced": len(traced)},
        "operation_runs": runner.runs,
        "fail_frac": failed / attempted,
        "failure_causes": causes,
        "failure_examples": [f"{op.label}: {text}"
                             for op, text in list(runner.failures.values())[:5]],
    }
    if args.trace:
        metrics = per_layer(tr, base, traced, spans_by_pass)
        tr.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"), info)
    else:
        gauge = runner.gauge
        op_s = per_op(base, lambda t0, t1: gauge.at_reference(t0, t1)[0])
        metrics = {
            "setup_s": runner.setup_probe.median(),
            "wall_s": sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        slowdowns = gauge.slowdowns
        info["raw"] = {
            "wall_s": sum(per_op(base, lambda t0, t1: gauge.at_reference(t0, t1)[1])),
            "setup_s": statistics.median(t1 - t0 for t0, t1 in runner.setup_probe.spans),
            "gauge_samples": len(slowdowns),
            "slowdown_median": statistics.median(slowdowns),
        }
        if attempted >= 100:
            ranked = sorted(op_s)
            info["op_p90_ms"] = ranked[int(0.9 * len(ranked))] * 1000.0
    print("info " + json.dumps(info, sort_keys=True))
    units = declared_units()
    result = {
        "correct": "unexplained" not in causes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
