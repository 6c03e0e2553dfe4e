"""What ``cibench/run.py`` asks of the library outside its operations.

The benchmark counts an exception inside an operation as a failed
operation, but one raised around them ends the run with exit code 1: the
fresh-interpreter ``workloads.setup`` of its set-up probe,
``build_inputs``, an operation's ``check``, reading ``linalg.KERNEL``,
installing the span tracer and the per-layer metrics read off its spans.
These tests run each of those once at seed 1, on one operation of each
kind, so that a library change that breaks one fails here, in tier 1,
rather than in a benchmark run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "cibench")
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_runs_in_a_fresh_interpreter(workload):
    # the command of run.py's SetupProbe, which runs it with check=True
    code = "import sys, workloads; workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
    subprocess.run([sys.executable, "-c", code, workload, str(SEED), ROOT],
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH])),
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def test_one_operation_of_each_kind_runs_and_checks_under_the_tracer(tmp_path):
    from cikit import harness, linalg

    workloads.import_all_cikit()
    assert isinstance(linalg.KERNEL, str)  # every run records it
    ops = []
    for workload in ("verify-q", "verify-fp"):
        ops += workloads.verify_ops(workloads.build_inputs(workload, SEED, ROOT)[:1])
    requests = workloads.build_inputs("queries", SEED, ROOT)
    ops += workloads.query_ops([next(r for r in requests if r["cmd"] == cmd)
                                for cmd in workloads.QUERY_COMMANDS])
    stream = workloads.StreamPass(workloads.build_inputs("corpus-stream", SEED, ROOT)[:1],
                                  str(tmp_path))
    stream.parallelism = 2
    ops += stream.ops({})
    assert len(ops) == 2 + len(workloads.QUERY_COMMANDS) + 1

    # the pool is built under the tracer, and no later test gets its workers
    harness._close_pool()
    tr = tracing.Tracer()
    tr.install()
    failures = []
    try:
        for i, op in enumerate(ops):
            span = tr.begin_op(i)
            out = op.call()
            tr.end_op(span)
            # run.py checks with the tracer off
            tr.enabled = False
            failures.append((op.label, op.check(out)))
            tr.enabled = True
    finally:
        tr.uninstall()
        stream.close()
        harness._close_pool()
    assert [label for label, failure in failures if failure is not None] == []
    metrics = tracing.layer_metrics(tr.spans, tracing.self_times(tr.spans), 0, len(tr.spans))
    assert metrics["dgmodel.model_calls"] > 0 and metrics["harness.pool_starts"] == 1
