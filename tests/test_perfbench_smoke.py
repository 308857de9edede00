"""The benchmark's workloads run against this tree.

``perfbench/`` checks every op with its own oracle (which reads
``NeighborhoodSystem.of``) and traces methods it finds in the classes'
``__dict__`` (``NeighborhoodSystem.validate`` and ``restrict`` among them).
A change that breaks either would only show as failed ops in a benchmark
run; these tests make it fail here.  The modules are imported without
writing bytecode next to them.  The ops run on clean inputs, so a
RuntimeWarning (a nan or overflow lane in some pass) is an error.
"""

import os
import sys

import pytest

import slopekit
import slopekit.cli  # the tracer wraps a module of every layer

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return workloads, tracer


@pytest.fixture(scope="module")
def large(bench, tmp_path_factory):
    workloads, _ = bench
    return workloads.LargeInstance(slopekit, os.path.dirname(PERFBENCH),
                                   str(tmp_path_factory.mktemp("bench")), 7919)


def test_large_instance_ops(large):
    """Ops 0-7 cover the pool: two each of matrix, graph, 1-D and 2-D grid."""
    assert len(large.cases) == 8
    for i in range(8):
        assert large.run(i) > 0   # raises CheckFailed on a wrong output


def test_suite_small_batch(bench, tmp_path):
    workloads, _ = bench
    suite = workloads.SuiteSmall(slopekit, os.path.dirname(PERFBENCH),
                                 str(tmp_path), 7919)
    assert suite.run(0) > 0


def test_traced_large_instance_op(bench, large):
    _, tracer = bench
    methods = tracer.METHODS["metric_space"]
    assert ("NeighborhoodSystem", "validate") in methods
    originals = {}
    for cls_name, meth in methods:   # the tracer reads them from __dict__
        originals[cls_name, meth] = vars(
            getattr(slopekit.metric_space, cls_name))[meth]
    tr = tracer.Tracer()
    with tr:
        tr.begin_op(0)
        large.run_in_process(1)   # a graph instance
    for (cls_name, meth), fn in originals.items():
        assert vars(getattr(slopekit.metric_space, cls_name))[meth] is fn
    metrics = tr.layer_metrics(slopekit.suite.CHECKS)
    assert metrics["metric_space.calls"] > 0
    assert metrics["instances.calls"] > 0 and metrics["slope_core.calls"] > 0
