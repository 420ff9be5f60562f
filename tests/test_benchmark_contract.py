"""What the benchmark in ``perfbench/`` reads of the program.

The benchmark imports its job list and its tracer on every run, and the
tracer names the functions it wraps by module attribute.  A program change
that deletes or renames one of them stops every benchmark run, and one
that changes a job's result fails the job; these tests catch both.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


jobs = _load("jobs")
tracer = _load("tracer")


def test_every_traced_target_resolves():
    targets = [(owner, attr) for owner, attr, _, _ in tracer.SPANS]
    targets += [(owner, attr) for owner, attr, _ in tracer.CALL_COUNTS]
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_jobs_give_their_expected_results_traced_and_not(workload):
    job_list = jobs.WORKLOADS[workload](1)
    results = [job.run() for job in job_list]
    assert results == [job.expected for job in job_list]
    with tracer.Tracer():
        traced = [job.run() for job in job_list]
    assert traced == results
