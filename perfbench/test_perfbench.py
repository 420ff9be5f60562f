"""Self-tests of the benchmark, on small jobs.

    python3 -m pytest perfbench
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

jobs, tracer = run.import_program()

from congtower import bttree, intmat, poly, tower  # noqa: E402


def small_jobs(seed=5):
    return [
        jobs.homology_job(2, 3),
        jobs.quotient_job("d=1", 2, 1, 2),
        jobs.tree_job("pgl2", 3),
        jobs.tower_job("magic", 2, 0, seed),
    ]


def run_main(capsys, trace):
    code = run.main(["--workload", "small", "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)], workloads={"small": small_jobs})
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_wrong_expected_value_is_a_failed_job(capsys):
    good = jobs.homology_job(2, 3)
    wrong = copy.deepcopy(good.expected)
    wrong["rows"][0]["rank"] += 1
    bad = dataclasses.replace(good, expected=wrong)

    def boom():
        raise ValueError("no such group")

    broken = jobs.Job("raises", boom, None)
    done = run.run_pass([bad, broken, jobs.homology_job(2, 3)])
    assert [error is None for _, _, _, error in done] == [False, False, True]

    code = run.main(["--workload", "w", "--seed", "1", "--seconds", "0.01"],
                    workloads={"w": lambda seed: [bad, jobs.homology_job(2, 3)]})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_traced_and_untraced_results_agree():
    job_list = small_jobs()
    untraced = run.run_pass(job_list)
    with tracer.Tracer() as t:
        traced = run.run_pass(job_list)
    assert [r for _, _, r, _ in traced] == [r for _, _, r, _ in untraced]
    assert all(error is None for _, _, _, error in untraced + traced)
    m = t.metrics()
    for name in ("intmat.abelian_invariants_s", "bttree.canonicalize_s",
                 "tower.build_tower_s", "bttree.model_s",
                 "poly.poly_identity_test_s", "congsub.rmat_mul_calls",
                 "ringmat.mat_mul_calls", "intmat.relation_nonzeros"):
        assert m[name] > 0, name
    assert m["tower.steps"] == 2 and m["bttree.vertices"] == 22
    # every wrapper is gone again, aliases and tower factories included
    assert intmat.abelian_invariants.__module__ == "congtower.intmat"
    assert not hasattr(intmat.abelian_invariants, "__wrapped__")
    assert tower.poly_identity_test is poly.poly_identity_test
    assert not hasattr(poly.poly_identity_test, "__wrapped__")
    assert tower.TOWER_EXAMPLES["magic"].model_factory is bttree.pgl2_model
    assert not hasattr(bttree.pgl2_model, "__wrapped__")


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [[0, None, "a", 0.0, 10.0], [1, 0, "b", 1.0, 4.0],
               [2, 1, "c", 2.0, 3.0], [3, 0, "c", 5.0, 6.0]]
    assert t.self_times() == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(capsys, trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    code, result = run_main(capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * (2 if trace else 1)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_tree_ball_closed_form():
    assert jobs.tree_ball([("v", 3)], 8) == {"v": 766}
    assert jobs.tree_ball([("x0", 5), ("xhalf", 3)], 4) == {"x0": 91, "xhalf": 45}
    assert jobs.tree_ball([("v0", 6), ("mid", 6)], 3) == {"v0": 31, "mid": 156}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
