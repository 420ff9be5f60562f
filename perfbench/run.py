"""Closed-loop batch benchmark for congtower.

    python3 perfbench/run.py --workload {homology,checks,towers} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one job at a time, no worker threads.

Set-up (process start, importing congtower, loading the bundled
presentations and ``o41_reflections.json``) is timed in fresh child
processes, several times, and reported as the median ``setup_s``.  The
workload's jobs then run in passes until ``--seconds`` have gone by, at
least one full pass; ``wall_s`` is the median pass time.  Every job's result
is checked; a job that raises or returns a wrong result is a failed job,
and the run goes on.

With ``--trace 1`` the run makes one more pass with the tracer installed
and reports the per-layer metrics instead, plus the tracing overhead: the
traced pass's wall time minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same numbers for reading, and the machine the run was made on.
A full record, with the spans of a traced run, is written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7

# One process, one core: keep numpy's BLAS pool from starting threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# What a user's `congtower` process does before its first job.
SETUP_CODE = """\
import os
from congtower import catalog, cli, homology
pres_dir = os.path.join(homology.data_dir(), "presentations")
for name in sorted(os.listdir(pres_dir)):
    homology.bundled_presentation(name)
catalog.o41_reflections()
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def program_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_program():
    """Put ``src/`` first on the path and import the benchmark's modules."""
    if not (SRC / "congtower" / "__init__.py").is_file():
        raise BenchError("no congtower sources under %s" % SRC)
    os.environ.update(THREAD_ENV)
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import jobs
    import tracer
    return jobs, tracer


def time_setup(repeats=SETUP_REPEATS):
    """Median wall time of a fresh process doing the program's set-up.
    One untimed run first, so that byte-code is compiled as on an
    installed package."""
    env = program_env()
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr.decode())
        if i:
            times.append(dt)
    return statistics.median(times)


def run_pass(job_list):
    """Run each job once; returns [(name, seconds, result, error)], where
    error is None for a correct result."""
    out = []
    for job in job_list:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception:  # a failing job is counted, not fatal
            result, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None and result != job.expected:
            error = "got %r, expected %r" % (result, job.expected)
        out.append((job.name, dt, result, error))
    return out


def machine_info():
    """Cores, versions and source revision of the run."""
    import numpy
    git = {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "git": git}


def run_workload(job_list, seconds, tracer=None):
    """Untraced passes for at least ``seconds``, then, given a tracer, one
    pass with it installed.  Returns (untraced pass times, traced pass
    time or None, every job run)."""
    passes = []
    ran = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        done = run_pass(job_list)
        passes.append(sum(dt for _, dt, _, _ in done))
        ran += done
    traced_wall = None
    if tracer is not None:
        with tracer:
            traced = run_pass(job_list)
        traced_wall = sum(dt for _, dt, _, _ in traced)
        # a traced job must return what the untraced one did
        first_pass = ran[:len(job_list)]
        for (name, dt, result, error), (_, _, first, _) in zip(traced, first_pass):
            if error is None and result != first:
                error = "traced result %r differs from untraced %r" % (result, first)
            ran.append((name, dt, result, error))
    return passes, traced_wall, ran


def main(argv=None, workloads=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        jobs, tracer_mod = import_program()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    workloads = jobs.WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(sorted(workloads))))

    info = {"workload": args.workload, "seed": args.seed, **machine_info(),
            "loadavg_start": os.getloadavg()}
    try:
        setup_s = time_setup()
    except (BenchError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    job_list = workloads[args.workload](args.seed)
    tracer = tracer_mod.Tracer() if args.trace else None
    passes, traced_wall, ran = run_workload(job_list, args.seconds, tracer)
    info["loadavg_end"] = os.getloadavg()

    failed = [(name, error) for name, _, _, error in ran if error is not None]
    wall_s = statistics.median(passes)
    if tracer is None:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_wall - wall_s
        units = dict(tracer_mod.LAYER_METRICS, **{"trace.overhead_s": "s"})
    result = {
        "correct": not failed,
        "attempted": len(ran),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }

    RECORD_DIR.mkdir(exist_ok=True)
    record = {
        "env": info,
        "passes_s": passes,
        "jobs": [{"name": n, "seconds": dt, "error": e} for n, dt, _, e in ran],
        "result": result,
        "spans": tracer.records() if tracer else [],
    }
    path = RECORD_DIR / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record) + "\n")

    print("# env %s" % json.dumps(info))
    for name, error in failed:
        print("# FAILED %s: %s" % (name, error.strip().splitlines()[-1]))
    print("# %s: jobs %d, jobs_failed %d, passes %d" % (
        args.workload, len(ran), len(failed), len(passes)))
    for name, m in result["metrics"].items():
        print("# %-36s %s %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
