"""Repeat benchmark runs and summarise their spread.

    python3 perfbench/repeat.py [--workload W ...] [--seeds 1 2 ...] \
        [--trace] [--out FILE]

Runs the command of BENCHMARK.json once per workload and seed, one run at
a time, and reports for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
With ``--trace`` it adds one traced run per workload, at the first seed.
``--out`` writes every run's result and environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("# env "):]) for ln in lines
               if ln.startswith("# env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [one_run(spec, workload, seed, 0) for seed in args.seeds]
        summary = {}
        for m in spec["end_to_end"]:
            s = summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            summary[m["name"]] = s
            print("%-9s %-12s median %10.4f %-3s spread %.4f (bound %.2f)" % (
                workload, m["name"], s["median"], m["unit"], s["spread"],
                m["bound"]), flush=True)
        report[workload] = {
            "summary": summary,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "runs": runs,
        }
        print("%-9s jobs %d failed %d" % (workload, report[workload]["attempted"],
                                          report[workload]["failed"]), flush=True)
        if args.trace:
            report[workload]["traced"] = one_run(spec, workload, args.seeds[0], 1)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
