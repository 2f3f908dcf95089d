"""Steadiness check: run independent sets of the same commit and report, per
workload and end-to-end metric, each set's median and quartile spread and
the set-to-set median difference, against the bounds in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steadiness.py

It makes SETS sets of RUNS runs of every workload at BENCHMARK.json's
``run_seconds``.  Set s uses seeds s*1000 + 1 .. s*1000 + RUNS, so the sets
share no inputs.
Runs alternate between workloads so that slow drift in the machine's load
spreads over all of them.  The summary is printed and written to
``.perfbench/steadiness-<time>.json``.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2


def spread(values):
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    values = {}  # (set, workload, metric) -> [values]
    for s in range(SETS):
        for r in range(RUNS):
            seed = (s + 1) * 1000 + r + 1
            for workload in workloads:
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"set {s} seed {seed} {workload}: {line} failed={result['failed']} "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)
                for metric, entry in result["metrics"].items():
                    values.setdefault((s, workload, metric), []).append(entry["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = []
    for workload in workloads:
        for metric, bound in bounds.items():
            sets = [values[(s, workload, metric)] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            row = {
                "workload": workload, "metric": metric, "bound": bound,
                "medians": medians,
                "spreads": [spread(v) for v in sets],
                "drift": max(medians) / min(medians) - 1.0,
                "values": sets,
            }
            report.append(row)
            print(f"{workload:13s} {metric:13s} bound {bound:.2f} "
                  f"medians {' '.join(f'{m:.4f}' for m in medians)} "
                  f"spreads {' '.join(f'{x:.3f}' for x in row['spreads'])} "
                  f"drift {row['drift']:.3f}")
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench",
                        "steadiness-" + time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + ".json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
