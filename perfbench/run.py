"""Benchmark of renewalk: one workload run as a closed loop of fresh processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 30 --trace 0

One client runs one worker process at a time (``worker.py``); each worker
sets up (fresh interpreter, ``import renewalk.cli``, inputs from the seed,
a warm-up pass at small inputs), runs the workload's ops back to back with
distinct generated inputs, and checks every output against an independent
reference.  Workers are started until ``--seconds`` have passed (at least
``MIN_WORKERS``).  On a shared virtual machine the level of a timing varies
from process to process by up to ~40%, so a run reports medians over fresh
processes, each process's times scaled by a calibration task it times
itself (``scaled``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``spans.py``) beside an untraced pass in the
same process.  BLAS and OpenMP run one thread per worker process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a full record (machine info, inputs, every raw value) under
``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-tables", "mc-validate", "ness-curves")
MIN_WORKERS = 3
#: no worker is started after this, so a run ends well inside 180 s
HARD_LIMIT_S = 140.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: mean ``worker.calibration_sample`` time on the reference machine (see README)
CALIBRATION_REF_S = 0.025

def median(values):
    return statistics.median(values) if values else 0.0


def scaled(seconds: float, worker: dict) -> float:
    """Seconds at the reference machine speed: wall seconds times the
    reference calibration time over the worker's own."""
    return seconds * CALIBRATION_REF_S / worker["calibration_s"]


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def scipy_stats_import_s(stderr: str) -> float:
    """Import time of scipy.stats, with everything it pulls in, from
    ``-X importtime`` output: the summed cumulative time of the outermost
    entries named ``scipy.stats*`` (the package's own line can be missing
    when it is reached through ``from scipy import stats``)."""
    entries = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                depth = (len(name) - len(name.lstrip())) // 2
                entries.append((depth, name.strip(), int(cumulative)))
    total = 0
    ancestors = []  # lines are printed after their children, so scan backwards
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = any(a[1].startswith("scipy.stats") for a in ancestors)
        if name.startswith("scipy.stats") and not inside:
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6


def run_worker(cfg, env, trace, timeout):
    """Start one worker and wait for it; returns (result or None, stderr)."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cfg = dict(cfg, spawn_time=time.monotonic())
    cmd += [os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, f"worker {cfg['index']} killed after {timeout:.0f} s\n{exc.stderr or ''}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log = "\n".join(line for line in proc.stderr.splitlines()
                        if not line.startswith("import time:"))
        return None, f"worker {cfg['index']} exited with {proc.returncode}\n{log}"
    return json.loads(lines[-1]), proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "renewalk", "cli.py")):
        print(f"perfbench: no renewalk sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    base = os.path.join(root, ".perfbench")
    tmp = os.path.join(base, "tmp", tag)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONPATH=src)

    workers, errors = [], []
    start = time.monotonic()
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            k = len(workers) + len(errors)
            if k >= MIN_WORKERS and elapsed >= args.seconds:
                break
            if k and elapsed + longest > HARD_LIMIT_S:
                break
            cfg = {"workload": args.workload, "seed": args.seed, "index": k,
                   "trace": bool(args.trace), "defects": k == 0, "src": src,
                   "out": os.path.join(tmp, f"worker{k}"),
                   "spans_dir": os.path.join(base, "spans", tag)}
            t0 = time.monotonic()
            result, stderr = run_worker(cfg, env, args.trace,
                                        max(5.0, HARD_LIMIT_S + 30.0 - elapsed))
            longest = max(longest, time.monotonic() - t0)
            if result is None:
                errors.append(stderr[-4000:])
                print(stderr[-4000:], file=sys.stderr)
                continue
            if args.trace:
                result["import_scipy_stats_s"] = scipy_stats_import_s(stderr)
            workers.append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = [p for w in workers for p in w["passes"]]
    ops = [op for p in passes for op in p["ops"]]
    failed_ops = [op for op in ops if not op["ok"]]
    defects = [d for w in workers for d in w.get("known_defects", [])]
    attempted = len(ops) + len(errors)
    failed = len(failed_ops) + len(errors)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        names = list(traced[0]["layers"]) if traced else []
        metrics = {n: median([p["layers"][n] for p in traced]) for n in names}
        metrics["setup.import_s"] = median([w["import_s"] for w in workers])
        metrics["setup.import_scipy_stats_s"] = median(
            [w["import_scipy_stats_s"] for w in workers])
        metrics["setup.warmup_s"] = median([w["warmup_s"] for w in workers])
        metrics["trace.untraced_job_s"] = median([p["job_s"] for p in untraced])
        metrics["trace.overhead_s"] = (metrics.get("trace.job_s", 0.0)
                                       - metrics["trace.untraced_job_s"])
        metrics["ops_failed"] = failed
        metrics["defects.failed"] = sum(1 for d in defects if d["error"])
        metrics["wall.setup_s"] = median([w["setup_s"] for w in workers])
        metrics["wall.job_s"] = median([p["job_s"] for p in untraced])
        metrics["calibration_s"] = median([w["calibration_s"] for w in workers])
    else:
        metrics = {
            "setup_s": median([scaled(w["setup_s"], w) for w in workers]),
            "job_s": median([scaled(p["job_s"], w) for w in workers for p in w["passes"]]),
            "peak_rss_mib": median([w["peak_rss_mib"] for w in workers]),
        }
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "machine": next((w["machine"] for w in workers if "machine" in w), None),
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "worker_errors": errors, "known_defects": defects, "workers": workers,
    }
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload}: {len(workers)} workers, {attempted} ops, {failed} failed",
          file=sys.stderr)
    for op in failed_ops:
        print(f"  failed op {op['name']}: {op['error']}", file=sys.stderr)
    for d in defects:
        state = f"still fails: {d['error']}" if d["error"] else "now passes"
        print(f"  known defect {d['name']} {state}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
