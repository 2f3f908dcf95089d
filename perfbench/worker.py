"""One fresh benchmark process: set up, run a timed pass of one workload's
ops back to back, then check every op's output.

Started by ``run.py`` with one JSON argument; prints one JSON line.  The
parent's monotonic clock at spawn time is passed in, so ``setup_s`` covers
interpreter start, ``import renewalk.cli``, input generation and one
warm-up pass of every op at small inputs.
"""

import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

_t_main = time.perf_counter()
import renewalk.cli  # noqa: E402  (timed as setup.import_s)

_t_imported = time.perf_counter()

import random  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OP_DEADLINE_S = 15.0
CHECK_DEADLINE_S = 30.0


class DeadlineExceeded(Exception):
    """The op's signal timer fired before it returned."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _error(exc) -> str:
    if isinstance(exc, DeadlineExceeded):
        return "missed its deadline"
    return f"{type(exc).__name__}: {exc}"


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _plan(cfg, tag, small, out):
    rng = random.Random(f"{cfg['workload']}:{cfg['seed']}:{cfg['index']}:{tag}")
    return workloads.PLANS[cfg["workload"]](rng, small, out)


def calibration_sample() -> float:
    """Seconds taken by a fixed piece of work that touches no renewalk code:
    an interpreter loop, numpy vector work and ``quad`` over a Python
    integrand, the kinds of work the ops do.  Its time follows the speed the
    machine gives this process at the moment."""
    import math

    import numpy as np
    from scipy.integrate import quad

    t0 = time.perf_counter()
    total = 0
    for i in range(160_000):
        total += i * i % 7
    a = np.linspace(0.0, 1.0, 100_000)
    np.convolve(a[:3000], a[:3000])
    np.sort(a[::-1])
    for k in range(60):
        quad(lambda x: math.exp(-x * x) * math.cos(k * x), 0.0, 5.0)
    return time.perf_counter() - t0


def run_pass(plan, recorder=None):
    """Run the plan's ops back to back; returns per-op records and the
    calibration samples taken before each op and after the last, outside
    the ops' timed regions."""
    records = []
    samples = []
    for op in plan.ops:
        samples.append(calibration_sample())
        rec = {"name": op.name, "inputs": op.inputs, "ok": True, "error": None}
        t0 = time.perf_counter()
        try:
            if recorder is None:
                rec["result"] = call_with_deadline(op.run, OP_DEADLINE_S)
            else:
                with recorder.span(f"op.{op.name}", "op"):
                    rec["result"] = call_with_deadline(op.run, OP_DEADLINE_S)
        except Exception as exc:  # an op failure is data, not a crash
            rec["ok"], rec["error"] = False, _error(exc)
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    samples.append(calibration_sample())
    return records, samples


def check_pass(plan, records):
    """Check each completed op against its reference, outside the timed region."""
    bytes_written = 0
    for op, rec in zip(plan.ops, records):
        if op.writes_to is not None and os.path.isdir(op.writes_to):
            rec["bytes"] = _dir_bytes(op.writes_to)
            bytes_written += rec["bytes"]
        if rec["ok"]:
            try:
                call_with_deadline(lambda: op.check(rec["result"]), CHECK_DEADLINE_S)
            except Exception as exc:
                rec["ok"], rec["error"] = False, "check: " + _error(exc)
        rec.pop("result", None)
    return bytes_written


def run_known_defects(plan):
    out = []
    for defect in plan.known_defects:
        t0 = time.perf_counter()
        try:
            error = call_with_deadline(defect.run, defect.deadline_s)
        except Exception as exc:
            error = _error(exc)
            if isinstance(exc, DeadlineExceeded):
                error = f"missed its {defect.deadline_s:g} s deadline"
        out.append({"name": defect.name, "inputs": defect.inputs, "error": error,
                    "seconds": time.perf_counter() - t0})
    return out


def machine_info():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(cfg) -> dict:
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(renewalk.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"renewalk imported from {renewalk.cli.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _alarm)
    out = cfg["out"]

    traced_modes = [False]
    if cfg["trace"]:
        # one untraced and one traced pass per process, order alternating
        traced_modes = [False, True] if cfg["index"] % 2 == 0 else [True, False]
    plans = [_plan(cfg, f"pass{n}", False, os.path.join(out, f"pass{n}"))
             for n in range(len(traced_modes))]
    t_warm = time.perf_counter()
    warm = _plan(cfg, "warmup", True, os.path.join(out, "warmup"))
    for op in warm.ops:
        op.run()
    shutil.rmtree(os.path.join(out, "warmup"), ignore_errors=True)
    t_ready = time.perf_counter()
    setup_s = time.monotonic() - cfg["spawn_time"]
    calibration_sample()  # first call: imports and first-touch costs

    samples = []
    passes = []
    peak_rss_mib = None
    for n, (traced_pass, plan) in enumerate(zip(traced_modes, plans)):
        pass_out = os.path.join(out, f"pass{n}")
        recorder = spans.Recorder() if traced_pass else None
        if recorder is None:
            records, pass_samples = run_pass(plan)
        else:
            with spans.traced(recorder):
                records, pass_samples = run_pass(plan, recorder)
        samples += pass_samples
        if peak_rss_mib is None:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bytes_written = check_pass(plan, records)
        job_s = sum(r["seconds"] for r in records if r["ok"])
        entry = {"traced": traced_pass, "job_s": job_s, "ops": records,
                 "bytes_written": bytes_written}
        if recorder is not None:
            layers = spans.layer_metrics(recorder, job_s)
            if abs(layers["trace.residual_s"]) > 1e-6:
                raise RuntimeError(f"span self times do not add up: residual "
                                   f"{layers['trace.residual_s']:.3g} s")
            layers["cli.bytes_written"] = bytes_written
            layers["cli.bytes_per_s"] = (bytes_written / layers["cli.serialize_s"]
                                         if layers["cli.serialize_s"] else 0.0)
            entry["layers"] = layers
            spans.write_spans(recorder, os.path.join(cfg["spans_dir"],
                                                     f"worker{cfg['index']}.json"))
        passes.append(entry)
        shutil.rmtree(pass_out, ignore_errors=True)

    result = {
        "index": cfg["index"],
        "setup_s": setup_s,
        "import_s": _t_imported - _t_main,
        "warmup_s": t_ready - t_warm,
        "peak_rss_mib": peak_rss_mib,
        "calibration_s": statistics.fmean(samples),
        "calibration_samples": samples,
        "passes": passes,
    }
    if cfg["defects"]:
        defects_plan = _plan(cfg, "defects", False, os.path.join(out, "defects"))
        result["known_defects"] = run_known_defects(defects_plan)
        result["machine"] = machine_info()
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    print(json.dumps(main(config)))
