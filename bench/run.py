"""Benchmark of the mchasy zone evaluators.

    python3 bench/run.py [--workload shock|painleve_cold|painleve_warm|all]
                         [--seed N] [--seconds S] [--trace 0|1]

For each workload a fresh worker process (``worker.py``) imports mchasy,
warms up, and runs one closed-loop client for ``--seconds``; four more fresh
processes repeat only the import and warm-up, and ``setup_s`` is the median
of the five.  Every output row is checked (``workloads.check_row``).  With
``--trace 1`` the worker replays the same requests with every layer traced
and the per-layer metrics are reported instead.

The output is a table of every metric with its unit and sample count, then
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--workload all`` the metric names carry a ``<workload>.`` prefix.
This file uses only the standard library: mchasy runs in the workers.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("shock", "painleve_cold", "painleve_warm")
SETUP_PROCESSES = 5
BUDGET_S = 170.0        # per workload; the whole run must end within 180 s
# One thread per process: nr7_coeffs calls lstsq, which would otherwise start
# as many BLAS threads as the machine has cores.  MCH_ASY_THREADS stays unset
# so that scans run on their default single-thread path.
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
END_TO_END = (("setup_s", "s"), ("points_per_s", "1/s"), ("latency_ms_p50", "ms"),
              ("latency_ms_p90", "ms"), ("peak_rss_mb", "MB"))


def source_record(root=ROOT):
    """Line count and digest of src/, and the git commit when there is one."""
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                with open(path, "rb") as fh:
                    body = fh.read()
                digest.update(os.path.relpath(path, src).encode() + b"\0" + body)
                lines += body.count(b"\n")
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except OSError:      # no git on this machine
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest()}


def worker_env():
    env = dict(os.environ)
    env.pop("MCH_ASY_THREADS", None)
    env.update(PINNED_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # the same import work on every run, no files written
    return env


def run_worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = run_worker(base + ["--trace", str(trace)], deadline)
    if not trace:
        # the measuring worker was the first process to import this checkout;
        # the probes repeat only its set-up
        probes = [result] + [run_worker(base + ["--setup-only"], deadline)
                             for _ in range(SETUP_PROCESSES - 1)]
        result["setup_samples"] = [p["raw_setup_s"] for p in probes]
        result["raw_setup_s"] = statistics.median(result["setup_samples"])
        # a set-up is too short to time the host speed beside it; the speed
        # over the requests, minutes-stable, stands in for it
        result["setup_s"] = result["raw_setup_s"] * result["host_speed"]
    return result


def metrics_of(result, trace):
    if trace:
        return {name: {"value": val, "unit": unit}
                for name, (val, unit) in result["per_layer"].items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def report(result, trace):
    name = result["workload"]
    req, pts = result["requests"], result["points"]
    samples = {"setup_s": "%d fresh processes" % len(result.get("setup_samples", ())),
               "points_per_s": "%d points" % pts,
               "latency_ms_p50": "%d requests" % req,
               "latency_ms_p90": "%d requests" % req,
               "peak_rss_mb": "1 process"}
    fail_frac = result["failed"] / result["attempted"]
    if not trace:
        for metric, unit in END_TO_END:
            raw = result.get("raw_" + metric)
            print("%-14s %-16s %14.6g %-6s %-20s %s" % (
                name, metric, result[metric], unit, samples[metric],
                "" if raw is None else "raw %.6g %s" % (raw, unit)))
        print("%-14s host speed %.3f of the reference during the requests"
              % (name, result["host_speed"]))
    print("%-14s %-16s %14.6g %-6s %d of %d points (large-t share %.4f)"
          % (name, "fail_frac", fail_frac, "1", result["failed"], result["attempted"],
             result["large_t"] / result["attempted"]))
    print("%-14s check: failed checks %s, unexpected failures %d"
          % (name, json.dumps(result["by_check"], sort_keys=True), result["unexpected"]))
    if trace:
        pl = result["per_layer"]
        print("%-14s traced replay: %d requests, %d spans (%s), overhead %.1f%%, "
              "%d requests with changed output"
              % (name, req, result["spans"], result["spans_file"],
                 100 * pl["trace.overhead_frac"][0], result["mismatched_requests"]))
        for metric, (val, unit) in pl.items():
            if metric.endswith("p50_call_ms"):
                print("%-14s kernel %-44s %s" % (name, metric, "%12.4f ms per call (median)" % val
                                                 if val else "not called"))
        for metric, (val, unit) in pl.items():
            if not metric.endswith("p50_call_ms"):
                print("%-14s layer  %-44s %12.6g %s" % (name, metric, val, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mchasy", "__init__.py")):
        print("error: no mchasy sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(measure(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1

    first = results[0]
    env = {"python": first["python"], "numpy": first["numpy"], "scipy": first["scipy"],
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           **source_record()}
    print("environment: %s" % json.dumps(env))
    print("seed %d, %g s per workload, one closed-loop client, trace %d"
          % (args.seed, args.seconds, args.trace))
    for res in results:
        report(res, args.trace)

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, val in metrics_of(res, args.trace).items():
            metrics[prefix + name] = val
    correct = all(r["unexpected"] == 0 and r.get("mismatched_requests", 0) == 0
                  for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
