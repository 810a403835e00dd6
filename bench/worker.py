"""One benchmark process for one workload.

Imports mchasy and warms the workload up (together: the set-up time), then
runs a single closed-loop client for a fixed time: each request is sent
after the previous one has answered, timed, and its rows are checked.  With
``--trace 1`` the same requests are replayed with every layer wrapped, and
the replay must reproduce every output byte.  The last line of stdout is a
JSON object read by ``run.py``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_REQUESTS = 100      # so that p90 has at least ten samples beyond it
OVERRUN_S = 40.0        # a loop still short of MIN_REQUESTS stops this long after --seconds
BLOCK_S = 0.25          # requests go in blocks of about this length
# Host speed.  The shared host's speed swings by up to 1.5x for minutes at a
# time, far more than run-to-run noise within one speed.  A fixed kernel of
# interpreter and small-numpy work, timed before every block, tracks it: the
# reported times are rescaled by REF_CAL_S / (kernel time), that is, to the
# speed at which the kernel takes REF_CAL_S (about the fast speed of the
# 2-core host the benchmark was tuned on).  Raw times are reported beside them.
REF_CAL_S = 2.2e-3


def _cal_kernel(a):
    import math

    import numpy as np

    total = 0.0
    for i in range(600):
        total += float(np.sum(np.sin(a * (i * 1e-3)))) + math.sqrt(i + 1.0)
    return total


def host_factor():
    """Host speed relative to the reference: REF_CAL_S over the best of
    three timings of the calibration kernel."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 15)
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _cal_kernel(a)
        best = min(best, time.perf_counter() - t)
    return REF_CAL_S / best


def closed_loop(wl, seconds, min_requests, tracer=None):
    """Send requests one at a time for ``seconds`` (and at least
    ``min_requests``), each only after the previous one has answered.

    Requests go in blocks of about ``BLOCK_S``, each made of whole rounds of
    ``wl.round_size`` requests and preceded by a timing of the host speed.
    With a tracer, each block runs untraced and is then replayed traced, so
    that the overhead compares the same requests at nearly the same time, and
    the replay must give the same output bytes."""
    from workloads import Failure, Tally, digest, output_text, result_rows

    def send(req):
        wl.prepare(req)
        t = time.perf_counter()
        try:
            result = wl.call(req)
        except Exception as exc:   # a raising request is counted, not fatal
            traceback.print_exc()
            result = Failure(exc)
        return time.perf_counter() - t, result

    latencies = array("d")
    scaled = array("d")         # latencies at the reference host speed
    traced_latencies = array("d")
    tally = Tally()
    mismatched = 0
    stream = wl.requests()
    begin = time.perf_counter()
    block = wl.round_size       # blocks hold whole rounds of the request stream
    while True:
        elapsed = time.perf_counter() - begin
        n = len(latencies)
        if (elapsed >= seconds and n >= min_requests) or elapsed >= seconds + OVERRUN_S:
            break
        reqs = [next(stream) for _ in range(block)]
        digests, failed = [], []
        factor = host_factor()
        for req in reqs:
            dt, result = send(req)
            latencies.append(dt)
            scaled.append(dt * factor)
            digests.append(digest(output_text(wl, result)))
            failed.append(tally.add(req, result_rows(wl, result)))
        if tracer is not None:
            tracer.install()
            try:
                for req, d, n_failed in zip(reqs, digests, failed):
                    tracer.request_id = len(traced_latencies)
                    dt, result = send(req)
                    traced_latencies.append(dt)
                    if digest(output_text(wl, result)) != d:
                        mismatched += 1
                        tally.add_mismatch(req, n_failed)
            finally:
                tracer.uninstall()
        per = wl.round_size
        block = per * max(1, min(2 * block, int(BLOCK_S * len(latencies) / sum(latencies))) // per)
    return {"latencies": latencies, "scaled": scaled, "traced_latencies": traced_latencies,
            "tally": tally, "mismatched": mismatched}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name, seed, seconds, trace, min_requests=MIN_REQUESTS, setup_only=False,
        import_s=0.0):
    import numpy
    import scipy

    import workloads

    reference = workloads.load_reference(os.path.join(HERE, "reference.json"))
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(name, seed, reference, OUT_DIR)
    warm_reqs = wl.warmup_requests()
    t = time.perf_counter()
    wl.warm_up(warm_reqs)
    out = {"workload": name, "seed": seed, "import_s": import_s,
           "raw_setup_s": import_s + time.perf_counter() - t,
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    if setup_only:
        return out

    host_factor()               # the first call pays numpy's lazy set-up
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    loop = closed_loop(wl, seconds, min_requests, tracer)
    lat, scaled = loop["latencies"], loop["scaled"]
    tally = loop["tally"]
    busy = sum(lat)
    out.update({
        "requests": len(lat), "points": tally.attempted, "busy_s": busy,
        "points_per_s": tally.attempted / sum(scaled),
        "latency_ms_p50": 1e3 * statistics.median(scaled),
        "latency_ms_p90": 1e3 * percentile(scaled, 90),
        "raw_points_per_s": tally.attempted / busy,
        "raw_latency_ms_p50": 1e3 * statistics.median(lat),
        "raw_latency_ms_p90": 1e3 * percentile(lat, 90),
        "host_speed": sum(scaled) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if trace:
        per_layer = tracer.metrics(len(lat))
        per_layer["trace.overhead_frac"] = (sum(loop["traced_latencies"]) / busy - 1.0,
                                            "ratio")
        out["per_layer"] = per_layer
        out["mismatched_requests"] = loop["mismatched"]
        out["spans"] = len(tracer.start)
        out["spans_file"] = os.path.relpath(os.path.join(OUT_DIR, "spans-%s.npz" % name), ROOT)
        tracer.save(os.path.join(ROOT, out["spans_file"]),
                    {k: v for k, v in out.items() if k != "per_layer"})
    out.update({"attempted": tally.attempted, "failed": tally.failed,
                "unexpected": tally.unexpected, "large_t": tally.large_t,
                "by_check": tally.by_check})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t = time.perf_counter()
    import mchasy.cli  # noqa: F401
    import_s = time.perf_counter() - t
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 setup_only=args.setup_only, import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
