"""Record ``reference.json``: the u (or the error class) of every point the
workloads can draw, computed through the same calls the workloads make.

    python3 bench/record_reference.py

Run it at the commit the reference should pin; it takes about a minute.
Large-t points of painleve_warm are not recorded (see ``workloads.py``).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from run import source_record  # noqa: E402


def _value(row):
    return row.error if row.error else row.u


def _scan(wl, text, n_times, n_grid):
    req = W.Request([], config=text)
    wl.prepare(req)
    rows = W.parse_csv(wl.call(req))
    return [[_value(rows[ti * n_grid + gi]) for gi in range(n_grid)]
            for ti in range(n_times)]


def record():
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    shock = W.ShockScan(0, {}, out_dir)
    ref = {"shock": [
        _scan(shock, W.scan_config(-1.0, 0.0, beta, (), {}, W.SHOCK_TIMES, "w",
                                  W.SHOCK_W, 1),
              len(W.SHOCK_TIMES), len(W.SHOCK_W))
        for beta in W.SHOCK_BETAS]}

    cold = W.ColdScan(0, {}, out_dir)
    ref["painleve_cold"] = {zone: [None] * W.COLD_CONFIGS for zone in ("I", "II")}
    for j in range(W.COLD_CONFIGS):
        for zone in W.cold_zones(j):
            text = W.scan_config(*W.cold_config(j), W.PAINLEVE_REGIONS, W.COLD_TIMES, "s",
                                W.COLD_S, 1 if zone == "I" else 2)
            ref["painleve_cold"][zone][j] = _scan(cold, text, len(W.COLD_TIMES),
                                                  len(W.COLD_S))

    warm = W.LibraryPoints(0, {})
    warm.warm_up(warm.warmup_requests())
    ref["painleve_warm"] = {
        zone: [[[_value(row) for row in warm.call(W.Request(
                    [], points=(di, t, [W.x_of(zone, s, t) for s in W.WARM_S])))]
                for t in W.WARM_TIMES]
               for di in range(len(W.WARM_DATA))]
        for zone in ("I", "II")}
    ref["meta"] = {"recorded_with": "python3 bench/record_reference.py",
                   **source_record(ROOT)}
    return ref


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
