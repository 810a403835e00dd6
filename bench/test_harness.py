"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(os.path.join(HERE, "reference.json"))


def _last_json(trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "painleve_warm",
                           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(trace):
    res = _last_json(trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run(name):
    out = worker.run(name, seed=5, seconds=0.0, trace=True, min_requests=2)
    assert out["unexpected"] == 0 and out["mismatched_requests"] == 0
    calls = {k: v for k, (v, _unit) in out["per_layer"].items() if k.endswith(".calls")}
    if name == "shock":
        assert calls["painleve2.solve_pii.calls"] == 0
        assert calls["region3.u_region3.calls"] == out["points"]
    else:
        assert all(v == 0 for k, v in calls.items() if k.startswith("region3."))
    if name == "painleve_warm":
        assert calls["numerics.quad.calls"] == 0
        assert calls["painleve2.solve_pii.calls"] == 0


def _one_request(name, reference):
    wl = workloads.make(name, 3, reference, os.path.join(HERE, "out"))
    wl.warm_up(wl.warmup_requests())
    req = next(wl.requests())
    wl.prepare(req)
    return wl, req, wl.call(req)


def test_wrong_row_is_counted(reference):
    wl, req, csv = _one_request("shock", reference)
    tally = workloads.Tally()
    assert tally.add(req, wl.rows(csv)) == 0

    lines = csv.split("\n")
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)      # u of the first row, off by 1e-6
    lines[1] = ",".join(fields)
    assert tally.add(req, wl.rows("\n".join(lines))) == 1
    assert (tally.attempted, tally.failed, tally.unexpected) == (2 * len(req.expects), 1, 1)
    assert tally.by_check == {"reference": 1}


def test_raising_request_fails_every_point(reference):
    wl, req, _csv = _one_request("painleve_cold", reference)
    tally = workloads.Tally()
    rows = workloads.result_rows(wl, workloads.Failure(ValueError("boom")))
    assert tally.add(req, rows) == len(req.expects) == tally.unexpected


def test_warm_fail_share_is_the_same_in_every_run():
    # whole rounds with a fixed large-t slice: the share of failed points does
    # not depend on the seed or on how many rounds a run gets through
    shares = set()
    for seed, min_requests in ((1, 2), (2, 30)):
        out = worker.run("painleve_warm", seed, seconds=0.0, trace=False,
                         min_requests=min_requests)
        assert out["requests"] % workloads.LibraryPoints.round_size == 0
        assert out["failed"] > 0 and out["unexpected"] == 0
        shares.add(Fraction(out["failed"], out["attempted"]))
    assert len(shares) == 1


def test_large_t_drift_is_failed_but_known():
    exp = workloads.Expect("I", 0.2, 1e12, None, large_t=True)
    drifted = workloads.Row("I", 0.19999999559, 1.0, "", 0.0, 1e12)
    assert workloads.check_row(exp, drifted) == ["roundtrip"]
    assert workloads.known_defect(exp, ["roundtrip"])
    assert not workloads.known_defect(exp, ["roundtrip", "region"])
