"""Span tracing of the mchasy layers from outside the package.

``Tracer.install`` wraps the public functions named in ``TRACED`` under every
mchasy module name that bound them (``region3.quad_band`` and
``numerics.quad_band`` are the same function bound twice), and methods on
their class.  Each call records a span: name, start, end, parent span and
request id, kept in compact arrays and written out by ``Tracer.save``.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

TRACED = {
    "numerics": ("airy", "jacobi_theta", "quad", "quad_band", "quad_pv",
                 "quad_real_line", "find_root"),
    "painleve2": ("solve_pii", "eval_pii", "SolutionCache.get"),
    "phase": ("classify", "scaled_s"),
    "scattering": ("ReflectionCoefficient.__call__", "check_symmetries",
                   "t_i_and_t1", "log_T_i"),
    "region1": ("u_region1",),
    "region2": ("region2_constants", "lambda_ab", "f_II", "u_region2"),
    "region3": ("solve_band", "build_geometry", "abel", "delta0", "h1_limit",
                "nr7_matrix", "nr7_coeffs", "u_region3"),
    "cli": ("parse_config", "run_scan", "write_output"),
}
SPAN_NAMES = tuple("%s.%s" % (mod, fn) for mod, fns in TRACED.items() for fn in fns)
FAILS_REPORTED = ("region1.u_region1", "region2.u_region2", "region3.u_region3",
                  "painleve2.solve_pii", "numerics.quad", "numerics.find_root",
                  "region3.build_geometry")


class Tracer:
    def __init__(self):
        self.name_id = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.fails = [0] * len(SPAN_NAMES)
        self.request_id = -1
        self.quad_err_sum = 0.0
        self.bvp_spans = []
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, nid, on_result=None):
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, fails = self.start, self.end, self.fails

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                fails[nid] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(idx, result)
            return result

        return traced

    def _on_quad(self, idx, result):
        self.quad_err_sum += float(result.error)

    def _on_solve(self, idx, result):
        if result.kind == "bvp":
            self.bvp_spans.append(idx)

    def install(self):
        """Wrap every traced function wherever an mchasy module bound it."""
        hooks = {"numerics.quad": self._on_quad, "painleve2.solve_pii": self._on_solve}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mchasy" or n.startswith("mchasy.")]
        for nid, span in enumerate(SPAN_NAMES):
            mod_name, qual = span.split(".", 1)
            mod = importlib.import_module("mchasy." + mod_name)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, nid, hooks.get(span)))
                continue
            original = getattr(mod, qual)
            wrapper = self._wrap(original, nid, hooks.get(span))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._set(m, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def metrics(self, n_requests):
        """Per-layer metrics: calls, self time per request, ratios, kernel table."""
        nid, parent, start, end = self.arrays()
        n_names = len(SPAN_NAMES)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = np.bincount(nid, weights=dur - child, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        per_req = max(n_requests, 1)

        out = {}
        for k, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = (int(calls[k]), "count")
            out[name + ".self_ms"] = (self_ns[k] / 1e6 / per_req, "ms")
        for name in FAILS_REPORTED:
            out[name + ".fails"] = (self.fails[ids[name]], "count")
        out["numerics.quad.err_sum"] = (self.quad_err_sum, "abs")

        def children(name, weights=None):
            # per span: number (or summed duration) of its direct children called name
            mask = (nid == ids[name]) & has_parent
            return np.bincount(parent[mask], weights=None if weights is None else weights[mask],
                               minlength=len(dur))

        solves = calls[ids["painleve2.solve_pii"]]
        gets = calls[ids["painleve2.SolutionCache.get"]]
        out["painleve2.solve_pii.bvp_calls"] = (len(self.bvp_spans), "count")
        out["painleve2.cache_hit_ratio"] = (1.0 - solves / gets if gets else 0.0, "ratio")
        r2 = nid == ids["region2.region2_constants"]
        r2_cold = r2 & (children("scattering.t_i_and_t1") > 0)
        n_r2 = int(r2.sum())
        out["region2.region2_constants.hit_ratio"] = (
            1.0 - int(r2_cold.sum()) / n_r2 if n_r2 else 0.0, "ratio")

        # kernel table: median over calls of each call's duration (children
        # included), in the units of the ROADMAP baseline table
        def p50(mask, minus=None):
            vals = dur[mask] if minus is None else (dur - minus)[mask]
            return float(np.median(vals)) / 1e6 if vals.size else 0.0

        bvp = np.zeros(len(dur), dtype=bool)
        bvp[self.bvp_spans] = True
        solve = nid == ids["painleve2.solve_pii"]
        geom = nid == ids["region3.build_geometry"]
        kernels = {
            "numerics.airy.p50_call_ms": p50(nid == ids["numerics.airy"]),
            "numerics.jacobi_theta.p50_call_ms": p50(nid == ids["numerics.jacobi_theta"]),
            "numerics.quad.p50_call_ms": p50(nid == ids["numerics.quad"]),
            "painleve2.solve_pii.ivp_p50_call_ms": p50(solve & ~bvp),
            "painleve2.solve_pii.bvp_p50_call_ms": p50(solve & bvp),
            "region3.solve_band.p50_call_ms": p50(nid == ids["region3.solve_band"]),
            "region3.build_geometry.p50_call_ms": p50(geom),
            "region3.build_geometry.excl_nr7_p50_call_ms":
                p50(geom, minus=children("region3.nr7_coeffs", dur)),
            "region3.nr7_coeffs.p50_call_ms": p50(nid == ids["region3.nr7_coeffs"]),
            "region3.h1_limit.p50_call_ms": p50(nid == ids["region3.h1_limit"]),
            "region2.region2_constants.cold_p50_call_ms": p50(r2_cold),
        }
        for name, val in kernels.items():
            out[name] = (val, "ms")
        return out

    def save(self, path, meta):
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(SPAN_NAMES), name_id=nid, parent=parent,
                 request=np.frombuffer(self.request, dtype=np.int32),
                 start_ns=start, end_ns=end, meta=np.array(json.dumps(meta)))

