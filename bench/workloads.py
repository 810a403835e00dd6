"""The three benchmark workloads: input pools, seeded request streams,
request execution and the output check.

Every input is drawn from a finite pool, so that ``reference.json`` (recorded
by ``record_reference.py``) holds the expected ``u`` of every point any seed
can produce.  Only the draw order, the request composition and the per-request
scattering data change with the seed.

mchasy is reached through module attributes (``mchasy.classify``,
``cli.main``), never through names bound at import, so that the traced pass
sees the wrappers that ``tracing.py`` installs.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import mchasy
from mchasy import cli

WORKLOADS = ("shock", "painleve_cold", "painleve_warm")

# A reported s (zones I/II) or shock-window ratio w (zone III) must come back
# to within this of the requested value.  Over the pools below the seed drifts
# by at most 4.5e-10 for t <= 1e10, and by up to 7e-7 for t in [1e12, 1e15].
ROUNDTRIP_TOL = 1e-9
# |u - u_ref| <= U_ATOL + U_RTOL * |u_ref - 1|: u - 1 carries the asymptotic
# correction, so it is compared relatively.
U_ATOL = 1e-13
U_RTOL = 1e-6

CSV_HEADER = "x,t,region,s,u,err_order,error"


def _half_decades(lo, hi):
    return tuple(10.0 ** (0.5 * k) for k in range(2 * lo, 2 * hi + 1))


# shock: zone III of generic data (|kappa_r| = 1).  u depends on the data only
# through beta (C_R = beta * kappa_r^2 / 6 at p = q = 1), so the reference is
# keyed by (beta, t, w); the sign of kappa_r and alpha are drawn freely.
SHOCK_BETAS = (0.05, 0.15, 0.4, 1.0, 2.0, 4.0)
SHOCK_TIMES = _half_decades(4, 10)
SHOCK_W = (2.95, 3.35, 3.75, 4.15, 4.55, 4.95, 5.35, 5.7)
# Request sizes vary, so that request latencies spread over a wide range and
# their percentiles move smoothly, not in steps, with the host's speed.
SHOCK_POINTS_PER_REQUEST = (1, 2, 3, 4, 5)

# Painleve zones, widened so that |s| <= 14 stays inside zones I and II.
PAINLEVE_REGIONS = {"c1": 48.0, "c2": 15.0}

# painleve_cold: one configuration per request, parsed and solved from scratch.
COLD_KAPPAS = (0.2, -0.35, 0.5, -0.65, 0.8, 1.0, -0.3, 0.6, -0.85, 0.9, -0.5, -1.0)
COLD_BETAS = (0.08, 0.25, 0.6, 1.5)
COLD_ALPHAS = (0.0, 0.7, -1.3)
# spectrum representatives exp(-i*theta), 0-2 per configuration
COLD_SPECTRA = ((), (0.6,), (0.35, 1.1), (1.25,))
COLD_CONFIGS = 24
COLD_TIMES = (1e4, 1e6, 1e8, 1e10)
COLD_S_MAIN = tuple(float(s) for s in range(-10, 11))
COLD_S_DEEP = (-11.75, -11.25, -10.75, -10.25)   # each s < -10 gets its own PII solve
COLD_S = COLD_S_DEEP + COLD_S_MAIN
COLD_MAIN_PER_REQUEST = 5
COLD_DEEP_COUNTS = (0, 0, 0, 1, 2)      # 40 % of grids reach s < -10

# painleve_warm: long-lived data and one SolutionCache.
WARM_DATA = ((0.3, 0.0, 0.5, ()), (0.6, 0.7, 0.25, (0.6,)),
             (-0.8, -1.3, 1.5, (0.35, 1.1)), (0.95, 0.4, 0.08, (1.25,)))
# (-10, 14]: s > 10 uses the airy tail.  s = -10 is left out because round-off
# in the s -> x -> s trip can put it below -10, where each point gets its own
# PII solve (painleve_cold measures that).
WARM_S = tuple(-10.0 + 0.25 * k for k in range(1, 97))
WARM_TIMES = _half_decades(4, 10)
# ROADMAP item 4: the scan drifts off the requested s at large t.  These
# points stay in the workload so that the drift shows in fail_frac; they have
# no reference u, since the seed evaluates them at the drifted s.
WARM_LARGE_TIMES = _half_decades(12, 15)
# The large-t slice of every round: one request (data index, zone, s values)
# per t above.  The points were drawn once from a fixed stream; three draws at
# t <= 3.2e12 that the reference commit moved by less than ROUNDTRIP_TOL were
# redrawn, so that every point of the slice shows the drift there.
WARM_LARGE_SLICE = ((1, "II", (-4.5, 4.5)), (1, "II", (3.75, 11.25)), (1, "I", (-7.5, 10.25)),
                    (2, "II", (-0.5, 6.5)), (1, "II", (-1.75, 8.5)), (3, "I", (4.0, 13.75)),
                    (1, "I", (-6.25, 1.25)))
# A request is one caller's profile of 1-16 points.  About 1 point in 6 is in
# the airy tail, which costs about 3 times as much as the rest; single-point
# requests would put p90 on the edge between the two costs.
WARM_POINTS_PER_REQUEST = tuple(range(1, 17))


def cold_config(j):
    """(kappa_r, alpha, beta, spectrum thetas) of pool configuration j."""
    return (COLD_KAPPAS[j % 12], COLD_ALPHAS[j % 3], COLD_BETAS[j % 4],
            COLD_SPECTRA[(j // 3) % 4])


def cold_zones(j):
    # zone II needs |r(2 + sqrt 3)| < 1 and T finite, which |kappa_r| = 1 breaks
    return ("I",) if abs(cold_config(j)[0]) == 1.0 else ("I", "II")


def spectrum_text(thetas):
    reps = ["%r%+ri" % (math.cos(th), -math.sin(th)) for th in thetas]
    return "[" + ", ".join(reps) + "]"


def x_of(zone, coord, t):
    """Space coordinate of a point given by its zone coordinate (s, or w in zone III)."""
    if zone == "I":
        xi = 2.0 + 6.0 ** (2.0 / 3.0) * coord * t ** (-2.0 / 3.0)
    elif zone == "II":
        xi = -0.25 - (9.0 / 8.0) ** (1.0 / 3.0) * coord * t ** (-2.0 / 3.0)
    else:
        xi = 2.0 - coord * math.log(t) ** (2.0 / 3.0) * t ** (-2.0 / 3.0)
    return xi * t


def w_of(x, t):
    return (2.0 - x / t) * t ** (2.0 / 3.0) / math.log(t) ** (2.0 / 3.0)


# ----------------------------------------------------------------------
# Requests and rows
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Expect:
    """What one requested point must come back as."""

    zone: str
    coord: float          # requested s (zones I/II) or w (zone III)
    t: float
    ref: object           # reference u (float), error class (str), or None if exempt
    large_t: bool = False


@dataclass
class Row:
    region: str
    s: float | None
    u: float | None
    error: str            # exception class name, "" if none
    x: float
    t: float


@dataclass
class Request:
    expects: list
    config: str | None = None      # CLI workloads
    points: tuple | None = None    # painleve_warm: (data index, t, [x, ...])


class Failure:
    """Result of a request that raised instead of answering."""

    def __init__(self, exc):
        self.error = type(exc).__name__

    def __repr__(self):
        return "Failure(%s)" % self.error


def check_row(exp, row):
    """Names of the checks ``row`` fails against ``exp``; empty if it passes."""
    if row is None:
        return ["missing"]
    failed = []
    if row.error and row.error != exp.ref:
        failed.append("error")
    if row.region != exp.zone:
        failed.append("region")
    if exp.zone == "III":
        coord = w_of(row.x, row.t) if row.s is None else math.inf
    else:
        coord = row.s if row.s is not None else math.inf
    if row.t != exp.t or not abs(coord - exp.coord) <= ROUNDTRIP_TOL:
        failed.append("roundtrip")
    if isinstance(exp.ref, float):
        if row.u is None or not abs(row.u - exp.ref) <= U_ATOL + U_RTOL * abs(exp.ref - 1.0):
            failed.append("reference")
    elif isinstance(exp.ref, str) and row.error != exp.ref:
        failed.append("reference")
    return failed


def known_defect(exp, failed):
    """True if every failed check is the documented large-t drift."""
    return exp.large_t and failed == ["roundtrip"]


class Tally:
    """Counts of checked points.  ``failed`` counts every point that fails a
    check; ``unexpected`` leaves out the known large-t drift."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.large_t = 0
        self.by_check = collections.Counter()

    def add(self, req, rows):
        """Check the rows of one request; returns how many of its points failed."""
        if len(rows) != len(req.expects):
            rows = [None] * len(req.expects)
        n_failed = 0
        for exp, row in zip(req.expects, rows):
            failed = check_row(exp, row)
            self.attempted += 1
            self.large_t += exp.large_t
            if failed:
                n_failed += 1
                self.by_check.update(failed)
                if not known_defect(exp, failed):
                    self.unexpected += 1
        self.failed += n_failed
        return n_failed

    def add_mismatch(self, req, already_failed):
        """A traced replay changed the request's output: all its points fail."""
        n = len(req.expects) - already_failed
        self.failed += n
        self.unexpected += n
        self.by_check["traced_bytes"] += len(req.expects)


def _num(field):
    return float(field) if field else None


def parse_csv(text):
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("not a scan CSV: %r" % text[:80])
    rows = []
    for line in lines[1:-1]:
        x, t, region, s, u, _order, error = line.split(",", 6)
        rows.append(Row(region, _num(s), _num(u), error.split(":", 1)[0],
                        float(x), float(t)))
    return rows


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


def result_rows(wl, result):
    """Rows of a request's result; none if the request raised or the output
    does not parse, so that every point of it fails the check."""
    if isinstance(result, Failure):
        return []
    try:
        return wl.rows(result)
    except ValueError:
        return []


def output_text(wl, result):
    return repr(result) if isinstance(result, Failure) else wl.output_text(result)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class CliScan:
    """Closed-loop client of ``mchasy scan``: one config file per request,
    run in process through ``cli.main`` with the CSV captured from stdout."""

    name = None
    round_size = 1      # requests the closed loop runs together (see LibraryPoints)

    def __init__(self, seed, reference, out_dir):
        self.seed = seed
        self.ref = reference.get(self.name)
        self.config_path = os.path.join(out_dir, "%s-request.ini" % self.name)

    def requests(self):
        return self._stream(random.Random("%s/%d" % (self.name, self.seed)))

    def warmup_requests(self):
        # fixed, so that setup_s measures the same work under every seed
        return [next(self._stream(random.Random("%s/warmup" % self.name)))]

    def warm_up(self, reqs):
        for req in reqs:
            self.prepare(req)
            self.call(req)

    def prepare(self, req):
        with open(self.config_path, "w") as fh:
            fh.write(req.config)

    def call(self, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["scan", "--config", self.config_path])
        if code != 0:
            raise RuntimeError("mchasy scan exited with %r" % code)
        return buf.getvalue()

    @staticmethod
    def rows(result):
        return parse_csv(result)

    @staticmethod
    def output_text(result):
        return result


class ShockScan(CliScan):
    name = "shock"

    def _stream(self, rng):
        while True:
            # sizes dealt from shuffled decks, as ColdScan deals its kinds
            sizes = list(SHOCK_POINTS_PER_REQUEST)
            rng.shuffle(sizes)
            for size in sizes:
                bi = rng.randrange(len(SHOCK_BETAS))
                ti = rng.randrange(len(SHOCK_TIMES))
                wis = sorted(rng.sample(range(len(SHOCK_W)), size))
                t = SHOCK_TIMES[ti]
                text = scan_config(rng.choice((1.0, -1.0)), round(rng.uniform(-1.5, 1.5), 3),
                                   SHOCK_BETAS[bi], (), {}, [t], "w",
                                   [SHOCK_W[i] for i in wis], 1)
                yield Request([Expect("III", SHOCK_W[i], t, self.ref[bi][ti][i])
                               for i in wis], config=text)


class ColdScan(CliScan):
    name = "painleve_cold"

    def _stream(self, rng):
        # Request kinds differ in cost by up to 10x (one IVP solve against a
        # BVP and two extra solves).  Each draw is dealt from its own shuffled
        # deck: every 44 requests hold each (config, zone) once, every 5 each
        # count of deep points, every 4 each t.  So every run, and every part
        # of a run, has the same mix, and the seed moves the percentiles only
        # through the order and the per-kind details.
        n_deep = len(COLD_S_DEEP)
        pairs = [(j, zone) for j in range(COLD_CONFIGS) for zone in cold_zones(j)]
        deeps = _deal(rng, COLD_DEEP_COUNTS)
        times = _deal(rng, range(len(COLD_TIMES)))
        for j, zone in _deal(rng, pairs):
            deep, ti = next(deeps), next(times)
            sis = sorted(rng.sample(range(n_deep, len(COLD_S)), COLD_MAIN_PER_REQUEST)
                         + rng.sample(range(n_deep), deep))
            t = COLD_TIMES[ti]
            text = scan_config(*cold_config(j), PAINLEVE_REGIONS, [t], "s",
                               [COLD_S[i] for i in sis], 1 if zone == "I" else 2)
            table = self.ref[zone][j]
            yield Request([Expect(zone, COLD_S[i], t, table[ti][i]) for i in sis],
                          config=text)


def _deal(rng, items):
    """Endless stream of ``items``, each pass in a fresh shuffled order."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def scan_config(kappa, alpha, beta, thetas, regions, times, kind, grid, grid_region):
    lines = ["[scattering]", "kappa_r = %r" % kappa, "alpha = %r" % alpha,
             "beta = %r" % beta, "spectrum = %s" % spectrum_text(thetas), ""]
    if regions:
        lines += ["[regions]"] + ["%s = %r" % kv for kv in sorted(regions.items())] + [""]
    lines += ["[scan]", "t = " + ", ".join(map(repr, times)),
              "%s = %s" % (kind, ", ".join(map(repr, grid))),
              "grid_region = %d" % grid_region, "", "[output]", "path = -",
              "format = csv", ""]
    return "\n".join(lines)


def _data(kappa, alpha, beta, thetas):
    r = mchasy.ReflectionCoefficient.family(kappa, alpha, beta)
    reps = [complex(math.cos(th), -math.sin(th)) for th in thetas]
    return mchasy.ScatteringData(r, mchasy.DiscreteSpectrum(reps))


class LibraryPoints:
    """The README quick-start pattern: long-lived ScatteringData objects and
    one SolutionCache, ``classify`` then ``u_region1``/``u_region2`` per point.
    A request is one caller's short profile: a few s at one (data, zone, t)."""

    name = "painleve_warm"
    round_size = len(WARM_POINTS_PER_REQUEST) + len(WARM_LARGE_TIMES)

    def __init__(self, seed, reference):
        self.seed = seed
        self.ref = reference.get(self.name)
        self.constants = None
        self.pool = None
        self.cache = None

    def requests(self):
        # A round deals one request of each size, shuffled, together with the
        # large-t slice.  The slice is the same in every round and under every
        # seed, and the closed loop runs whole rounds, so the points that
        # drift, and with them fail_frac, are the same share in every run.
        rng = random.Random("%s/%d" % (self.name, self.seed))
        large = self.large_t_requests()
        while True:
            deck = list(WARM_POINTS_PER_REQUEST) + [None] * len(large)
            rng.shuffle(deck)
            large_iter = iter(large)
            for size in deck:
                if size is None:
                    yield next(large_iter)
                    continue
                di = rng.randrange(len(WARM_DATA))
                zone = rng.choice(("I", "II"))
                sis = sorted(rng.sample(range(len(WARM_S)), size))
                ti = rng.randrange(len(WARM_TIMES))
                t = WARM_TIMES[ti]
                table = self.ref[zone][di][ti]
                yield self._request(di, zone, t, [Expect(zone, WARM_S[i], t, table[i])
                                                  for i in sis])

    def large_t_requests(self):
        return [self._request(di, zone, t, [Expect(zone, s, t, None, large_t=True) for s in ss])
                for t, (di, zone, ss) in zip(WARM_LARGE_TIMES, WARM_LARGE_SLICE)]

    @staticmethod
    def _request(di, zone, t, expects):
        return Request(expects, points=(di, t, [x_of(zone, e.coord, t) for e in expects]))

    def warmup_requests(self):
        # one point per (data, zone) fills the SolutionCache and the zone-II
        # constants that every timed request then hits
        return [Request([Expect(zone, 0.0, 1e6, None)], points=(di, 1e6, [x_of(zone, 0.0, 1e6)]))
                for di in range(len(WARM_DATA)) for zone in ("I", "II")]

    def warm_up(self, reqs):
        self.constants = mchasy.RegionConstants(**PAINLEVE_REGIONS)
        self.pool = [_data(*cfg) for cfg in WARM_DATA]
        self.cache = mchasy.SolutionCache()
        for req in reqs:
            self.call(req)

    def prepare(self, req):
        pass

    def call(self, req):
        di, t, xs = req.points
        return [self._point(self.pool[di], x, t) for x in xs]

    def _point(self, data, x, t):
        point = mchasy.SpaceTimePoint(x, t)
        try:
            tag = mchasy.classify(point, self.constants)
            if tag is mchasy.RegionTag.R_I:
                res = mchasy.u_region1(point, data, self.cache, self.constants)
            elif tag is mchasy.RegionTag.R_II:
                res = mchasy.u_region2(point, data, self.cache, self.constants)
            else:
                return Row(tag.value, None, None, "", x, t)
        except mchasy.MchasyError as exc:
            return Row("", None, None, type(exc).__name__, x, t)
        return Row(tag.value, res.diagnostics["s"], res.u, "", x, t)

    @staticmethod
    def rows(result):
        return result

    @staticmethod
    def output_text(result):
        return repr([(r.region, r.s, r.u, r.error) for r in result])


def load_reference(path):
    with open(path) as fh:
        return json.load(fh)


def make(name, seed, reference, out_dir):
    if name == "shock":
        return ShockScan(seed, reference, out_dir)
    if name == "painleve_cold":
        return ColdScan(seed, reference, out_dir)
    if name == "painleve_warm":
        return LibraryPoints(seed, reference)
    raise ValueError("unknown workload %r" % name)
