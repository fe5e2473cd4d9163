"""The benchmark workloads: seeded inputs, timed ops and output checks.

A workload turns a seed into an endless sequence of rounds.  A round holds
one input from every cost stratum, in a seeded order.  Any whole number of
rounds therefore has the same cost mix on every seed, while the tubes in it
differ from seed to seed.  The program sees only the generated inputs.

Every output is checked against a reference that does not run the code
being timed.  Gaps and spectra are checked against `refgaps`.  CLI output
is checked against the library functions the CLI wraps.  The checks call
the library through references taken at import, so they stay untraced
when the tracer has wrapped the module attributes.
"""

import contextlib
import heapq
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from cntbands import bands, cli, oracle, tube

import refgaps

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

GAMMA = 1.0
A = bands.A_DEFAULT               # the scale the CLI uses at its default bond length
GAP_TOL = 1e-6 * GAMMA
METAL_TOL = 1e-9 * GAMMA
ORACLE_TOL = 1e-8 * GAMMA
RESOLUTION = 4096                 # the program's default grid, used by every op

# Library functions the checks use, taken before any wrapping.
_tube_symmetry = tube.tube_symmetry
_band_table = bands.band_table
_band_gap = bands.band_gap
_dispersion = bands.dispersion

TRACED = [
    (tube, "tube_symmetry"),
    (bands, "band_gap"),
    (bands, "band_table"),
    (oracle, "build_finite_tube"),
    (oracle, "build_hamiltonian"),
    (oracle, "eigenvalues"),
    (oracle, "analytic_spectrum"),
    (oracle, "compare_spectra"),
    (cli, "main"),
]
TRACED_NAMES = [f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a in TRACED]

COUNTS = {
    "band_gap": lambda args, kwargs, res: {
        "grid_evals": args[1].n * kwargs.get("resolution",
                                             args[3] if len(args) > 3 else RESOLUTION)},
    "band_table": lambda args, kwargs, res: {"rows": len(res.kappa)},
    "build_hamiltonian": lambda args, kwargs, res: {"dim": res.shape[0]},
}


def _rounds(strata, name, seed):
    """Endless rounds of one item per stratum, in a seeded order.

    A stratum is a list of groups of candidates.  In round r stratum i takes
    group (r + i) mod len(groups), so groups alternate within a round and
    across rounds, and walks a seeded permutation of that group.
    """
    rng = random.Random(f"{name}:{seed}")
    perms = [[rng.sample(g, len(g)) for g in groups] for groups in strata]
    r = 0
    while True:
        items = []
        for i, groups in enumerate(perms):
            g = groups[(r + i) % len(groups)]
            items.append(g[(r // len(groups)) % len(g)])
        rng.shuffle(items)
        yield items
        r += 1


def _rotation_order(c):
    return math.gcd(c[0], c[1])


def check_gap(c, res, ref, p):
    """One gap-survey op: reference gap, metallicity verdict, dispersion at argmin_k."""
    if abs(res.gap - ref) > GAP_TOL:
        return False
    if res.metallic_by_theorem != refgaps.is_metallic(c):
        return False
    if (res.gap < METAL_TOL) != res.metallic_by_theorem:
        return False
    lo, hi = _dispersion(res.argmin_k, p)
    return abs((hi - lo) / 2.0 - res.gap / 2.0) <= METAL_TOL


def check_report(c, periods, rep):
    """One oracle op: dimension, verdict, and the spectrum against refgaps."""
    dim = 2 * refgaps.cell_count(c) * periods
    if rep.dimension != dim or len(rep.finite) != dim:
        return False
    if rep.passed != (rep.max_deviation < rep.tolerance) or not rep.passed:
        return False
    return float(np.max(np.abs(rep.finite - refgaps.ref_spectrum(c, periods)))) <= ORACLE_TOL


def expected_rows(c):
    """(m, kappa, E_minus, E_plus) rows that `cntbands bands` must print for c."""
    sym = _tube_symmetry(c)
    p = bands.uniform_params(GAMMA, 0.0, A)
    parts = []
    for m in range(sym.n):
        t = _band_table(c, sym, m, RESOLUTION, p)
        parts.append(np.column_stack([np.full(len(t.kappa), m), t.kappa, t.E_minus, t.E_plus]))
    return np.vstack(parts)


def check_csv(text, rows):
    """CSV parses, has the rows of `rows`, and agrees to 1e-12 past its 12 printed digits."""
    head, _, body = text.partition("\n")
    if head != "m,kappa,E_minus,E_plus":
        return False
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError:
        return False
    if data.shape != rows.shape or not np.array_equal(data[:, 0], rows[:, 0]):
        return False
    ref = rows[:, 1:]
    return bool(np.all(np.abs(data[:, 1:] - ref) <= 1e-12 * (1.0 + 5.0 * np.abs(ref))))


def check_gap_json(c, obj):
    sym = _tube_symmetry(c)
    res = _band_gap(c, sym, bands.uniform_params(GAMMA, 0.0, A), resolution=RESOLUTION)
    return (obj.get("gap") == res.gap and obj.get("argmin_m") == res.argmin_m
            and obj.get("argmin_k") == list(res.argmin_k)
            and obj.get("metallic_by_theorem") == res.metallic_by_theorem
            and obj.get("beta") == 0.0)


def check_classify_json(c, obj):
    sym = _tube_symmetry(c)
    want = {
        "c": list(c), "class": tube.tube_class(c), "n": sym.n,
        "c_prime": list(sym.c_prime), "R": sym.R, "b": list(sym.b), "q": sym.q,
        "q_prime": sym.q_prime, "omega": list(sym.omega),
        "delta": sym.line_spacing(A), "diameter_angstrom": tube.diameter(c, A),
        "metallic": refgaps.is_metallic(c),
    }
    return obj == want


def check_cli(item, code, text):
    kind, c = item
    if code != 0:
        return False
    if kind == "bands":
        return check_csv(text, expected_rows(c))
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return check_gap_json(c, obj) if kind == "gap" else check_classify_json(c, obj)


class Workload:
    """Base: `run(item)` -> (output, latency in s); `check(item, output)` -> bool."""

    name = ""
    failures = None   # the layer whose wrong results this workload's checks count

    def __init__(self, seed, trace):
        self.seed = seed
        self.trace = trace
        self.p = bands.uniform_params(GAMMA, 0.0, A)
        self.strata = self.make_strata()
        self.warm_up()

    def rounds(self):
        return _rounds(self.strata, self.name, self.seed)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def out_bytes(self, out):
        return 0

    def close(self):
        pass


class GapSurvey(Workload):
    """tube_symmetry + band_gap per tube; no tube repeats before the pool is used up.

    Not listed in BENCHMARK.json while band_gap misses minima on long chiral
    lines: about 11% of its ops fail, so it reports "correct": false.
    """

    name = "gap-survey"
    failures = "band_gap"
    BINS = 100

    def make_strata(self):
        self.ref = refgaps.load()
        pool = sorted(refgaps.survey_pool(), key=_rotation_order)
        edges = [len(pool) * k // self.BINS for k in range(self.BINS + 1)]
        return [[pool[a:b]] for a, b in zip(edges, edges[1:])]

    def warm_up(self):
        c = (130, 1, -131)   # outside the pool
        bands.band_gap(c, tube.tube_symmetry(c), self.p)

    def run(self, c):
        t0 = perf_counter()
        res = bands.band_gap(c, tube.tube_symmetry(c), self.p)
        return res, perf_counter() - t0

    def check(self, c, res):
        return check_gap(c, res, self.ref[c], self.p)


class CliExport(Workload):
    """`cntbands` subprocesses: bands CSV for n = 1, 1, 2, 3, 8, 8 plus gap x2, classify x2.

    The untraced run spawns `python -m cntbands.cli` from `launcher.py`, so
    interpreter start-up and import are inside every op, as users pay them.
    The traced run calls cli.main in-process, because spans cannot cross a
    process.
    """

    name = "cli-export"
    BANDS_ORDERS = (1, 1, 2, 3, 8, 8)

    def make_strata(self):
        pool = refgaps.survey_pool()
        by_n = {}
        for c in pool:
            by_n.setdefault(_rotation_order(c), []).append(c)
        strata = [[[("bands", c) for c in by_n[n]]] for n in self.BANDS_ORDERS]
        strata += [[[("gap", c) for c in by_n[1]]]] * 2
        strata += [[[("classify", c) for c in pool]]] * 2
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.rss_kb = 0
        self.launcher = None if self.trace else subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env)
        return strata

    def warm_up(self):
        self.run(("classify", (130, 1, -131)))
        self.rss_kb = 0

    def close(self):
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=60)
            self.launcher.stdout.close()

    def argv(self, item):
        kind, c = item
        return [kind, "--c", ",".join(map(str, c))]

    def run(self, item):
        if self.trace:
            return self.run_in_process(item)
        argv = [sys.executable, "-m", "cntbands.cli", *self.argv(item)]
        self.launcher.stdin.write(json.dumps(argv).encode() + b"\n")
        self.launcher.stdin.flush()
        head = json.loads(self.launcher.stdout.readline())
        out = self.launcher.stdout.read(head["nbytes"])
        self.rss_kb = max(self.rss_kb, head["maxrss_kb"])
        return (head["code"], out.decode(errors="replace")), head["seconds"]

    def run_in_process(self, item):
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(item))
        dt = perf_counter() - t0
        return (code, buf.getvalue()), dt

    def check(self, item, out):
        return check_cli(item, *out)

    def peak_rss_mb(self):
        return self.rss_kb / 1024.0

    def out_bytes(self, out):
        return len(out[1].encode())


class OracleVerify(Workload):
    """compare_spectra on (c, P) with dimension 2qP on a 15-step log ladder from 100 to 2000.

    Each step alternates between its 8 achiral (n > 1) and its 8 chiral (n = 1)
    candidates nearest the step's dimension.  With 15 steps the median and the
    90th percentile fall in the middle of a step, not between two.
    """

    name = "oracle-verify"
    failures = "compare_spectra"
    STEPS = 15
    NEAREST = 8

    def make_strata(self):
        kinds = ([], [])   # (c, q) for achiral n > 1 and chiral n = 1 tubes
        for c in refgaps.survey_pool():
            achiral = c[1] == 0 or c[1] == c[2]
            if c[0] <= 40 and achiral == (_rotation_order(c) > 1):
                kinds[not achiral].append((c, refgaps.cell_count(c)))
        strata = []
        for i in range(self.STEPS):
            target = 100.0 * 20.0 ** (i / (self.STEPS - 1))
            groups = []
            for kind in kinds:
                near = [(c, P, 2 * q * P) for c, q in kind
                        for P in {max(1, int(target / (2 * q))), int(target / (2 * q)) + 1}
                        if P <= 64]
                best = heapq.nsmallest(self.NEAREST, near,
                                       key=lambda x: abs(math.log(x[2] / target)))
                groups.append([(c, P) for c, P, _ in best])
            strata.append(groups)
        return strata

    def warm_up(self):
        c = (45, 0, -45)   # dimension 360, not a ladder tube
        oracle.compare_spectra(c, tube.tube_symmetry(c), 2, self.p, tol=ORACLE_TOL)

    def run(self, item):
        c, periods = item
        t0 = perf_counter()
        rep = oracle.compare_spectra(c, tube.tube_symmetry(c), periods, self.p, tol=ORACLE_TOL)
        return rep, perf_counter() - t0

    def check(self, item, rep):
        return check_report(*item, rep)


WORKLOADS = {w.name: w for w in (GapSurvey, CliExport, OracleVerify)}
