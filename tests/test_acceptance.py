"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from cntbands import bands, geom, lines, oracle
from cntbands.bands import A_DEFAULT as A
from cntbands.honeycomb import SymmetryWord, apply_symmetry, distance, nearest_neighbors, nu
from cntbands.tube import compose, decompose, tube_symmetry
from conftest import ball

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)

GAP_5_0_5 = 0.7639320225002102  # dense-grid frozen constant (2e6 samples/line)


def all_chiralities(max_c0):
    return [(c0, c1, -c0 - c1)
            for c0 in range(1, max_c0 + 1)
            for c1 in range(-c0, c0)
            if c0 > c1 >= -c0 - c1]


def report(num, label, start):
    print(f"PASS criterion {num}: {label} ({time.time() - start:.2f}s)")


def test_criterion_1_graphene_anchors():
    start = time.time()
    pts = lines.special_points(A)
    for k in pts["K"]:
        assert bands.graphene_E(k, 1.0, A) <= 1e-12
    assert bands.dispersion(pts["G"][0], P_UNIFORM)[1] == 3.0
    for m in pts["M"]:
        assert abs(bands.graphene_E(m, 1.0, A) - 1.0) <= 1e-12
    step = 1e-6 / A
    for k in [*pts["G"], *pts["M"]]:
        fd = []
        for i in range(3):
            dk = np.zeros(3)
            dk[i] = step
            fd.append((bands.graphene_E(np.array(k) + dk, 1.0, A)
                       - bands.graphene_E(np.array(k) - dk, 1.0, A)) / (2 * step))
        assert math.sqrt(sum(x * x for x in fd)) < 1e-6 * A
    assert time.time() - start < 1.0
    report(1, "graphene anchors E(K)=0, E(Gamma)=3, E(M)=1, flat at Gamma/M", start)


def test_criterion_2_metallicity_theorem():
    start = time.time()
    tubes = all_chiralities(12)
    assert len(tubes) > 100
    for c in tubes:
        sym = tube_symmetry(c)
        gap = bands.band_gap(c, sym, P_UNIFORM, resolution=4096).gap
        if (c[0] - c[1]) % 3 == 0:
            assert gap < 1e-9, (c, gap)
        else:
            assert gap > 1e-3, (c, gap)
    assert time.time() - start < 120.0
    report(2, f"metallicity iff c0-c1 in 3Z over {len(tubes)} tubes (c0<=12)", start)


def test_criterion_3_oracle_equivalence():
    start = time.time()
    for c, periods in product([(4, -2, -2), (5, 0, -5), (4, -1, -3)], (4, 6)):
        sym = tube_symmetry(c)
        rep = oracle.compare_spectra(c, sym, periods, P_UNIFORM)
        assert rep.passed, (c, periods, rep.max_deviation)
        assert rep.dimension == 2 * sym.q * periods
        if c == (4, -2, -2) and periods == 6:
            assert rep.dimension == 48
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    beta = 0.3 / (A * math.sqrt(geom.inner(c, c)))
    pm = bands.magnetic_params(1.0, beta, c, A)
    assert oracle.compare_spectra(c, sym, 4, pm).passed
    assert time.time() - start < 30.0
    report(3, "finite-matrix spectra match zone folding to 12 u gamma (h + 2) (incl. magnetic)",
           start)


def exhaustive_shortest_screw(sym):
    """Independent search for the shortest screw vector with tie-break."""
    nb2 = geom.inner(sym.b, sym.b)
    target, rem = divmod(nb2, sym.q_prime)
    assert rem == 0
    radius = math.isqrt(geom.inner(sym.omega, sym.omega)) + 1
    best = None
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            w = (x, y, -x - y)
            if geom.inner(w, sym.b) != target:
                continue
            key = (geom.inner(w, w), w)
            if best is None or key < best:
                best = key
    return best[1]


def test_criterion_4_symmetry_identities():
    start = time.time()
    for c in all_chiralities(12):
        sym = tube_symmetry(c)
        nc2 = geom.inner(c, c)
        nb2 = geom.inner(sym.b, sym.b)
        assert sym.R ** 2 * nb2 == 3 * nc2
        assert sym.q % sym.n == 0
        assert geom.inner(sym.b, c) == 0
        assert sym.q_prime * geom.inner(sym.omega, sym.b) == nb2
        assert sym.omega == exhaustive_shortest_screw(sym)
    assert time.time() - start < 5.0
    report(4, "symmetry identities and shortest screw vector over c0<=12", start)


def test_criterion_5_decomposition_round_trip():
    start = time.time()
    for c in [(4, -2, -2), (5, 0, -5), (4, -1, -3)]:
        sym = tube_symmetry(c)
        # every class in one translational period
        for s, m, p in product(range(sym.q_prime), range(sym.n), (0, 1)):
            rep = compose(s, m, p, sym)
            assert compose(*decompose(rep, sym), sym) == rep
        for s, m, p in product(range(-3, 4), range(sym.n), (0, 1)):
            assert decompose(compose(s, m, p, sym), sym) == (s, m, p)
    assert time.time() - start < 5.0
    report(5, "compose/decompose inverse on classes and on (s,m,p), |s|<=3", start)


def test_criterion_6_aharonov_bohm():
    start = time.time()
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    period = lines.flux_period(c, A)
    for beta in (0.0, 0.37 * period):
        g0 = bands.band_gap(c, sym, bands.magnetic_params(1.0, beta, c, A),
                            resolution=1024).gap
        g1 = bands.band_gap(c, sym,
                            bands.magnetic_params(1.0, beta + period, c, A),
                            resolution=1024).gap
        assert abs(g0 - g1) < 1e-8
    half = bands.magnetic_params(1.0, 0.5 * period, c, A)
    assert bands.band_gap(c, sym, half, resolution=1024).gap > 0.1
    rng = np.random.default_rng(29)
    for _ in range(100):
        k = rng.uniform(-3, 3, 3)
        k -= k.mean()
        beta = rng.uniform(-2, 2) / A
        pm = bands.magnetic_params(1.0, beta, c, A)
        shifted = tuple(k[i] + beta * c[i] for i in range(3))
        assert abs(bands.dispersion(k, pm)[1]
                   - bands.dispersion(shifted, P_UNIFORM)[1]) < 1e-12
    assert time.time() - start < 60.0
    report(6, "flux periodicity, half-period gap opening, shift identity", start)


def test_criterion_7_metric_space_suite():
    start = time.time()
    sites = ball(6)
    d = np.array([[distance(v, u) for u in sites] for v in sites])
    assert (d == d.T).all()
    assert ((d == 0) == np.eye(len(sites), dtype=bool)).all()
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()
    words = [SymmetryWord(("sigma",)), SymmetryWord(("rho",)),
             SymmetryWord(("tau",)), SymmetryWord((), (3, -1, -2))]
    import random
    rng = random.Random(31)
    pairs = [(rng.choice(sites), rng.choice(sites)) for _ in range(400)]
    for w in words:
        for v, u in pairs:
            assert distance(apply_symmetry(w, v), apply_symmetry(w, u)) == \
                distance(v, u)
    inner_sites = [v for v in sites if distance((0, 0, 0), v) <= 4]
    for v in inner_sites:
        at_one = {u for u in sites if distance(v, u) == 1}
        assert set(nearest_neighbors(v)) == at_one
        for u in sites:
            if distance(v, u) == 1:
                assert nu(u) == -nu(v)
    assert time.time() - start < 1.0
    report(7, "metric axioms, isometries, neighbor characterization (radius 6)",
           start)


def test_criterion_8_gap_regression_constant():
    start = time.time()
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    gap = bands.band_gap(c, sym, P_UNIFORM).gap
    assert gap == pytest.approx(GAP_5_0_5, abs=1e-6)
    report(8, f"frozen (5,0,-5) gap {GAP_5_0_5:.12f} reproduced to 1e-6", start)
