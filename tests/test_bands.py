import math

import numpy as np
import pytest

from cntbands import bands, geom
from cntbands.bands import A_DEFAULT as A
from cntbands.tube import tube_symmetry

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)


def k_images(point, a):
    """Periodic images of a k triple under the reciprocal translations."""
    g1 = tuple(2 * math.pi / (3 * a) * x for x in (2, -1, -1))
    g2 = tuple(2 * math.pi / (3 * a) * x for x in (-1, 2, -1))
    for i in range(-3, 4):
        for j in range(-3, 4):
            yield tuple(point[l] + i * g1[l] + j * g2[l] for l in range(3))


def test_dispersion_at_gamma():
    assert bands.dispersion((0.0, 0.0, 0.0), P_UNIFORM) == (-3.0, 3.0)


def test_dispersion_at_k_vertex():
    u = 2 * math.pi / (3 * A)
    emin, eplus = bands.dispersion((u, -u, 0.0), P_UNIFORM)
    assert eplus == pytest.approx(0.0, abs=1e-12)
    assert emin == pytest.approx(0.0, abs=1e-12)


def test_dispersion_halfway():
    emin, eplus = bands.dispersion((math.pi / A, -math.pi / A, 0.0), P_UNIFORM)
    assert eplus == pytest.approx(1.0, abs=1e-12)
    assert emin == pytest.approx(-1.0, abs=1e-12)


def test_graphene_E_periodicity_and_shift():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = rng.uniform(-5, 5, 3)
        e = bands.graphene_E(k, 1.0, A)
        assert bands.graphene_E((k[0] + 2 * math.pi / A, k[1], k[2]), 1.0, A) == \
            pytest.approx(e, abs=1e-10)
        alpha = rng.uniform(-3, 3)
        assert bands.graphene_E(k + alpha, 1.0, A) == pytest.approx(e, abs=1e-10)


def test_graphene_E_at_m_point():
    h = math.pi / (3 * A)
    assert bands.graphene_E((2 * h, -h, -h), 1.0, A) == pytest.approx(1.0, abs=1e-12)


def test_in_brillouin():
    assert bands.in_brillouin((0.0, 0.0, 0.0), A)
    u = 2 * math.pi / (3 * A)
    assert bands.in_brillouin((u, -u, 0.0), A)  # boundary vertex
    assert not bands.in_brillouin((math.pi / A, -math.pi / A, 0.0), A)


def test_special_points_values():
    pts = bands.special_points(A)
    assert len(pts["K"]) == 6 and len(pts["M"]) == 6
    assert bands.dispersion(pts["Gamma"], P_UNIFORM)[1] == 3.0
    for k in pts["K"]:
        assert bands.graphene_E(k, 1.0, A) == pytest.approx(0.0, abs=1e-12)
        assert bands.in_brillouin(k, A)
    for m in pts["M"]:
        assert bands.graphene_E(m, 1.0, A) == pytest.approx(1.0, abs=1e-12)


def test_gamma_is_maximum():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = rng.uniform(-2 * math.pi / (3 * A), 2 * math.pi / (3 * A), 3)
        k -= k.mean()
        assert bands.graphene_E(k, 1.0, A) <= 3.0 + 1e-12


def test_gradient_vanishes_at_stationary_points():
    pts = bands.special_points(A)
    assert bands.gradient(pts["Gamma"], P_UNIFORM) == pytest.approx((0, 0, 0),
                                                                    abs=1e-12)
    for m in pts["M"]:
        assert bands.gradient(m, P_UNIFORM) == pytest.approx((0, 0, 0), abs=1e-10)


def test_gradient_singular_at_k():
    u = 2 * math.pi / (3 * A)
    with pytest.raises(bands.SingularPointError):
        bands.gradient((u, -u, 0.0), P_UNIFORM)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    step = 1e-6 / A
    checked = 0
    while checked < 100:
        k = rng.uniform(-3, 3, 3)
        k -= k.mean()
        try:
            g = bands.gradient(k, P_UNIFORM)
        except bands.SingularPointError:
            continue
        fd = []
        for i in range(3):
            dk = np.zeros(3)
            dk[i] = step
            fd.append((bands.dispersion(k + dk, P_UNIFORM)[1]
                       - bands.dispersion(k - dk, P_UNIFORM)[1]) / (2 * step))
        fd = np.array(fd) - np.mean(fd)
        assert np.abs(np.array(g) - fd).max() < 1e-5 * A
        checked += 1


def test_one_sided_slope_at_k_vertex():
    # |dE/dk0| at the conical point equals gamma * a from either side
    # step large enough that 3 + 2*sum(cos) does not cancel to rounding noise
    u = 2 * math.pi / (3 * A)
    h = 1e-5 / A
    right = bands.graphene_E((u + h, -u, 0.0), 1.0, A) / h
    left = -bands.graphene_E((u - h, -u, 0.0), 1.0, A) / h
    assert right == pytest.approx(A, rel=1e-4)
    assert left == pytest.approx(-A, rel=1e-4)


def test_zeros_only_near_k_points():
    u = 2 * math.pi / (3 * A)
    grid = np.linspace(-u, u, 401)
    k0, k1 = np.meshgrid(grid, grid)
    k2 = -k0 - k1
    inside = (np.abs(k2) <= u)
    mod = bands._modulus(k0, k1, k2, P_UNIFORM)
    small = inside & (mod < 1e-6)
    ks = np.stack([k0[small], k1[small], k2[small]], axis=-1)
    for k in ks:
        dist = min(math.sqrt(geom.inner(np.array(k) - np.array(kp),
                                        np.array(k) - np.array(kp)))
                   for kp in bands.special_points(A)["K"])
        assert dist < 1e-6 / A


def test_line_k_basics():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    assert bands.line_k(c, sym, 0, 0.0, A) == (0.0, 0.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(0, sym.n))
        kappa = float(rng.uniform(0, bands.kappa_period(sym, A)))
        k = bands.line_k(c, sym, m, kappa, A)
        assert sum(k) == pytest.approx(0.0, abs=1e-12)
        assert geom.inner(k, c) * A / (2 * math.pi) == pytest.approx(m, abs=1e-9)
        assert sym.q_prime * geom.inner(k, sym.omega) == pytest.approx(kappa, abs=1e-9)
    with pytest.raises(ValueError):
        bands.line_k(c, sym, sym.n, 0.0, A)
    with pytest.raises(ValueError):
        bands.line_k(c, sym, 0, -1.0, A)


def test_k_points_on_armchair_lines():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    proj = bands.k_point_projections(c, sym, A)
    assert proj  # c0 - c1 = 6 in 3Z: the conical points are allowed
    for m, kappa in proj:
        k = bands.line_k(c, sym, m, kappa, A)
        assert bands.graphene_E(k, 1.0, A) < 1e-9


def test_no_k_points_on_semiconducting_lines():
    c = (5, 0, -5)
    assert bands.k_point_projections(c, tube_symmetry(c), A) == []


def test_band_table():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    tables = [bands.band_table(c, sym, m, 256, P_UNIFORM) for m in range(sym.n)]
    assert len(tables) == sym.n
    touched = min(float(t.E_plus.min()) for t in tables)
    assert touched < 1e-9  # a band reaches zero at the injected K projection
    for t in tables:
        assert len(t.kappa) == len(t.E_plus) == len(t.E_minus)
        assert (t.E_plus >= 0).all() and (t.E_minus <= 0).all()
        assert (np.abs(t.E_plus) <= 3 + 1e-12).all()
        assert (np.abs(t.E_minus) <= 3 + 1e-12).all()
    with pytest.raises(ValueError):
        bands.band_table(c, sym, 0, 1, P_UNIFORM)


GAP_5_0_5 = 0.7639320225002102  # frozen from a 2e6-point-per-line dense scan


def test_band_gap_examples():
    for c, metallic in [((4, -2, -2), True), ((5, 0, -5), False),
                        ((4, -1, -3), False)]:
        sym = tube_symmetry(c)
        res = bands.band_gap(c, sym, P_UNIFORM)
        assert res.metallic_by_theorem is metallic
        if metallic:
            assert res.gap < 1e-9
        else:
            assert res.gap > 1e-3
    res = bands.band_gap((5, 0, -5), tube_symmetry((5, 0, -5)), P_UNIFORM)
    assert res.gap == pytest.approx(GAP_5_0_5, abs=1e-6)
    assert res.gap == pytest.approx(
        2 * bands.graphene_E(res.argmin_k, 1.0, A), abs=1e-9)
    with pytest.raises(ValueError):
        bands.band_gap((5, 0, -5), tube_symmetry((5, 0, -5)), P_UNIFORM, resolution=32)


def test_argmin_near_k_point():
    for c in [(5, 0, -5), (4, -1, -3), (7, -1, -6)]:
        sym = tube_symmetry(c)
        res = bands.band_gap(c, sym, P_UNIFORM)
        best = min(
            math.sqrt(geom.inner(np.array(res.argmin_k) - np.array(img),
                                 np.array(res.argmin_k) - np.array(img)))
            for kp in bands.special_points(A)["K"]
            for img in k_images(kp, A))
        # the nearest allowed line passes within one line spacing of a cone
        assert best < 0.75 * sym.line_spacing(A)


def test_is_metallic():
    assert bands.is_metallic((4, -2, -2))
    assert not bands.is_metallic((5, 0, -5))
    assert not bands.is_metallic((4, -1, -3))


def test_magnetic_params_zero_field():
    p = bands.magnetic_params(1.0, 0.0, (4, -2, -2), A)
    assert p.gamma0 == p.gamma1 == p.gamma2 == pytest.approx(1.0)


def test_magnetic_shift_identity():
    c = (4, -2, -2)
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = rng.uniform(-3, 3, 3)
        k -= k.mean()
        beta = rng.uniform(-2, 2) / A
        pm = bands.magnetic_params(1.0, beta, c, A)
        shifted = tuple(k[i] + beta * c[i] for i in range(3))
        assert bands.dispersion(k, pm)[1] == pytest.approx(
            bands.dispersion(shifted, P_UNIFORM)[1], abs=1e-12)


def test_flux_opens_gap_in_metallic_tube():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    beta = math.pi / (A * geom.inner(c, c))  # half a flux period
    pm = bands.magnetic_params(1.0, beta, c, A)
    assert bands.band_gap(c, sym, pm).gap > 0.1


def test_gap_vs_beta_properties():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    period = bands.flux_period(c, A)
    betas = [0.0, 0.25 * period, period]
    sweep = bands.gap_vs_beta(c, sym, 1.0, A, betas, resolution=1024)
    gaps = [g for _, g in sweep]
    assert gaps[0] < 1e-9  # metallic at zero flux
    assert all(g >= 0 for g in gaps)
    assert abs(gaps[0] - gaps[-1]) < 1e-8  # one-quantum periodicity


def test_bloch_phase_well_defined_on_lines():
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(0, sym.n))
        kappa = float(rng.uniform(0, bands.kappa_period(sym, A)))
        k = bands.line_k(c, sym, m, kappa, A)
        v = rng.integers(-10, 10, 3)
        v[2] = -v[0] - v[1]
        shifted = v + np.array(c)
        phase = (geom.inner(k, v) - geom.inner(k, shifted)) * A
        assert phase / (2 * math.pi) == pytest.approx(round(phase / (2 * math.pi)),
                                                      abs=1e-9)


@pytest.mark.parametrize("make", [
    lambda: bands.BandParams(epsilon=math.nan),
    lambda: bands.BandParams(epsilon=-math.inf),
    lambda: bands.BandParams(gamma0=math.nan),
    lambda: bands.BandParams(gamma1=complex(1.0, math.inf)),
    lambda: bands.BandParams(gamma2=math.inf),
    lambda: bands.BandParams(a=math.nan),
    lambda: bands.BandParams(a=math.inf),
    lambda: bands.BandParams(a=0.0),
    lambda: bands.uniform_params(1.0, math.nan, A),
    lambda: bands.magnetic_params(1.0, math.nan, (5, 0, -5), A),
    lambda: bands.magnetic_params(1.0, math.inf, (5, 0, -5), A),
], ids=["eps-nan", "eps-inf", "gamma0-nan", "gamma1-inf", "gamma2-inf", "a-nan",
        "a-inf", "a-zero", "uniform-eps-nan", "beta-nan", "beta-inf"])
def test_params_reject_non_finite(make):
    with pytest.raises(ValueError):
        make()


# Known band_gap defects (fixed-resolution scan), pinned so that the fix shows.
@pytest.mark.xfail(strict=True, reason="grid misses the basin of a large chiral tube")
def test_band_gap_large_chiral_tube():
    # benchmarks/reference.json; resolution 2^18 gives the same value
    c = (56, 55, -111)
    res = bands.band_gap(c, tube_symmetry(c), P_UNIFORM)
    assert res.gap == pytest.approx(0.0377322484, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="grid misses the minimum near the end of the flux period")
def test_band_gap_near_end_of_flux_period():
    # resolutions 2^16, 2^18 and 2^20 all give 0.01186417783055612 +- 1e-16
    c = (4, 1, -5)
    p = bands.magnetic_params(1.0, 0.995 * bands.flux_period(c, A), c, A)
    res = bands.band_gap(c, tube_symmetry(c), p)
    assert res.gap == pytest.approx(0.0118641778306, abs=1e-9)
