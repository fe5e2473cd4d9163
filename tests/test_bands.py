import json
import math
import struct
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cntbands import bands, geom, lines, tube
from cntbands.bands import A_DEFAULT as A
from cntbands.cli import RunConfig
from cntbands.tube import tube_symmetry

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)
REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


def np_modulus(k0, k1, k2, p):
    """|sum_j gamma_j e^{i k_j a}| in numpy, gamma_j = p.hoppings: the dense scans' evaluator."""
    g0, g1, g2 = p.hoppings
    return np.abs(g0 * np.exp(1j * np.asarray(k0) * p.a) + g1 * np.exp(1j * np.asarray(k1) * p.a)
                  + g2 * np.exp(1j * np.asarray(k2) * p.a))


def exact_k(sym, m, i, samples):
    """k a / 2 pi, in fractions, at grid point i of line m from lines.line_numerators.

    The numerators give the phases of bonds 0 and 1 relative to bond 2,
    d_j = (k_j - k_2) a / 2 pi, unreduced; k itself sums to zero.
    """
    across, along, den = lines.line_numerators(sym, samples)
    d0, d1 = (Fraction(m * x + i * s, den) for x, s in zip(across, along))
    k2 = -(d0 + d1) / 3
    return (d0 + k2, d1 + k2, k2)


def k_fraction(s, sym):
    """kappa / period mod 1 of K (s = 1) or K' (s = -1): <K, omega> a / 2 pi = s (w0 - w1) / 3."""
    return Fraction(s * (sym.omega[0] - sym.omega[1]), 3) % 1


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
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError, match="gamma must be positive"):
            bands.graphene_E((2 * h, -h, -h), gamma, A)


def test_special_points_values():
    pts = lines.special_points(A)
    assert len(pts["K"]) == 6 and len(pts["M"]) == 6
    assert bands.dispersion(pts["G"][0], P_UNIFORM)[1] == 3.0
    for k in pts["K"]:
        assert bands.graphene_E(k, 1.0, A) == pytest.approx(0.0, abs=1e-12)
        assert max(map(abs, k)) <= 2 * math.pi / (3 * A) + 1e-12  # on the zone boundary
    for m in pts["M"]:
        assert bands.graphene_E(m, 1.0, A) == pytest.approx(1.0, abs=1e-12)


def closed_form_special_points(a):
    """Gamma, the six K and the six M as 2 pi / (3 a) and pi / (3 a) give them."""
    u = 2.0 * math.pi / (3.0 * a)
    h = math.pi / (3.0 * a)
    k_base = ((u, -u, 0.0), (u, 0.0, -u), (0.0, u, -u))
    m_base = ((2.0 * h, -h, -h), (-h, 2.0 * h, -h), (-h, -h, 2.0 * h))
    ks = tuple(p for b in k_base for p in (b, tuple(-x for x in b)))
    ms = tuple(p for b in m_base for p in (b, tuple(-x for x in b)))
    return (0.0, 0.0, 0.0), ks, ms


def accepted_bond_lengths():
    """The least and the greatest bond length RunConfig accepts, bisected over the doubles."""
    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def double(i):
        return struct.unpack("<d", struct.pack("<q", i))[0]

    def accepted(i):
        try:
            RunConfig(bond_length=double(i))
        except ValueError:
            return False
        return True

    edges = []
    for inside, outside in ((bits(1.0), 0), (bits(1.0), bits(math.inf))):
        while abs(outside - inside) > 1:  # positive doubles are ordered as their bits
            mid = (inside + outside) // 2
            inside, outside = (mid, outside) if accepted(mid) else (inside, mid)
        edges.append(double(inside))
    return edges


def test_special_points_are_the_closed_forms_bit_for_bit():
    # special_points scales WAYPOINTS' sixths by 2 pi / (6 a); 6 a = 2 (3 a) exactly, so
    # G, K, K' and M are bit for bit the closed forms, and the K and M sets are theirs
    def bits(points):
        return [struct.pack("<3d", *k) for k in points]

    rng = np.random.default_rng(41)
    edges = accepted_bond_lengths()
    assert 0 < edges[0] < 1e-150 and 1e150 < edges[1] < math.inf
    for bond in [1.44, *edges, *(10.0 ** rng.uniform(-150, 150, 300)), *rng.uniform(0.1, 10, 300)]:
        a = RunConfig(bond_length=float(bond)).a
        origin, ks, ms = closed_form_special_points(a)
        pts = lines.special_points(a)
        assert bits(pts["G"]) == bits([origin])
        assert bits(pts["K"][:2]) == bits(ks[:2]) and bits(pts["M"][:1]) == bits(ms[:1]), bond
        assert len(pts["K"]) == len(set(pts["K"])) == 6 and set(pts["K"]) == set(ks)
        assert len(pts["M"]) == len(set(pts["M"])) == 6 and set(pts["M"]) == set(ms)


def test_gamma_is_maximum():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = rng.uniform(-2 * math.pi / (3 * A), 2 * math.pi / (3 * A), 3)
        k -= k.mean()
        assert bands.graphene_E(k, 1.0, A) <= 3.0 + 1e-12


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
    mod = np_modulus(k0, k1, k2, P_UNIFORM)
    small = inside & (mod < 1e-6)
    ks = np.stack([k0[small], k1[small], k2[small]], axis=-1)
    for k in ks:
        dist = min(math.sqrt(geom.inner(np.array(k) - np.array(kp),
                                        np.array(k) - np.array(kp)))
                   for kp in lines.special_points(A)["K"])
        assert dist < 1e-6 / A


def test_line_k_basics():
    # grid point i of line m sits on <k, c> a / 2 pi = m at kappa a / 2 pi = q' i / samples
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    assert exact_k(sym, 0, 0, 64) == (0, 0, 0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(0, sym.n))
        samples = int(rng.integers(2, 2 ** 22))
        i = int(rng.integers(0, samples))
        k = exact_k(sym, m, i, samples)
        assert sum(k) == 0
        assert geom.inner(k, c) == m
        assert sym.q_prime * geom.inner(k, sym.omega) == Fraction(sym.q_prime * i, samples)


@pytest.mark.parametrize("c", [(7, -3, -4), (9, -3, -6), (100001, 100000, -200001),
                               (1000001, 1000000, -2000001), (2 ** 30, -2 ** 29 + 1, -2 ** 29 - 1),
                               (536870915, 536870909, -1073741824), (2 ** 30, 0, -2 ** 30)])
def test_line_numerators_are_the_phases_of_the_line_points(c):
    # k = x c + y b on <k, c> a / 2 pi = m with <k, omega> a / 2 pi = i / samples, solved
    # in fractions; its phases (k_j - k_2) a / 2 pi mod 1 are the numerators over den
    sym = tube_symmetry(c)
    cc, w, bw = geom.inner(c, c), geom.inner(c, sym.omega), geom.inner(sym.b, sym.omega)
    rng = np.random.default_rng(41)
    for samples in (64, 4096, 4194304, 3 * sym.n * sym.q_prime):
        across, along, den = lines.line_numerators(sym, samples)
        for _ in range(20):
            m, i = int(rng.integers(0, sym.n)), int(rng.integers(0, samples))
            x = Fraction(m, cc)
            y = (Fraction(i, samples) - x * w) / bw
            k = [x * cj + y * bj for cj, bj in zip(c, sym.b)]
            assert [Fraction(m * u + i * v, den) % 1 for u, v in zip(across, along)] == \
                [(kj - k[2]) % 1 for kj in k[:2]], (samples, m, i)


def test_k_points_on_armchair_lines():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    proj = lines.k_point_projections(c, sym)
    assert proj  # c0 - c1 = 6 in 3Z: the conical points are allowed
    for (m, thirds), s in zip(proj, (1, -1)):
        f = k_fraction(s, sym)
        assert Fraction(thirds, 3) == f
        k = exact_k(sym, m, f.numerator, f.denominator)
        # the phases of K (s = 1) or K' relative to bond 2, exactly
        assert [(kj - k[2]) % 1 for kj in k[:2]] == [Fraction(s, 3) % 1, Fraction(-s, 3) % 1]
        assert bands.graphene_E([2 * math.pi * kj / A for kj in k], 1.0, A) < 1e-9


def test_no_k_points_on_semiconducting_lines():
    c = (5, 0, -5)
    assert lines.k_point_projections(c, tube_symmetry(c)) == []


def test_band_table():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    tables = [bands.band_table(c, sym, m, 256, P_UNIFORM) for m in range(sym.n)]
    assert len(tables) == sym.n
    touched = min(min(t.E_plus) for t in tables)
    assert touched < 1e-9  # a band reaches zero at the injected K projection
    for t in tables:
        assert len(t.kappa) == len(t.E_plus) == len(t.E_minus)
        assert all(e >= 0 for e in t.E_plus) and all(e <= 0 for e in t.E_minus)
        assert all(abs(e) <= 3 + 1e-12 for e in t.E_plus)
        assert all(abs(e) <= 3 + 1e-12 for e in t.E_minus)
    with pytest.raises(ValueError):
        bands.band_table(c, sym, 0, 1, P_UNIFORM)


@pytest.mark.parametrize("c", [(9, -3, -6), (5, 2, -7), (7, -3, -4)])
def test_band_blocks_share_the_grid_between_lines(c):
    # the CLI formats a block's kappa column once for all lines with its key
    sym, samples = tube_symmetry(c), 2 * lines.BLOCK + 5
    period = lines.kappa_period(sym, A)
    grid = [period * i / samples for i in range(samples)]
    for m in range(sym.n):
        blocks = list(lines.band_blocks(c, sym, m, samples, P_UNIFORM))
        # samples is not a multiple of 3: only a K point at kappa 0 (f = 0) is a grid point
        on_line = any(mm == m and f for mm, f in lines.k_point_projections(c, sym))
        assert any(b[0] is None for b in blocks) == on_line
        for j, (key, kappa, e_minus, e_plus) in enumerate(blocks):
            block = grid[j * lines.BLOCK:(j + 1) * lines.BLOCK]
            assert key in (j, None) and (key is None) == (kappa != block)
            assert set(block) <= set(kappa) and len(kappa) == len(e_minus) == len(e_plus)
        t = bands.band_table(c, sym, m, samples, P_UNIFORM)
        assert list(t.kappa) == [k for b in blocks for k in b[1]]
        assert list(t.E_plus) == [e for b in blocks for e in b[3]]


def mp_row_moduli(c, sym, m, samples, kappa, p, dps=40):
    """|sum_j gamma_j e^{i k_j a}| at dps digits at each row point of line m, gamma_j = p.hoppings.

    A grid row's point has the screw fraction i / samples, an added K row the
    fraction s (omega_0 - omega_1) / 3 mod 1 of K (s = 1) or K' (s = -1) whose
    kappa is nearest.  In units of 2 pi / a the point is k = x c + y b with
    <k, c> = m and q' <k, omega> = q' fraction, formed in fractions and reduced
    mod 1 before mpmath sees it.
    """
    cc, bb, w = geom.inner(c, c), geom.inner(sym.b, sym.b), geom.inner(c, sym.omega)
    qp = sym.q_prime
    period = lines.kappa_period(sym, p.a)
    grid = {period * i / samples: Fraction(i, samples) for i in range(samples)}
    ks = [Fraction(s * (sym.omega[0] - sym.omega[1]), 3) % 1 for s in (1, -1)]
    out = []
    with mpmath.workdps(dps):
        hops = [mpmath.mpc(complex(h)) for h in p.hoppings]
        for kk in kappa:
            f = grid.get(kk)
            if f is None:
                f = min(ks, key=lambda x: abs(x * period - kk))
            x = Fraction(m, cc)
            y = (qp * f - x * qp * w) / bb
            k = [(x * cj + y * bj) % 1 for cj, bj in zip(c, sym.b)]
            out.append(abs(sum(h * mpmath.expjpi(2 * mpmath.mpf(kj.numerator) / kj.denominator)
                               for h, kj in zip(hops, k))))
    return out


def worst_row_error(c, sym, m, samples, p):
    """Largest |E - (epsilon +- exact modulus)| over the rows of band_table's line m."""
    t = bands.band_table(c, sym, m, samples, p)
    ref = mp_row_moduli(c, sym, m, samples, t.kappa, p)
    with mpmath.workdps(40):
        return max(max(abs(e_plus - (p.epsilon + r)), abs(e_minus - (p.epsilon - r)))
                   for e_minus, e_plus, r in zip(t.E_minus, t.E_plus, ref))


@pytest.mark.parametrize("c", [(4, -2, -2), (7, -3, -4), (8, -1, -7)])
@pytest.mark.parametrize("params", ["uniform", "flux", "epsilon"])
def test_band_table_matches_vectorized_modulus(c, params):
    # every row, K rows included, against 40-digit mpmath at its exact point with the same
    # hoppings, not against numpy at a float k, which is itself off by up to 1.4e-14 on
    # these lines
    sym = tube_symmetry(c)
    p = {"uniform": P_UNIFORM,
         "flux": bands.magnetic_params(1.0, 0.3 * lines.flux_period(c, A), c, A),
         "epsilon": bands.uniform_params(1.0, 0.1, A)}[params]
    bound = 1e-15 * (abs(p.epsilon) + 3.0)
    for m in range(sym.n):
        assert worst_row_error(c, sym, m, 512, p) <= bound


@pytest.mark.parametrize("c", [(7, -3, -4), (100001, 100000, -200001),
                               (1000001, 1000000, -2000001), (2 ** 30, -2 ** 29 + 1, -2 ** 29 - 1)])
def test_band_table_rows_match_mpmath_on_large_tubes(c):
    # the phases are reduced in integers, so the error must not grow with q' (phasors at
    # float angles of size ~q' are off by up to 1.7e-7 here)
    sym = tube_symmetry(c)
    for m in range(3):
        assert worst_row_error(c, sym, m, 64, P_UNIFORM) <= 2e-15, m


@pytest.mark.parametrize("c", [(5, 0, -5), (4, -2, -2), (9, -3, -6), (15, -6, -9),
                               (21, -9, -12)])
def test_k_rows_are_exactly_epsilon(c):
    # a row at an on-line K point is a hopping zero: modulus 0.0, not rounding.  A K point on
    # the grid keeps its grid row, one off the grid is added once; (15,-6,-9) and (21,-9,-12)
    # put K' at kappa 0, and at 192 = 3 * 64 samples every K point is a grid point
    sym = tube_symmetry(c)
    period = lines.kappa_period(sym, A)
    for p in (P_UNIFORM, bands.uniform_params(1.5, 0.25, A)):
        for samples in (64, 192, 5000):
            grid = [period * i / samples for i in range(samples)]
            on_grid = set(grid)
            k_rows = {m: [] for m in range(sym.n)}  # line m -> kappas of its K rows
            added = dict.fromkeys(range(sym.n), 0)
            for (m, _), s in zip(lines.k_point_projections(c, sym), (1, -1)):
                f = k_fraction(s, sym)
                if (f * samples).denominator == 1:
                    k_rows[m].append(grid[int(f * samples)])
                else:  # the double nearest period f
                    k_rows[m].append(float(Fraction(period) * f))
                    added[m] += 1
            for m in range(sym.n):
                rows = {}
                for key, kappa, e_minus, e_plus in lines.band_blocks(c, sym, m, samples, p):
                    assert (key is None) == any(k not in on_grid for k in kappa)
                    rows.update(zip(kappa, zip(e_minus, e_plus)))
                kappas = list(rows)
                assert kappas == sorted(kappas) and len(kappas) == samples + added[m]
                assert set(kappas) - on_grid <= set(k_rows[m])
                assert all(rows[k] == (p.epsilon, p.epsilon) for k in k_rows[m]), (m, samples)


@pytest.mark.parametrize("a", [A, 1.0, 0.37, 5.9])
def test_k_points_are_the_uniform_hopping_zeros(a):
    # the zeros _gap_seeds yields at zero field, two seeds each, are exactly K and
    # K' = +-(1, -1, 0) / 3 in units of 2 pi / a; each seed lies on its line, and its
    # w_j = gamma e^{i K_j a} are gamma K_PHASORS, which sum to exactly zero
    k = (Fraction(1, 3), Fraction(-1, 3), Fraction(0))
    for c in [(5, 0, -5), (7, -3, -4)]:
        for p in (bands.uniform_params(2.5, a=a), bands.magnetic_params(2.5, 0.0, c, a),
                  bands.magnetic_params(2.5, -0.0, c, a)):
            seeds = list(bands._gap_seeds(c, p))
            zeros = [tuple(Fraction(s - x, den) for s, x in zip(seed, xs))
                     for _, _, seed, xs, den in seeds]
            assert zeros[::2] == zeros[1::2] == [k, tuple(-x for x in k)], (c, p)
            for w, line, seed, _, den in seeds:
                assert geom.inner(seed, c) == line * den
                assert w in [tuple(2.5 * x for x in pair + (1.0,)) for pair in lines.K_PHASORS]
                assert sum(w) == 0


GAP_5_0_5 = 0.7639320225002102  # frozen from a 2e6-point-per-line dense scan


def test_band_gap_examples():
    for c, metallic in [((4, -2, -2), True), ((5, 0, -5), False),
                        ((4, -1, -3), False)]:
        sym = tube_symmetry(c)
        res = bands.band_gap(c, sym, P_UNIFORM)
        assert res.metallic_by_theorem is metallic
        if metallic:
            assert res.gap == 0.0
        else:
            assert res.gap > 1e-3
    res = bands.band_gap((5, 0, -5), tube_symmetry((5, 0, -5)), P_UNIFORM)
    assert res.gap == pytest.approx(GAP_5_0_5, abs=1e-6)
    assert res.gap == pytest.approx(
        2 * bands.graphene_E(res.argmin_k, 1.0, A), abs=1e-9)
    # the search samples no grid: resolution is accepted and ignored
    for resolution in (32, 4096, 2 ** 20):
        assert bands.band_gap((5, 0, -5), tube_symmetry((5, 0, -5)), P_UNIFORM,
                              resolution=resolution) == res


def test_argmin_near_k_point():
    for c in [(5, 0, -5), (4, -1, -3), (7, -1, -6)]:
        sym = tube_symmetry(c)
        res = bands.band_gap(c, sym, P_UNIFORM)
        best = min(
            math.sqrt(geom.inner(np.array(res.argmin_k) - np.array(img),
                                 np.array(res.argmin_k) - np.array(img)))
            for kp in lines.special_points(A)["K"]
            for img in k_images(kp, A))
        # the nearest allowed line passes within one line spacing of a cone
        assert best < 0.75 * sym.line_spacing(A)


def test_is_metallic():
    assert tube.is_metallic((4, -2, -2))
    assert not tube.is_metallic((5, 0, -5))
    assert not tube.is_metallic((4, -1, -3))


def test_magnetic_params_zero_field():
    p = bands.magnetic_params(1.0, 0.0, (4, -2, -2), A)
    assert p.hoppings == (1.0, 1.0, 1.0)
    # a zero flux has one representation, field None, however it is built
    c = (7, -3, -4)
    for beta in (0.0, -0.0):
        zero = bands.magnetic_params(2.5, beta, c, A, epsilon=0.3)
        assert zero.field is None and zero == bands.uniform_params(2.5, 0.3, A)
    assert lines.BandParams(field=((0, 3 ** 100), c)).field is None
    assert lines.BandParams(field=((1, 3), c))._replace(field=((0, 1), c)).field is None
    # its chirality is validated all the same
    for bad in ((7, -4, -3), (0, 0, 0), (2, 1, 1), (1, 2)):
        with pytest.raises(tube.ChiralityError):
            lines.BandParams(field=((0, 1), bad))


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
    gaps = bands.gap_vs_beta(c, sym, 1.0, A, [(0, 1), (1, 4), (1, 1)])
    assert gaps[0] == 0.0  # metallic at zero flux
    assert all(g >= 0 for g in gaps)
    assert gaps[-1] == gaps[0]  # one-quantum periodicity


def test_bloch_phase_well_defined_on_lines():
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(0, sym.n))
        samples = int(rng.integers(2, 2 ** 22))
        k = exact_k(sym, m, int(rng.integers(0, samples)), samples)
        v = [int(x) for x in rng.integers(-10, 10, 3)]
        v[2] = -v[0] - v[1]
        shifted = [vj + cj for vj, cj in zip(v, c)]
        # the phase difference over 2 pi, exactly an integer
        assert (geom.inner(k, v) - geom.inner(k, shifted)).denominator == 1


@pytest.mark.parametrize("make", [
    lambda: lines.BandParams(epsilon=math.nan),
    lambda: lines.BandParams(epsilon=-math.inf),
    lambda: lines.BandParams(gamma=math.nan),
    lambda: lines.BandParams(gamma=math.inf),
    lambda: bands.uniform_params(math.inf, 0.0, A),
    lambda: lines.BandParams(a=math.nan),
    lambda: lines.BandParams(a=math.inf),
    lambda: lines.BandParams(a=0.0),
    lambda: bands.uniform_params(1.0, math.nan, A),
    lambda: bands.magnetic_params(1.0, math.nan, (5, 0, -5), A),
    lambda: bands.magnetic_params(1.0, math.inf, (5, 0, -5), A),
], ids=["eps-nan", "eps-inf", "gamma0-nan", "gamma1-inf", "gamma2-inf", "a-nan",
        "a-inf", "a-zero", "uniform-eps-nan", "beta-nan", "beta-inf"])
def test_params_reject_non_finite(make):
    with pytest.raises(ValueError):
        make()


# Defects of the former fixed-resolution scan, which missed these minima.
def test_band_gap_large_chiral_tube():
    # benchmarks/reference.json; a resolution 2^18 scan gives the same value
    c = (56, 55, -111)
    res = bands.band_gap(c, tube_symmetry(c), P_UNIFORM)
    assert res.gap == pytest.approx(0.0377322484, abs=1e-9)


def test_band_gap_near_end_of_flux_period():
    # resolutions 2^16, 2^18 and 2^20 all give 0.01186417783055612 +- 1e-16
    c = (4, 1, -5)
    p = bands.magnetic_params(1.0, 0.995 * lines.flux_period(c, A), c, A)
    res = bands.band_gap(c, tube_symmetry(c), p)
    assert res.gap == pytest.approx(0.0118641778306, abs=1e-9)


METALLIC = [(4, -2, -2), (6, 0, -6), (8, -4, -4), (9, -3, -6), (536870915, 536870909, -1073741824)]
FLUX_TUBES = [(4, -2, -2), (5, 0, -5), (4, 1, -5), (7, -3, -4), (56, 55, -111),
              (2 ** 30, -2 ** 29 + 1, -2 ** 29 - 1), (1000001, 1000000, -2000001)]


@pytest.mark.parametrize("c", METALLIC)
def test_metallic_gap_vanishes_at_every_whole_flux_period(c):
    # the Aharonov-Bohm period: the float beta of k periods had left these tubes up to
    # 8e-16 off; the flux k, in any denominator, puts the lines through the zeros
    sym = tube_symmetry(c)
    fluxes = [(s * k * d, d) for k in range(1, 6) for d in (1, 32, 3 * 2 ** 61 + 1) for s in (1, -1)]
    assert bands.gap_vs_beta(c, sym, 1.0, A, fluxes) == [0.0] * len(fluxes)
    assert bands.gap_vs_beta(c, sym, 2.7, A, [(5, 1)], epsilon=0.3) == [0.0]


@pytest.mark.parametrize("c", FLUX_TUBES)
def test_gap_is_periodic_in_flux_bit_for_bit(c):
    # gap(phi + k) == gap(phi) for whole k over the whole range MAX_FLUX_PERIODS allows
    rng = np.random.default_rng(sum(map(abs, c)) % 2 ** 32)
    sym, bound = tube_symmetry(c), lines.MAX_FLUX_PERIODS
    for den in (7, 200, 2 ** 70 + 3):
        num = 1 + int(rng.integers(0, 2 ** 62)) % (den - 1)
        shifts = (1, -1, 2, 5, -37, bound - 1, -bound)
        gaps = bands.gap_vs_beta(c, sym, 1.0, A, [(num + k * den, den) for k in (0,) + shifts])
        assert gaps[0] > 0.0
        assert [repr(g) for g in gaps[1:]] == [repr(gaps[0])] * len(shifts), (c, num, den)


@pytest.mark.parametrize("c", FLUX_TUBES + METALLIC)
def test_gap_is_even_in_flux(c):
    # K - phi c and K' + phi c mirror each other; a golden-section tie may break the
    # mirror in the last bit
    rng = np.random.default_rng(41)
    sym = tube_symmetry(c)
    for den in (3, 64, 10 ** 20):
        num = int(rng.integers(1, 1000 * den)) if den < 2 ** 60 else 12345678901234567890123
        plus, minus = bands.gap_vs_beta(c, sym, 1.0, A, [(num, den), (-num, den)])
        assert minus == pytest.approx(plus, rel=4e-16, abs=0.0), (c, num, den)


def line_modulus(sym, m, kappa, p):
    """Hopping-sum modulus along line m at screw coordinates kappa (array), in numpy floats.

    Line m is <k, c> = 2 pi m / a, and kappa = q' <k, omega>: k = x c + y b.
    """
    x = 2.0 * math.pi * m / (p.a * geom.inner(sym.c, sym.c))
    y = (np.asarray(kappa, dtype=float) - x * sym.q_prime * geom.inner(sym.c, sym.omega)) \
        / geom.inner(sym.b, sym.b)
    return np_modulus(*(x * ci + y * bi for ci, bi in zip(sym.c, sym.b)), p)


def scanned_gap(sym, p, points=2 ** 16, zooms=3):
    """Twice the least modulus over all n lines, found without band_gap.

    A grid of `points` kappa values on every line, then `zooms` rounds of
    1025 points within one grid step of each line's best point.
    """
    m, rows = np.arange(sym.n)[:, None], np.arange(sym.n)
    step = lines.kappa_period(sym, p.a) / points
    kappa = np.broadcast_to(np.arange(points) * step, (sym.n, points))
    for _ in range(zooms + 1):
        vals = line_modulus(sym, m, kappa, p)
        kappa = kappa[rows, np.argmin(vals, axis=-1)][:, None] + np.linspace(-step, step, 1025)
        step /= 512
    return 2.0 * float(vals.min())


def test_band_gap_matches_reference_table():
    """Over 500 tubes of the reference table: at least 4 of each rotation order n."""
    table = {tuple(r[:3]): r[3] for r in json.loads(REFERENCE.read_text())["survey"]}
    by_order = {}
    for c in sorted(table):
        by_order.setdefault(math.gcd(c[0], c[1]), []).append(c)
    sample = [c for group in by_order.values()
              for c in group[::max(1, len(group) // (4 + len(group) // 50))]]
    assert len(sample) >= 500 and len(by_order) == 120
    start = time.perf_counter()
    for c in sample:
        res = bands.band_gap(c, tube_symmetry(c), P_UNIFORM)
        assert res.gap == pytest.approx(table[c], abs=1e-6), c
        if res.metallic_by_theorem:  # the seed on the line through K is scored itself
            assert res.gap == 0.0, c
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("case", range(12))
def test_band_gap_matches_dense_scan(case):
    """Flux within +-3 periods at gamma = 1 (even cases); gamma from [0.3, 3] (odd cases).

    The odd cases put the metallic tubes, whose zero-field gap is 0, under
    flux and leave the others uniform; the gap must scale as gamma.
    """
    rng = np.random.default_rng(case)
    c = [(4, -2, -2), (5, 0, -5), (4, 1, -5), (7, -3, -4), (6, 0, -6), (8, -3, -5)][case // 2]
    sym = tube_symmetry(c)
    beta = rng.uniform(-3.0, 3.0) * lines.flux_period(c, A)
    gamma = 1.0 if case % 2 == 0 else float(rng.uniform(0.3, 3.0))
    if case % 2 == 0 or tube.is_metallic(c):
        p = bands.magnetic_params(gamma, beta, c, A)
    else:
        p = bands.uniform_params(gamma, 0.0, A)
    res = bands.band_gap(c, sym, p)
    assert res.gap == pytest.approx(scanned_gap(sym, p), abs=1e-12)
    unit = bands.band_gap(c, sym, p._replace(gamma=1.0)).gap
    assert res.gap > 1e-3 and res.gap == pytest.approx(gamma * unit, rel=1e-14)
    line = geom.inner(res.argmin_k, c) * A / (2 * math.pi)
    assert line == pytest.approx(round(line), abs=1e-12) and round(line) % sym.n == res.argmin_m
    assert res.gap == pytest.approx(2 * bands.dispersion(res.argmin_k, p)[1], abs=1e-14)


def zigzag_gap(n):
    """2 min_m |1 + 2 cos(pi m / N)|, the gap of the zigzag tube (N, 0, -N).

    With pi m / N = 2 pi / 3 + d, 1 + 2 cos(pi m / N) = 2 sin^2(d / 2) - sqrt(3) sin d,
    which keeps its relative precision when N is large and the gap tiny.
    """
    m0 = round(2 * n / 3)
    d = [math.pi * (3 * m - 2 * n) / (3 * n) for m in (m0 - 1, m0, m0 + 1)]
    return 2 * min(abs(2 * math.sin(x / 2) ** 2 - math.sqrt(3) * math.sin(x)) for x in d)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 100, 1001, 2 ** 20 + 1, 2 ** 29, 2 ** 30])
def test_zigzag_gap_closed_form(n):
    """(N, 0, -N) has lines at k0 - k2 = 2 pi m / (N a)."""
    res = bands.band_gap((n, 0, -n), tube_symmetry((n, 0, -n)), P_UNIFORM)
    if n % 3 == 0:
        assert res.gap == 0.0
    else:
        # the modulus is measured from K, so even the 3e-9 gap of N = 2^30 keeps its digits
        assert res.gap == pytest.approx(zigzag_gap(n), rel=1e-13)


@pytest.mark.parametrize("zero", ["gamma0", "gamma1", "gamma2", "all"])
def test_zero_hopping_rejected(zero):
    # bond j carries gamma or gamma e^{i beta c_j a}, so a zero hopping on any bond
    # means gamma = 0, which every way of building the parameters refuses
    bonds = [0, 1, 2] if zero == "all" else [int(zero[-1])]
    c = (7, -3, -4)
    builders = [lambda g: lines.BandParams(gamma=g),
                lambda g: bands.uniform_params(g, 0.0, A),
                lambda g: bands.magnetic_params(g, 0.01, c, A),
                lambda g: bands.magnetic_params(1.0, 0.01, c, A)._replace(gamma=g)]
    for build in builders:
        with pytest.raises(ValueError, match="gamma"):
            build(0.0)
        tiny = build(1e-300).hoppings
        assert all(abs(tiny[j]) > 0 for j in bonds)


def test_params_reject_what_they_do_not_model():
    # one real hopping gamma > 0, and a field ((num, den), c) of at most MAX_FLUX_PERIODS
    c = (7, -3, -4)
    for gamma in (-1.0, 1j, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            lines.BandParams(gamma=gamma)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            bands.magnetic_params(1.0, beta, c, A)
    with pytest.raises(ValueError, match="flux periods"):
        bands.magnetic_params(1.0, -1.01 * lines.MAX_FLUX_PERIODS * lines.flux_period(c, A), c, A)
    bound = lines.MAX_FLUX_PERIODS
    for flux in ((-bound * 3 - 1, 3), (bound + 1, 1), (0.5, 1), (1, 0), (1, -2), (1, 2.0)):
        with pytest.raises(ValueError, match="flux"):
            lines.BandParams(field=(flux, c))
    assert lines.BandParams(field=((-bound * 3, 3), c)).field == ((-bound * 3, 3), c)
    with pytest.raises(TypeError):
        lines.BandParams(gamma0=1.0)


def test_field_must_match_the_hoppings():
    # the hoppings are derived from gamma and the field, so a replace keeps them in step
    c = (7, -3, -4)
    p = lines.BandParams(epsilon=0.2, gamma=2.0, field=((1, 3), [7, -3, -4]))
    assert p.field == ((1, 3), c) == p._replace(epsilon=0.5).field
    q = p._replace(gamma=0.5)
    assert q.field == p.field
    assert q.hoppings == lines.BandParams(0.2, 0.5, field=((2, 6), c)).hoppings
    assert q.hoppings == tuple(h / 4.0 for h in p.hoppings)
    m = bands.magnetic_params(2.0, 1.0, c, A, epsilon=0.2)
    assert m._replace(gamma=0.5).hoppings == bands.magnetic_params(0.5, 1.0, c, A).hoppings
    assert p._replace(field=None).hoppings == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="unexpected field"):
        p._replace(gamma0=1.0)


def test_argmin_within_half_a_line_of_a_hopping_zero():
    rng = np.random.default_rng(29)
    for c in [(5, 0, -5), (4, -1, -3), (7, -1, -6), (11, -4, -7), (20, -9, -11), (56, 55, -111)]:
        sym = tube_symmetry(c)
        for beta in [0.0] + list(rng.uniform(-3, 3, 3) * lines.flux_period(c, A)):
            p = bands.magnetic_params(1.0, beta, c, A)
            res = bands.band_gap(c, sym, p)
            k = np.array(res.argmin_k)
            zeros = [[kj - beta * cj for kj, cj in zip(kp, c)]
                     for kp in lines.special_points(A)["K"][:2]]  # K - beta c, K' - beta c
            dist = min(math.sqrt(geom.inner(k - img, k - img))
                       for z in zeros for img in k_images(z, A))
            assert dist < 0.5 * sym.line_spacing(A), (c, beta)


def test_band_gap_of_a_huge_chiral_tube():
    # one kappa period is 2.1e13 here, so no absolute kappa width is resolvable; the
    # search runs a fixed number of steps in the O(1) displacement t.  The former scan
    # printed 0.0686; 2.0943940551953813e-06 is a 50-digit minimum along the winning line.
    c = (1000001, 1000000, -2000001)
    start = time.perf_counter()
    res = bands.band_gap(c, tube_symmetry(c), P_UNIFORM)
    assert time.perf_counter() - start < 1.0
    assert res.gap == pytest.approx(2.0943940551953813e-06, rel=1e-13)
    assert res.gap == pytest.approx(2 * bands.dispersion(res.argmin_k, P_UNIFORM)[1], abs=1e-15)


def test_band_gap_goes_through_no_kappa(monkeypatch):
    # a minimizer just below kappa = 0 would wrap to exactly one period, outside
    # [0, period): the search reports its point without a kappa round trip
    def unused(*args, **kwargs):
        raise AssertionError("band_gap must not map through kappa")

    monkeypatch.setattr(lines, "kappa_period", unused)
    monkeypatch.setattr(lines, "line_numerators", unused)
    for c in [(4, -2, -2), (5, 0, -5), (4, 1, -5)]:
        p = bands.magnetic_params(1.0, 0.999 * lines.flux_period(c, A), c, A)
        assert bands.band_gap(c, tube_symmetry(c), p).gap >= 0


def test_k_point_projections_lie_within_one_period():
    # K sits at kappa period f / 3 with f = 0, 1 or 2 taken in integers; an off-grid K row
    # prints the double nearest it, and (15,-6,-9) puts K' at exactly 0.0, not at the
    # period less an ulp.  K and K' give distinct projections, so none needs deduplicating
    for a in (A, 1.0, 0.37, 5.9):
        for c0 in range(2, 25):
            for c1 in range(-(c0 // 2), c0):
                c = (c0, c1, -c0 - c1)
                if (c0 - c1) % 3 or not c1 >= c[2]:
                    continue
                sym = tube_symmetry(c)
                proj = lines.k_point_projections(c, sym)
                assert len(set(proj)) == len(proj) == 2, c
                period = lines.kappa_period(sym, a)
                p = bands.uniform_params(a=a)
                for (m, thirds), s in zip(proj, (1, -1)):
                    f = k_fraction(s, sym)
                    assert Fraction(thirds, 3) == f, c
                    kappa = list(bands.band_table(c, sym, m, 64, p).kappa)
                    assert kappa[-1] < period and float(Fraction(period) * f) in kappa, (c, a)
                    k = exact_k(sym, m, f.numerator, f.denominator)
                    k = [2 * math.pi * kj / a for kj in k]
                    assert bands.dispersion(k, p)[1] < 1e-12


def test_k_point_projections_of_a_large_metallic_tube():
    # c0 - c1 = 6 and n = 1: K and K' lie on line 0.  A float m = <K, c> a / 2 pi is
    # 8.5e-9 from its integer here, which the former tolerance 1e-9 took for no line.
    c = (536870915, 536870909, -1073741824)
    sym = tube_symmetry(c)
    assert sym.n == 1 and tube.is_metallic(c)
    proj = lines.k_point_projections(c, sym)
    assert [m for m, _ in proj] == [0, 0] and proj[0][1] != proj[1][1]
    kappa = bands.band_table(c, sym, 0, 64, P_UNIFORM).kappa
    assert len(kappa) == 64 + 2 and max(kappa) < lines.kappa_period(sym, A)


def test_magnetic_hoppings_match_mpmath():
    # gamma e^{2 pi i phi c_j / <c, c>} from the exact flux phi = num / den that beta
    # becomes: one exact quarter turn times a phasor rounded once, times gamma
    rng = np.random.default_rng(31)
    worst = 0.0
    for c in [(4, -2, -2), (5, 0, -5), (7, -3, -4), (2 ** 30, 0, -2 ** 30)]:
        period = lines.flux_period(c, A)
        for beta in [0.0, -0.0] + [float(x) for x in rng.uniform(-5, 5, 40) * period]:
            gamma = float(rng.uniform(0.2, 3.0))
            p = bands.magnetic_params(gamma, beta, c, A)
            assert (p.field is None) == (beta == 0)
            (num, den), _ = p.field or ((0, 1), c)  # no field: flux 0
            assert Fraction(num, den) == Fraction(beta) * Fraction(A) * geom.inner(c, c) \
                * lines.TWO_PI_RATIO[1] / lines.TWO_PI_RATIO[0]
            if beta == 0:
                assert p.hoppings == (gamma,) * 3
            with mpmath.workdps(40):
                for h, cj in zip(p.hoppings, c):
                    want = gamma * mpmath.expj(2 * mpmath.pi * mpmath.mpf(num * cj)
                                               / (den * geom.inner(c, c)))
                    worst = max(worst, abs(h - want) / gamma)
    assert worst <= 2.5e-16


def test_two_pi_ratio():
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(lines.TWO_PI_RATIO[0]) / lines.TWO_PI_RATIO[1]
                   - 2 * mpmath.pi) < 1e-31


def mp_line_minima(c, beta, a=A, steps=170):
    """Twice the least modulus on the four lines band_gap seeds, at 60 digits.

    The flux enters as the shift k -> k + beta c of gamma = 1 hoppings; beta and
    a are taken as the exact values of their doubles.  Each line is searched
    by golden section over |t| <= sqrt(2) pi / (3 a) from its point nearest the
    shifted K (or K'), to a bracket of 0.618^steps of that.
    """
    with mpmath.workdps(60):
        a, beta, pi = mpmath.mpf(a), mpmath.mpf(beta), mpmath.pi
        b = tube_symmetry(c).b
        axis = [bj / mpmath.sqrt(sum(x * x for x in b)) for bj in b]
        half, golden = mpmath.sqrt(2) * pi / (3 * a), (mpmath.sqrt(5) - 1) / 2
        best = mpmath.inf
        for s in (1, -1):
            zero = [s * 2 * pi / (3 * a) - beta * c[0], -s * 2 * pi / (3 * a) - beta * c[1],
                    -beta * c[2]]
            m = sum(z * cj for z, cj in zip(zero, c)) * a / (2 * pi)
            for line in (mpmath.floor(m), mpmath.floor(m) + 1):
                foot = [z + (line - m) * 2 * pi / (a * sum(x * x for x in c)) * cj
                        for z, cj in zip(zero, c)]

                def mod(t):
                    return abs(sum(mpmath.expj((f + t * d + beta * cj) * a)
                                   for f, d, cj in zip(foot, axis, c)))

                lo, hi = -half, half
                for _ in range(steps):
                    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
                    lo, hi = (lo, x2) if mod(x1) < mod(x2) else (x1, hi)
                best = min(best, mod(0), mod((lo + hi) / 2))
        return 2 * best


@pytest.mark.parametrize("c", [(1000001, 1000000, -2000001), (2 ** 30, -2 ** 29 + 1, -2 ** 29 - 1),
                               (2 ** 30, 0, -2 ** 30), (56, 55, -111), (7, -3, -4),
                               (536870915, 536870909, -1073741824)])
@pytest.mark.parametrize("flux", [0.0, 0.3, 1e-6, -2.7])
def test_band_gap_matches_mpmath_line_minima(c, flux):
    """Relative 1e-13, for gaps from 0.58 down to 1e-14 (a metallic tube under 1e-6 of a flux)."""
    beta = flux * lines.flux_period(c, A)
    p = bands.magnetic_params(1.0, beta, c, A) if flux else P_UNIFORM
    gap = bands.band_gap(c, tube_symmetry(c), p).gap
    if flux == 0 and tube.is_metallic(c):
        assert gap == 0.0
    else:
        assert gap == pytest.approx(float(mp_line_minima(c, beta)), rel=1e-13)


@pytest.mark.parametrize("hoppings", ["uniform", "flux", "flux-gamma"])
def test_zero_modulus_matches_vectorized_modulus(hoppings):
    """The gap search's modulus, measured from a hopping zero, against 50-digit mpmath.

    Both near the zero and 0.5 / a from it.  The referee sums the hoppings
    p.hoppings times e^{i k_j a} at k = zero + theta / a, the hoppings exactly as
    the doubles give them and the zero exactly.  The bound is 1e-15 per unit of gamma at K and K',
    under flux too (the former referee, numpy at the rounded k, was itself
    up to 1.4e-15 gamma off there).
    """
    c = (7, -3, -4)
    period = lines.flux_period(c, A)
    p = {"uniform": P_UNIFORM,
         "flux": bands.magnetic_params(1.0, 0.3 * period, c, A),
         "flux-gamma": bands.magnetic_params(0.45, 1.3 * period, c, A)}[hoppings]
    rng = np.random.default_rng(37)
    worst = 0.0
    with mpmath.workdps(50):
        hops = [mpmath.mpc(complex(h)) for h in p.hoppings]
        for w, _, seed, x, den in bands._gap_seeds(c, p):
            # the exact zero, in units of 2 pi / a
            zero = [mpmath.mpf(s - xj) / den for s, xj in zip(seed, x)]
            for scale in (1e-9, 1e-3, 0.5):
                for theta in rng.uniform(-scale, scale, (500, 3)):
                    got = bands._zero_modulus(w, theta, (0.0, 0.0, 0.0))(0.0)
                    ref = abs(sum(h * mpmath.expj(2 * mpmath.pi * z + t)
                                  for h, z, t in zip(hops, zero, theta)))
                    worst = max(worst, abs(got - ref))
    assert worst <= 1e-15 * p.gamma
