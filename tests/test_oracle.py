import math
import time
from collections import Counter

import numpy as np
import pytest

from cntbands import bands, oracle
from cntbands.bands import A_DEFAULT as A
from cntbands.honeycomb import nearest_neighbors, nu
from cntbands.tube import canonical_rep, compose, decompose, tube_symmetry

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)


@pytest.mark.parametrize("c,periods,expected", [
    ((4, -2, -2), 1, 8),
    ((5, 0, -5), 2, 40),
    ((4, -1, -3), 1, 52),
])
def test_site_counts(c, periods, expected):
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(c, sym, periods)
    assert len(tube.sites) == expected == 2 * sym.q * periods
    assert len(set(map(tuple, tube.sites.tolist()))) == expected


def scalar_finite_tube(c, sym, periods):
    """Sites and bonds of the segment, one atom and one bond at a time, as a reference."""
    span = periods * sym.q_prime
    twist = oracle._axial_twist(sym)
    keys = {}
    sites = []
    for p in (0, 1):
        for m in range(sym.n):
            for s in range(span):
                keys[(s, m, p)] = len(sites)
                sites.append(compose(s, m, p, sym))
    bonds = []
    for rep in sites:
        row = []
        for j, nb in enumerate(nearest_neighbors(rep)):
            s, m, p = decompose(canonical_rep(nb, sym.c), sym)
            shift = s // span
            key = (s - shift * span, (m + shift * periods * twist) % sym.n, p)
            row.append((keys[key], j, nu(rep)))
        bonds.append(row)
    return sites, bonds


@pytest.mark.parametrize("c", [(4, -1, -3), (2, 0, -2), (4, -2, -2), (5, 0, -5),
                               (7, -1, -6), (6, -2, -4), (9, -3, -6), (7, -3, -4),
                               (8, -4, -4), (10, -1, -9)])
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_array_build_matches_scalar_reference(c, periods):
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(c, sym, periods)
    sites, bonds = scalar_finite_tube(c, sym, periods)
    assert tube.sites.shape == (2 * sym.q * periods, 3)
    assert tube.bonds.shape == (2 * sym.q * periods, 3, 3)
    assert tube.sites.tolist() == [list(v) for v in sites]
    assert tube.bonds.tolist() == [[list(b) for b in row] for row in bonds]


def test_three_regular_symmetric_bonds():
    sym = tube_symmetry((5, 0, -5))
    tube = oracle.build_finite_tube((5, 0, -5), sym, 2)
    targets = Counter(l for row in tube.bonds for l, _, _ in row)
    assert all(targets[i] == 3 for i in range(len(tube.sites)))
    # bond relation is symmetric
    pairs = Counter()
    for i, row in enumerate(tube.bonds):
        for l, _, _ in row:
            pairs[(i, l)] += 1
    for (i, l), count in pairs.items():
        assert pairs[(l, i)] == count


def test_periods_validation():
    sym = tube_symmetry((4, -2, -2))
    with pytest.raises(ValueError):
        oracle.build_finite_tube((4, -2, -2), sym, 0)


def dense_hamiltonian(tube, p):
    """The full 2qP x 2qP hopping matrix, one bond at a time, as a reference."""
    gammas = (complex(p.gamma0), complex(p.gamma1), complex(p.gamma2))
    h = np.zeros((len(tube.sites),) * 2, dtype=complex)
    np.fill_diagonal(h, p.epsilon)
    for i, row in enumerate(tube.bonds):
        for l, j, sign in row:
            h[i, l] += gammas[j] if sign == 1 else np.conj(gammas[j])
    assert np.array_equal(h, h.conj().T)
    return h


def test_hamiltonian_uniform_real_symmetric():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(c, sym, 2)
    h = oracle.build_hamiltonian(tube, P_UNIFORM)
    assert h.shape == (sym.n * 2, 2 * sym.q_prime, 2 * sym.q_prime) == (4, 4, 4)
    assert np.isrealobj(h)
    assert np.array_equal(h, np.swapaxes(h, -1, -2))
    # in the (0, 0) block every phase is 1: 3 gamma of hopping weight per row
    assert np.abs(h[0]).sum(axis=-1) == pytest.approx(np.full(4, 3.0))
    # bonds of one orbit may share an entry, so weigh rows over all n P blocks:
    # sum_(m,l) |h_ml[a, b]|^2 = n P sum_t |H[a, t(b)]|^2 = 3 n P gamma^2
    assert (h ** 2).sum(axis=(0, 2)) == pytest.approx(np.full(4, 3.0 * 4))


def test_hamiltonian_magnetic_hermitian():
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(c, sym, 2)
    pm = bands.magnetic_params(1.0, 0.2 / A, c, A)
    h = oracle.build_hamiltonian(tube, pm)
    assert h.shape == (sym.n * 2, 2 * sym.q_prime, 2 * sym.q_prime) == (10, 4, 4)
    assert np.iscomplexobj(h)
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
    assert (np.abs(h) ** 2).sum(axis=(0, 2)) == pytest.approx(np.full(4, 3.0 * 10))
    assert np.isrealobj(oracle.eigenvalues(h))


@pytest.mark.parametrize("c", [(4, -1, -3), (2, 0, -2), (4, -2, -2), (3, 0, -3),
                               (8, -4, -4), (6, -3, -3), (5, 0, -5), (6, 0, -6),
                               (6, -2, -4), (9, -3, -6)])
@pytest.mark.parametrize("beta", [0.0, 0.23])
def test_blocks_match_dense_reference(c, beta):
    sym = tube_symmetry(c)
    p = bands.magnetic_params(1.0, beta / A, c, A, epsilon=0.1) if beta else P_UNIFORM
    for periods in (1, 2, 3):  # P = 3 makes the phases along b complex
        tube = oracle.build_finite_tube(c, sym, periods)
        h = oracle.build_hamiltonian(tube, p)
        assert h.shape == (sym.n * periods, 2 * sym.q_prime, 2 * sym.q_prime)
        assert np.isrealobj(h) == (sym.n <= 2 and periods <= 2 and not beta)
        ref = np.linalg.eigvalsh(dense_hamiltonian(tube, p))
        assert np.max(np.abs(oracle.eigenvalues(h) - ref)) < 1e-12


def test_oversized_segment_rejected_before_assembly(monkeypatch):
    c = (60, 59, -119)
    sym = tube_symmetry(c)
    monkeypatch.setattr(oracle, "build_finite_tube", None)  # must not be reached
    with pytest.raises(oracle.DimensionError):
        oracle.compare_spectra(c, sym, 1, P_UNIFORM, tol=1e-8)


def test_oversized_segment_rejected_by_build():
    c = (60, 59, -119)
    t0 = time.perf_counter()
    with pytest.raises(oracle.DimensionError):
        oracle.build_finite_tube(c, tube_symmetry(c), 1)
    assert time.perf_counter() - t0 < 2.0


def test_eigenvalues_small_cases():
    assert oracle.eigenvalues(np.array([[0.5]])) == pytest.approx([0.5])
    dimer = np.array([[0.0, 0.7], [0.7, 0.0]])
    assert oracle.eigenvalues(dimer) == pytest.approx([-0.7, 0.7])


def test_eigenvalues_trace_preserved():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    h = m + m.conj().T
    ev = oracle.eigenvalues(h)
    assert ev.sum() == pytest.approx(np.trace(h).real, abs=1e-10 * 40)
    assert (np.diff(ev) >= 0).all()


def test_eigenvalues_dimension_cap():
    with pytest.raises(ValueError):
        oracle.eigenvalues(np.zeros((oracle.MAX_DIM + 1, oracle.MAX_DIM + 1)))


def test_analytic_spectrum_structure():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    spec = oracle.analytic_spectrum(c, sym, 1, P_UNIFORM)
    assert len(spec) == 2 * sym.q
    assert spec == pytest.approx(-spec[::-1], abs=1e-12)  # half filling symmetry
    assert spec[0] == pytest.approx(-3.0, abs=1e-12)
    assert spec[-1] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("c,periods", [
    ((4, -2, -2), 6),
    ((5, 0, -5), 4),
    ((4, -1, -3), 4),
])
def test_spectrum_equivalence(c, periods):
    sym = tube_symmetry(c)
    report = oracle.compare_spectra(c, sym, periods, P_UNIFORM, tol=1e-8)
    assert report.passed
    assert report.dimension == 2 * sym.q * periods
    assert report.max_deviation < 1e-8


def test_spectrum_equivalence_magnetic():
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    beta = 0.3 / (A * math.sqrt(50))
    pm = bands.magnetic_params(1.0, beta, c, A)
    report = oracle.compare_spectra(c, sym, 4, pm, tol=1e-8)
    assert report.passed


def test_finite_antisymmetry():
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(c, sym, 2)
    ev = oracle.eigenvalues(oracle.build_hamiltonian(tube, P_UNIFORM))
    assert ev == pytest.approx(-ev[::-1], abs=1e-10)


def test_finite_gap_bounds_continuous_gap():
    # a discrete sample can only overshoot the continuous minimum
    for c in [(5, 0, -5), (4, -1, -3)]:
        sym = tube_symmetry(c)
        spec = oracle.analytic_spectrum(c, sym, 5, P_UNIFORM)
        min_plus = spec[spec > 0].min()
        gap = bands.band_gap(c, sym, P_UNIFORM).gap
        assert min_plus >= gap / 2 - 1e-12


def test_compare_tolerance_validation():
    sym = tube_symmetry((4, -2, -2))
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            oracle.compare_spectra((4, -2, -2), sym, 1, P_UNIFORM, tol=tol)
