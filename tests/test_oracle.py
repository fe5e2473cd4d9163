import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cntbands import bands, geom, lines, oracle
from cntbands.bands import A_DEFAULT as A
from cntbands.honeycomb import nearest_neighbors, nu
from cntbands.tube import DecompositionError, canonical_rep, compose, decompose, tube_symmetry

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)


def segment_key(v, sym, periods):
    """Canonical representative of v modulo c and the segment's period P b.

    c and b are orthogonal, so reducing along P b and then along c gives
    every atom of the closed segment one key.
    """
    pb = [periods * x for x in sym.b]
    k = sum(x * y for x, y in zip(v, pb)) // sum(x * x for x in pb)
    return canonical_rep([x - k * y for x, y in zip(v, pb)], sym.c)


def segment_atoms(sym, periods):
    """The segment's 2qP atoms (s, m, p), s < P q', in (p, m, s) order, by segment_key."""
    atoms = {}
    for p in (0, 1):
        for m in range(sym.n):
            for s in range(periods * sym.q_prime):
                atoms[segment_key(compose(s, m, p, sym), sym, periods)] = (s, m, p)
    assert len(atoms) == 2 * sym.q * periods
    return atoms


def scalar_finite_tube(sym, periods):
    """Sites and bonds of the segment, one atom and one bond at a time, as a reference.

    sites lists the 2qP atoms (s, m, p), s < P q', in (p, m, s) order; bonds[i]
    holds (target index, j, nu) for the bond v -> v^j leaving atom i.  Targets
    are looked up by segment_key, not decomposed.
    """
    atoms = segment_atoms(sym, periods)
    index = {key: i for i, key in enumerate(atoms)}
    sites = [compose(s, m, p, sym) for s, m, p in atoms.values()]
    bonds = [[(index[segment_key(nb, sym, periods)], j, nu(rep))
              for j, nb in enumerate(nearest_neighbors(rep))] for rep in sites]
    return sites, bonds


@pytest.mark.parametrize("c,periods,expected", [
    ((4, -2, -2), 1, 8),
    ((5, 0, -5), 2, 40),
    ((4, -1, -3), 1, 52),
])
def test_site_counts(c, periods, expected):
    sym = tube_symmetry(c)
    sites, _ = scalar_finite_tube(sym, periods)
    assert len(sites) == expected == 2 * sym.q * periods
    assert len(set(sites)) == expected
    assert oracle.compare_spectra(c, sym, periods, P_UNIFORM, tol=1e-8).dimension == expected


def loop_bond_table(tube):
    """The segment's bonds as a (2q', 3, 3) table, one (p, j) at a time, as a reference.

    bonds[r, j] = (row, x, y) for the bond v -> v^j leaving row r, which ends
    at row's atom moved x steps along c' and y steps along b.  Row (s', 0, p)
    is row (0, 0, p) moved by a lattice vector, so its bond j ends at
    (s_j - s', m_j, target_j), that is at row target_j q' + s'' moved
    (m_j + twist u, u) along (c', b), mirrored by tau when target_j = 1,
    where s_j - s' = u q' + s''.
    """
    qp, twist = tube.sym.q_prime, oracle._axial_twist(tube.sym)
    bonds = np.empty((2, 3, 3, qp), dtype=np.int64)
    for p in (0, 1):
        for j, (s, m, target) in enumerate(tube.bonds[p]):
            u, s = divmod(s - np.arange(qp), qp)
            flip = 1 - 2 * target
            bonds[p, j] = target * qp + s, flip * (m + twist * u), flip * u
    return bonds.transpose(0, 3, 1, 2).reshape(2 * qp, 3, 3)


BUILD_TUBES = [(4, -1, -3), (2, 0, -2), (4, -2, -2), (5, 0, -5), (7, -1, -6), (6, -2, -4),
               (9, -3, -6), (7, -3, -4), (8, -4, -4), (10, -1, -9)]


# every tube at P = 1, 2, 3, then two chiral n = 1 tubes: q' = 998 at P = 1 and q' = 86 at P = 3
@pytest.mark.parametrize("c,periods", [
    *(pytest.param(c, periods, id=f"{periods}-c{i}")
      for i, c in enumerate(BUILD_TUBES) for periods in (1, 2, 3)),
    pytest.param((25, -7, -18), 1, id="1-c10"),
    pytest.param((13, -5, -8), 3, id="3-c11"),
])
def test_array_build_matches_scalar_reference(c, periods):
    sym = tube_symmetry(c)
    qp = sym.q_prime
    tube = oracle.build_finite_tube(sym, periods)
    atoms = segment_atoms(sym, periods)
    assert tube.periods == periods
    bonds = loop_bond_table(tube)
    for r in range(2 * qp):
        rep = compose(r % qp, 0, r // qp, sym)
        # the rows below q' are the sum-0 sublattice, whose bonds carry gamma unconjugated
        assert nu(rep) == (1 if r < qp else -1)
        for j, nb in enumerate(nearest_neighbors(rep)):
            # the key's s differs from the neighbour's own by a multiple of P q'
            s, _, p = atoms[segment_key(nb, sym, periods)]
            row, x, y = bonds[r, j].tolist()
            assert row == p * qp + s % qp
            # the neighbour is its row's atom moved x steps along c' and y along b
            moved = [v + x * cp + y * b for v, cp, b in
                     zip(compose(row % qp, 0, row // qp, sym), sym.c_prime, sym.b)]
            assert canonical_rep(moved, sym.c) == canonical_rep(nb, sym.c)


@pytest.mark.parametrize("c", [(4, -2, -2), (5, 0, -5), (4, -1, -3), (25, -7, -18)])
@pytest.mark.parametrize("periods", [1, 2])
def test_build_decomposes_six_bonds(monkeypatch, c, periods):
    # the bonds of rows (0, 0, 0) and (0, 0, 1) give every row's, whatever q' is
    calls = []

    def counted(rep, sym):
        calls.append(rep)
        return decompose(rep, sym)

    monkeypatch.setattr(oracle, "decompose", counted)
    oracle.build_finite_tube(tube_symmetry(c), periods)
    assert len(calls) == 6


def pool(c0_max):
    """The benchmark's survey pool of chiralities c0 > c1 >= c2, up to a largest c0."""
    return [(c0, c1, -c0 - c1) for c0 in range(1, c0_max + 1) for c1 in range(-(c0 // 2), c0)]


@pytest.mark.parametrize("periods", [1, 2])
def test_bond_table_matches_loop_reference(periods):
    # loop_bond_table shifts the screw powers of the six decompositions for every row: each
    # sampled row's own neighbours decompose to exactly those shifted coordinates
    for c in pool(44):
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > oracle.MAX_DIM:
            continue
        tube = oracle.build_finite_tube(sym, periods)
        assert all(type(v) is int for row in tube.bonds for bond in row for v in bond)
        qp = sym.q_prime
        for p, row in enumerate(tube.bonds):
            for r in {0, 1 % qp, qp // 2, qp - 1}:
                own = [decompose(nb, sym) for nb in nearest_neighbors(compose(r, 0, p, sym))]
                assert own == [(s - r, m, target) for s, m, target in row], (c, p, r)


def test_three_regular_symmetric_bonds():
    for c in [(5, 0, -5), (4, -1, -3), (6, -2, -4)]:
        sym = tube_symmetry(c)
        table = loop_bond_table(oracle.build_finite_tube(sym, 2))
        assert np.bincount(table[..., 0].ravel()).tolist() == [3] * 2 * sym.q_prime
        # each bond r -> (row, x, y) has a reverse row -> (r, -x, -y); x counts
        # steps along c', so it is defined mod n
        bonds = Counter((r, row, x % sym.n, y)
                        for r, leaving in enumerate(table.tolist()) for row, x, y in leaving)
        for (r, row, x, y), count in bonds.items():
            assert bonds[(row, r, -x % sym.n, -y)] == count


def test_periods_validation():
    sym = tube_symmetry((4, -2, -2))
    with pytest.raises(ValueError):
        oracle.build_finite_tube(sym, 0)


def dense_hamiltonian(sym, periods, p):
    """The full 2qP x 2qP hopping matrix of the scalar reference, one bond at a time."""
    sites, bonds = scalar_finite_tube(sym, periods)
    gammas = tuple(map(complex, p.hoppings))
    h = np.zeros((len(sites),) * 2, dtype=complex)
    np.fill_diagonal(h, p.epsilon)
    for i, row in enumerate(bonds):
        for l, j, sign in row:
            h[i, l] += gammas[j] if sign == 1 else np.conj(gammas[j])
    assert np.array_equal(h, h.conj().T)
    return h


def assembled_blocks(t, epsilon):
    """The full blocks [[epsilon I, T], [T^H, epsilon I]] of a stack of hopping blocks T."""
    diag = np.broadcast_to(epsilon * np.eye(t.shape[-1]), t.shape)
    return np.concatenate([np.concatenate([diag, t], axis=-1),
                           np.concatenate([np.swapaxes(t, -1, -2).conj(), diag], axis=-1)],
                          axis=-2)


def two_half_hamiltonian(tube, p):
    """build_hamiltonian's T with both halves of loop_bond_table assembled densely: a reference.

    The p = 1 rows are assembled into a stack of their own, conjugated and
    compared exactly with T^T, then with T, which given the first identity is
    T = T^T; either failure raises AdjacencyError with build_hamiltonian's
    Hermitian message or the symmetry one.  Bond degrees and sublattices are
    not checked.
    """
    n, periods = tube.sym.n, tube.periods
    qp = tube.sym.q_prime
    row, x, y = np.moveaxis(loop_bond_table(tube), -1, 0)
    gammas = np.array(p.hoppings, dtype=complex)
    if not gammas.imag.any():
        gammas = gammas.real
    hop = np.repeat([gammas, gammas.conj()], qp, axis=0)
    m = np.arange(n)[:, None, None, None]
    l = np.arange(periods)[:, None, None]
    values = hop * oracle._roots(n)[m * x % n] * oracle._roots(periods)[l * y % periods]
    block = m * periods + l
    rows = np.arange(qp)[:, None]
    t = np.zeros((n * periods, qp, qp), dtype=values.dtype)
    np.add.at(t, (block, rows, row[:qp] % qp), values[..., :qp, :])
    back = np.zeros_like(t)
    np.add.at(back, (block, rows, row[qp:] % qp), values[..., qp:, :])
    np.conjugate(back, out=back)
    if not np.array_equal(back, np.swapaxes(t, -1, -2)):
        raise oracle.AdjacencyError("assembled matrix is not exactly Hermitian")
    if not np.array_equal(back, t):
        raise oracle.AdjacencyError("hopping block T is not exactly symmetric")
    return t


def flux_params(c, flux):
    """Unit hopping with `flux` flux periods through the tube; P_UNIFORM at zero flux."""
    return bands.magnetic_params(1.0, flux * lines.flux_period(c, A), c, A) if flux else P_UNIFORM


def same_bits(a, b):
    """Equal dtypes, shapes and bits: values and sign bits, which array_equal alone misses."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def builds_like_reference(tube, p):
    """build_hamiltonian's T, or None where it raises, checked against two_half_hamiltonian's."""
    try:
        want = two_half_hamiltonian(tube, p)
    except oracle.AdjacencyError as exc:
        with pytest.raises(oracle.AdjacencyError, match=str(exc)):
            oracle.build_hamiltonian(tube, p)
        return None
    t = oracle.build_hamiltonian(tube, p)
    assert same_bits(t, want)
    return t


@pytest.mark.parametrize("flux", [0.0, 0.37])
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_hamiltonian_matches_two_half_reference(periods, flux):
    for c in pool(30):
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > oracle.MAX_DIM:
            continue
        tube = oracle.build_finite_tube(sym, periods)
        assert builds_like_reference(tube, flux_params(c, flux)) is not None, c


@pytest.mark.parametrize("c,periods", [((5, 0, -5), 2), ((4, -1, -3), 3), ((7, -3, -4), 1),
                                       ((8, -4, -4), 3), ((25, -7, -18), 1)])
@pytest.mark.parametrize("flux", [0.0, 0.37])
def test_compare_spectra_matches_two_half_reference(monkeypatch, c, periods, flux):
    sym, p = tube_symmetry(c), flux_params(c, flux)
    got = oracle.compare_spectra(c, sym, periods, p, tol=1e-8)
    monkeypatch.setattr(oracle, "build_hamiltonian", two_half_hamiltonian)
    want = oracle.compare_spectra(c, sym, periods, p, tol=1e-8)
    assert repr(got.max_deviation) == repr(want.max_deviation)
    assert got.passed and want.passed
    assert got.finite.tobytes() == want.finite.tobytes()


def test_hamiltonian_uniform_real_symmetric():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(sym, 2)
    t = oracle.build_hamiltonian(tube, P_UNIFORM)
    assert t.shape == (sym.n * 2, sym.q_prime, sym.q_prime) == (4, 2, 2)
    assert np.isrealobj(t)
    assert np.array_equal(t, np.swapaxes(t, -1, -2))
    # in the (0, 0) block every phase is 1: 3 gamma of hopping weight per row
    # of T (a p = 0 atom) and per column (a p = 1 atom)
    assert np.abs(t[0]).sum(axis=-1) == pytest.approx(np.full(2, 3.0))
    assert np.abs(t[0]).sum(axis=-2) == pytest.approx(np.full(2, 3.0))
    # bonds of one orbit may share an entry, so weigh rows over all n P blocks:
    # sum_(m,l) |T_ml[a, b]|^2 = n P sum_t |H[a, t(b)]|^2 = 3 n P gamma^2
    assert (t ** 2).sum(axis=(0, 2)) == pytest.approx(np.full(2, 3.0 * 4))
    assert (t ** 2).sum(axis=(0, 1)) == pytest.approx(np.full(2, 3.0 * 4))


def test_hamiltonian_magnetic_hermitian():
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(sym, 2)
    pm = bands.magnetic_params(1.0, 0.2 / A, c, A)
    t = oracle.build_hamiltonian(tube, pm)
    assert t.shape == (sym.n * 2, sym.q_prime, sym.q_prime) == (10, 2, 2)
    assert np.iscomplexobj(t)
    # complex symmetric, not Hermitian: the flux makes T != T^H
    assert np.array_equal(t, np.swapaxes(t, -1, -2))
    assert not np.array_equal(t, np.swapaxes(t, -1, -2).conj())
    assert (np.abs(t) ** 2).sum(axis=(0, 2)) == pytest.approx(np.full(2, 3.0 * 10))
    assert (np.abs(t) ** 2).sum(axis=(0, 1)) == pytest.approx(np.full(2, 3.0 * 10))
    ev = oracle.eigenvalues(t, pm.epsilon)
    assert np.isrealobj(ev)
    ref = np.sort(np.linalg.eigvalsh(assembled_blocks(t, pm.epsilon)), axis=None)
    assert np.max(np.abs(ev - ref)) < 1e-12


@pytest.mark.parametrize("c", [(4, -1, -3), (2, 0, -2), (4, -2, -2), (3, 0, -3),
                               (8, -4, -4), (6, -3, -3), (5, 0, -5), (6, 0, -6),
                               (6, -2, -4), (9, -3, -6)])
@pytest.mark.parametrize("beta", [0.0, 0.23])
def test_blocks_match_dense_reference(c, beta):
    sym = tube_symmetry(c)
    p = bands.magnetic_params(1.0, beta / A, c, A, epsilon=0.1) if beta else P_UNIFORM
    for periods in (1, 2, 3):  # P = 3 makes the phases along b complex
        tube = oracle.build_finite_tube(sym, periods)
        t = oracle.build_hamiltonian(tube, p)
        assert t.shape == (sym.n * periods, sym.q_prime, sym.q_prime)
        assert np.isrealobj(t) == (sym.n <= 2 and periods <= 2 and not beta)
        assert np.array_equal(t, np.swapaxes(t, -1, -2))
        ref = np.linalg.eigvalsh(dense_hamiltonian(sym, periods, p))
        assert np.max(np.abs(oracle.eigenvalues(t, p.epsilon) - ref)) < 1e-12


def test_hopping_stack_holds_one_buffer():
    # the p = 1 rows are checked on the six decompositions: only T is allocated
    tube = oracle.build_finite_tube(tube_symmetry((14, 1, -15)), 1)
    tracemalloc.start()
    try:
        t = oracle.build_hamiltonian(tube, P_UNIFORM)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.shape == (1, 422, 422)
    root = t
    while root.base is not None:
        root = root.base
    assert root.nbytes == t.nbytes
    assert current <= 1.25 * t.nbytes
    # no second stack is built beside it, even for a moment
    assert peak <= 1.25 * t.nbytes


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
        oracle.build_finite_tube(tube_symmetry(c), 1)
    assert time.perf_counter() - t0 < 2.0


def test_eigenvalues_small_cases():
    # one bond between two sites: epsilon +- |gamma|
    assert oracle.eigenvalues(np.array([[0.7]]), 0.0) == pytest.approx([-0.7, 0.7])
    assert oracle.eigenvalues(np.array([[-0.7j]]), 0.2) == pytest.approx([-0.5, 0.9])
    assert oracle.eigenvalues(np.array([[0.0]]), 0.5) == pytest.approx([0.5, 0.5])
    # a stack is one spectrum
    assert oracle.eigenvalues(np.array([[[1.0]], [[2.0]]]), 0.0) == pytest.approx(
        [-2.0, -1.0, 1.0, 2.0])


def test_eigenvalues_trace_preserved():
    rng = np.random.default_rng(2)
    r = rng.normal(size=(3, 20, 20))
    real = r + np.swapaxes(r, -1, -2)
    rank_six_real = r[..., :6] @ np.swapaxes(r[..., :6], -1, -2) / 6.0
    rank_six_real = rank_six_real + np.swapaxes(rank_six_real, -1, -2)
    cplx = r + 1j * rng.normal(size=(3, 20, 20))
    rank_six = cplx[..., :6] @ cplx[..., :6, :] / 6.0
    for t in (real, rank_six_real, cplx, rank_six):
        for epsilon in (0.0, 0.3):
            h = assembled_blocks(t, epsilon)
            ev = oracle.eigenvalues(t, epsilon)
            assert np.max(np.abs(ev - np.sort(np.linalg.eigvalsh(h), axis=None))) < 1e-12
            assert ev.sum() == pytest.approx(np.trace(h, axis1=-2, axis2=-1).sum().real,
                                             abs=1e-10 * 120)
            assert (np.diff(ev) >= 0).all()
    # a rank-6 block of size 20 has 14 zero singular values: 28 eigenvalues at epsilon
    for t in (rank_six_real, rank_six):
        assert np.sum(np.abs(oracle.eigenvalues(t[0], 0.3) - 0.3) < 1e-12) == 28


def test_eigenvalues_rejects_asymmetric_real_block():
    # eigvalsh would read one triangle of it and return a wrong spectrum
    t = np.array([[[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="symmetric"):
        oracle.eigenvalues(t, 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        oracle.eigenvalues(t[0], 0.0)
    # a complex block need not be symmetric
    assert oracle.eigenvalues(t[0].astype(complex), 0.0) == pytest.approx([-2, -1, 1, 2])


def test_eigenvalues_dimension_cap():
    half = oracle.MAX_DIM // 2 + 1
    with pytest.raises(oracle.DimensionError):
        oracle.eigenvalues(np.broadcast_to(0.0, (half, half)), 0.0)
    with pytest.raises(ValueError, match="square"):
        oracle.eigenvalues(np.zeros((2, 3)), 0.0)


def test_analytic_spectrum_structure():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    spec = oracle.analytic_spectrum(sym, 1, P_UNIFORM)
    assert len(spec) == 2 * sym.q
    assert spec == pytest.approx(-spec[::-1], abs=1e-12)  # half filling symmetry
    assert spec[0] == pytest.approx(-3.0, abs=1e-12)
    assert spec[-1] == pytest.approx(3.0, abs=1e-12)


def mp_bloch_moduli(sym, periods, p, dps=40):
    """|sum_j gamma_j e^{i k_j a}|, gamma_j = p.hoppings, at dps digits at the Bloch points.

    Point (m, l), l < P q', has <k, c> a / 2 pi = m and screw coordinate
    kappa a / 2 pi = (m j mod n) / n + l / P, with j = q <c, omega> / <c, c>
    the axial twist; k = x c + y b is solved in fractions and reduced mod 1
    before mpmath sees it.
    """
    c, b, omega = sym.c, sym.b, sym.omega
    cc, w, bw = geom.inner(c, c), geom.inner(c, omega), geom.inner(b, omega)
    twist = sym.q * w // cc
    out = []
    with mpmath.workdps(dps):
        hops = [mpmath.mpc(complex(h)) for h in p.hoppings]
        for m in range(sym.n):
            for l in range(periods * sym.q_prime):
                kappa = Fraction(m * twist % sym.n, sym.n) + Fraction(l, periods)
                x = Fraction(m, cc)
                y = (kappa / sym.q_prime - x * w) / bw
                k = [(x * cj + y * bj) % 1 for cj, bj in zip(c, b)]
                out.append(abs(sum(h * mpmath.expjpi(2 * mpmath.mpf(kj.numerator) / kj.denominator)
                                   for h, kj in zip(hops, k))))
    return out


@pytest.mark.parametrize("c,periods,flux", [
    ((18, 7, -25), 1, 0.0), ((25, -7, -18), 1, 0.0), ((7, 4, -11), 13, 0.0),
    ((7, 4, -11), 13, 0.37), ((8, 0, -8), 33, 0.21),
    # the largest segments MAX_DIM allows, whose phase numerators are the largest
    *[(c, periods, flux) for c, periods in [((47, 14, -61), 1), ((1024, 0, -1024), 1),
                                             ((2048, -1024, -1024), 1), ((8, 0, -8), 128)]
      for flux in (0.0, 0.37)]])
def test_analytic_spectrum_matches_mpmath(c, periods, flux):
    # the Bloch points' phases are reduced in integers, so no float kappa of size ~q' rounds
    # into them (a float parametrization was up to 3.7e-14 off here)
    sym = tube_symmetry(c)
    p = flux_params(c, flux)
    got = oracle.analytic_spectrum(sym, periods, p)
    with mpmath.workdps(40):
        ref = sorted(s * r for r in mp_bloch_moduli(sym, periods, p) for s in (1, -1))
        assert len(got) == len(ref) == 2 * sym.q * periods
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 2e-15 * p.gamma


def test_roots_pair_exactly_within_rounding_of_mpmath():
    # np.exp roots were 1.02e-15 off at n = 196, k = 93
    with mpmath.workdps(40):
        for n in [*range(1, 200), 256, 331, 509, 997, 1024, 1500, 2039, 2048]:
            root = oracle._roots(n).astype(complex)
            assert root[0] == 1 and (n % 2 or root[n // 2] == -1)
            k = np.arange(1, (n + 1) // 2)
            assert same_bits(root[n - k], root[k].conj())
            assert max(abs(mpmath.mpc(z) - mpmath.expjpi(mpmath.mpf(2 * j) / n))
                       for j, z in enumerate(root)) <= 6e-16


def printed_bloch_rows(c, sym, periods, p):
    """(E_plus - eps, at K) of the band_blocks rows of verify's Bloch points.

    At S = n P q' samples these are line m's grid points first_m + n l, first_m
    = (m twist mod n) P, l < P q', taken mod S; rows added off the grid at K
    are skipped.
    """
    n, points = sym.n, periods * sym.q_prime
    samples, twist = n * points, oracle._axial_twist(sym) % n
    rows = []
    for m in range(n):
        k_rows = lines._k_rows(c, sym, m, samples, p)
        added = {kk for _, kk, _ in k_rows if kk is not None}
        on_k = {i for i, kk, _ in k_rows if kk is None}
        grid = [plus for _, kappa, _, block in lines.band_blocks(c, sym, m, samples, p)
                for kk, plus in zip(kappa, block) if kk not in added]
        assert len(grid) == samples
        first = m * twist % n * periods
        rows += [(grid[i] - p.epsilon, i in on_k)
                 for i in ((first + n * l) % samples for l in range(points))]
    return rows


@pytest.mark.parametrize("c,periods,k_rows", [
    ((4, -1, -3), 2, 0), ((7, -2, -5), 1, 0), ((7, -2, -5), 3, 2),
    ((5, 0, -5), 2, 0), ((4, -2, -2), 2, 0), ((4, -2, -2), 3, 2), ((6, 0, -6), 1, 2)])
@pytest.mark.parametrize("flux", [0.0, 0.37])
def test_verify_checks_the_moduli_bands_prints(c, periods, k_rows, flux):
    sym = tube_symmetry(c)
    p = flux_params(c, flux)
    rows = printed_bloch_rows(c, sym, periods, p)
    printed = np.sort([s * v for v, _ in rows for s in (1, -1)])
    assert np.max(np.abs(printed - oracle.analytic_spectrum(sym, periods, p))) <= 1e-15 * p.gamma
    at_k = [v for v, k in rows if k]
    assert len(at_k) == k_rows and (flux or at_k == [0.0] * k_rows)


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


@pytest.mark.parametrize("c", [(4, -2, -2), (5, 0, -5), (4, 1, -5), (7, -3, -4), (8, -4, -4),
                               (6, -1, -5)])
def test_zero_field_is_the_uniform_tube_bit_for_bit(c):
    # `cntbands gap` builds magnetic_params whatever its beta
    sym = tube_symmetry(c)
    for gamma, eps in [(1.0, 0.0), (2.7, 0.3), (0.45, -1.5)]:
        uniform = bands.uniform_params(gamma, eps, A)
        for zero in (bands.magnetic_params(gamma, beta, c, A, epsilon=eps) for beta in (0.0, -0.0)):
            assert repr(bands.band_gap(c, sym, zero)) == repr(bands.band_gap(c, sym, uniform))
            got, want = (oracle.compare_spectra(c, sym, 2, p, tol=1e-8) for p in (zero, uniform))
            assert got.finite.tobytes() == want.finite.tobytes()
            assert got.analytic.tobytes() == want.analytic.tobytes()
            assert repr(got.max_deviation) == repr(want.max_deviation)


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
    tube = oracle.build_finite_tube(sym, 2)
    ev = oracle.eigenvalues(oracle.build_hamiltonian(tube, P_UNIFORM), P_UNIFORM.epsilon)
    assert ev == pytest.approx(-ev[::-1], abs=1e-10)


@pytest.mark.parametrize("c,periods,zero_mode", [
    *[(c, periods, True) for c in [(3, 0, -3), (6, 0, -6), (9, -3, -6)] for periods in (1, 2, 3)],
    ((4, -2, -2), 3, True), ((7, -2, -5), 3, True),
    # their Bloch grids miss the K points until P = 3
    ((4, -2, -2), 1, False), ((4, -2, -2), 2, False),
    ((7, -2, -5), 1, False), ((7, -2, -5), 2, False),
])
def test_zero_modes_where_the_bloch_grid_holds_k(c, periods, zero_mode):
    sym = tube_symmetry(c)
    t = oracle.build_hamiltonian(oracle.build_finite_tube(sym, periods), P_UNIFORM)
    smallest = np.min(np.abs(oracle.eigenvalues(t, 0.0)))
    if zero_mode:
        assert smallest < 1e-12
    else:
        assert smallest > 0.1


def test_finite_gap_bounds_continuous_gap():
    # a discrete sample can only overshoot the continuous minimum
    for c in [(5, 0, -5), (4, -1, -3)]:
        sym = tube_symmetry(c)
        spec = oracle.analytic_spectrum(sym, 5, P_UNIFORM)
        min_plus = spec[spec > 0].min()
        gap = bands.band_gap(c, sym, P_UNIFORM).gap
        assert min_plus >= gap / 2 - 1e-12


def test_compare_tolerance_validation():
    sym = tube_symmetry((4, -2, -2))
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            oracle.compare_spectra((4, -2, -2), sym, 1, P_UNIFORM, tol=tol)


def test_mismatched_chirality_rejected():
    sym = tube_symmetry((4, -2, -2))
    with pytest.raises(ValueError, match="does not match"):
        oracle.compare_spectra((5, 0, -5), sym, 1, P_UNIFORM, tol=1e-8)


def moved(tube, *moves):
    """tube with each move (p, j, ds, dm) added to the screw and rotation power of bonds[p][j]."""
    bonds = [list(row) for row in tube.bonds]
    for p, j, ds, dm in moves:
        s, m, target = bonds[p][j]
        bonds[p][j] = (s + ds, m + dm, target)
    return tube._replace(bonds=tuple(map(tuple, bonds)))


def test_same_sublattice_bonds_fail_bipartite_check():
    tube = oracle.build_finite_tube(tube_symmetry((4, -1, -3)), 2)
    qp = tube.sym.q_prime
    # swap the targets of bond 0 of rows (0, 0, 0) and (0, 0, 1): every degree stays 3
    (s0, m0, target0), (s1, m1, target1) = tube.bonds[0][0], tube.bonds[1][0]
    swapped = tube._replace(bonds=(((s0, m0, target1), *tube.bonds[0][1:]),
                                   ((s1, m1, target0), *tube.bonds[1][1:])))
    assert np.bincount(loop_bond_table(swapped)[..., 0].ravel()).tolist() == [3] * 2 * qp
    with pytest.raises(oracle.AdjacencyError, match="sublattice"):
        oracle.build_hamiltonian(swapped, P_UNIFORM)


def test_shifted_bond_offset_fails_hermitian_check():
    tube = oracle.build_finite_tube(tube_symmetry((5, 0, -5)), 2)
    for ds, dm in ((0, 1), (1, 0)):  # one step further along c', or one screw step
        with pytest.raises(oracle.AdjacencyError, match="Hermitian"):
            oracle.build_hamiltonian(moved(tube, (0, 0, ds, dm)), P_UNIFORM)


@pytest.mark.parametrize("c", [(5, 0, -5), (4, -2, -2)])
@pytest.mark.parametrize("axis", [1, 2])  # along c', or one screw step
def test_shifted_bond_pair_stays_symmetric(c, axis):
    # moving both decompositions of direction j keeps the pair Hermitian, and T = T^T holds
    # by construction: the dense two-half reference, which compares the p = 1 rows with T^T
    # and with T, builds the same moved T bit for bit
    tube = oracle.build_finite_tube(tube_symmetry(c), 2)
    ds, dm = ((0, 1), (1, 0))[axis - 1]
    want = oracle.build_hamiltonian(tube, P_UNIFORM)
    for j in range(3):
        t = builds_like_reference(moved(tube, (0, j, ds, dm), (1, j, ds, dm)), P_UNIFORM)
        assert np.array_equal(t, np.swapaxes(t, -1, -2))
        assert not np.array_equal(t, want)


@pytest.mark.parametrize("c", [(5, 0, -5), (4, -2, -2), (7, -3, -4)])
@pytest.mark.parametrize("axis", [1, 2])  # along c', or along b
def test_bond_offsets_count_modulo_their_period(c, axis):
    # a phase sees x mod n and y mod P: moving a bond by a whole period builds the same T,
    # moving one end by one step raises, unless that step is a whole period (n = 1), exactly
    # where the dense two-half checks do, and moving both ends keeps T Hermitian
    periods = 3
    tube = oracle.build_finite_tube(tube_symmetry(c), periods)
    n, qp, twist = tube.sym.n, tube.sym.q_prime, oracle._axial_twist(tube.sym)
    # a step along c' adds (0, 1) to (s, m), one along b (q', -twist): q' omega = b + twist c'
    ds, dm = ((0, 1), (qp, -twist))[axis - 1]
    period = (n, periods)[axis - 1]
    for p in (P_UNIFORM, bands.magnetic_params(1.0, 0.2 / A, c, A)):
        want = oracle.build_hamiltonian(tube, p)
        for j in range(3):
            for step in (period, -period, 1):
                one = moved(tube, (0, j, step * ds, step * dm))
                pair = moved(tube, (0, j, step * ds, step * dm), (1, j, step * ds, step * dm))
                t = builds_like_reference(one, p)
                if step % period:
                    assert t is None
                    with pytest.raises(oracle.AdjacencyError, match="Hermitian"):
                        oracle.build_hamiltonian(one, p)
                else:
                    assert same_bits(t, want)
                t = builds_like_reference(pair, p)
                assert t is not None and same_bits(t, want) == (step % period == 0)


def table_verdict(tube):
    """The first failing check of loop_bond_table's four integer identities, or None.

    The checks build_hamiltonian made on the bond table before it checked the
    six decompositions: every row receives three bonds, every bond joins the
    sublattices, bond j of row r is reversed by bond j of its target row, and
    row q' + a holds row a's bonds mirrored, with x compared mod n and y mod P.
    """
    n, periods, qp = tube.sym.n, tube.periods, tube.sym.q_prime
    bonds = loop_bond_table(tube)
    row = bonds[..., 0]
    if np.any(np.bincount(row.ravel(), minlength=2 * qp) != 3):
        return "degree"
    if np.any(row // qp == (np.arange(2 * qp) // qp)[:, None]):
        return "sublattice"
    residues = [n, periods]
    back = bonds[row, np.arange(3)]
    if ((back[..., 0] != np.arange(2 * qp)[:, None]).any()
            or ((back[..., 1:] + bonds[..., 1:]) % residues).any()):
        return "Hermitian"
    if ((row[qp:] != row[:qp] - qp).any()
            or ((bonds[qp:, :, 1:] + bonds[:qp, :, 1:]) % residues).any()):
        return "symmetric"
    return None


def mutations(tube):
    """The distinct decomposition sets one mistake away from tube's: a screw or rotation power
    shifted, a target flipped, or two bonds of one row swapped."""
    qp, n, periods = tube.sym.q_prime, tube.sym.n, tube.periods
    sets = set()
    for p in (0, 1):
        for j in range(3):
            for shift in (1, 2, 3, qp, periods * qp, n):
                for sign in (1, -1):
                    sets.add(moved(tube, (p, j, sign * shift, 0)).bonds)
                    sets.add(moved(tube, (p, j, 0, sign * shift)).bonds)
            bonds = [list(row) for row in tube.bonds]
            s, m, target = bonds[p][j]
            bonds[p][j] = (s, m, 1 - target)
            sets.add(tuple(map(tuple, bonds)))
            bonds = [list(row) for row in tube.bonds]
            bonds[p][j], bonds[p][j - 1] = bonds[p][j - 1], bonds[p][j]
            sets.add(tuple(map(tuple, bonds)))
    return [tube._replace(bonds=bonds) for bonds in sorted(sets)]


def test_scalar_checks_match_the_bond_table_checks():
    # the two scalar conditions on the six decompositions pass exactly the decomposition sets
    # whose expanded bond table passes all four table checks; the mirror check never fails
    # first, as it reduces to the same condition as the reversal check
    cases = Counter()
    for c in pool(6):
        for periods in (1, 2, 3, 4):
            for tube in mutations(oracle.build_finite_tube(tube_symmetry(c), periods)):
                verdict = table_verdict(tube)
                if verdict is None:
                    oracle.build_hamiltonian(tube, P_UNIFORM)
                else:
                    with pytest.raises(oracle.AdjacencyError):
                        oracle.build_hamiltonian(tube, P_UNIFORM)
                cases[verdict] += 1
    assert set(cases) == {None, "degree", "Hermitian"} and sum(cases.values()) > 14000


def test_dropped_block_fails_spectrum_length_check(monkeypatch):
    build = oracle.build_hamiltonian
    monkeypatch.setattr(oracle, "build_hamiltonian", lambda tube, p: build(tube, p)[1:])
    with pytest.raises(oracle.AdjacencyError, match="length mismatch"):
        oracle.compare_spectra((5, 0, -5), tube_symmetry((5, 0, -5)), 2, P_UNIFORM, tol=1e-8)


@pytest.mark.parametrize("c,block,delta,match", [
    ((5, 0, -5), 2, 1e-3, "conjugate"),   # (m, l) = (1, 0), whose partner is (4, 0)
    ((5, 0, -5), 8, 1e-3j, "conjugate"),  # that partner
    ((5, 0, -5), 1, 1e-3j, "real"),       # (0, 1) is its own partner
    ((4, -2, -2), 3, 1e-3j, "real"),      # (1, 1) of a real stack
])
def test_broken_time_reversal_fails_pairing_check(monkeypatch, c, block, delta, match):
    build = oracle.build_hamiltonian

    def perturbed(tube, p):
        t = build(tube, p).astype(complex)
        t[block, 0, 0] += delta
        return t

    monkeypatch.setattr(oracle, "build_hamiltonian", perturbed)
    with pytest.raises(oracle.AdjacencyError, match=match):
        oracle.compare_spectra(c, tube_symmetry(c), 2, P_UNIFORM, tol=1e-8)


def test_perturbed_block_fails_at_any_epsilon(monkeypatch):
    # at epsilon = 1e20, epsilon +- 1e-3 rounds to epsilon: the deviation is
    # taken between the spectra at epsilon = 0
    build = oracle.build_hamiltonian

    def perturbed(tube, p):
        t = build(tube, p)
        t[0, 0, 0] += 1e-3
        return t

    monkeypatch.setattr(oracle, "build_hamiltonian", perturbed)
    c = (4, -2, -2)
    reports = [oracle.compare_spectra(c, tube_symmetry(c), 2, bands.uniform_params(1.0, eps, A),
                                      tol=1e-8) for eps in (0.0, 1e20)]
    assert [r.passed for r in reports] == [False, False]
    assert reports[0].max_deviation == reports[1].max_deviation > 1e-4
    assert np.array_equal(reports[1].finite, 1e20 + reports[0].finite)


def test_compare_spectra_calls_layers_through_module(monkeypatch):
    # benchmarks/spans.py attributes time to each layer by wrapping these attributes
    calls = Counter()
    for name in ("build_finite_tube", "build_hamiltonian", "eigenvalues", "analytic_spectrum"):
        def counted(*args, _name=name, _func=getattr(oracle, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(oracle, name, counted)
    for c, beta in (((5, 0, -5), 0.0), ((4, -1, -3), 0.2)):
        p = bands.magnetic_params(1.0, beta / A, c, A) if beta else P_UNIFORM
        assert oracle.compare_spectra(c, tube_symmetry(c), 2, p, tol=1e-8).passed
    assert calls["build_finite_tube"] == calls["build_hamiltonian"] == 2
    assert calls["analytic_spectrum"] == 2
    assert calls["eigenvalues"] >= 2


SWEEP_DIM = 600  # 286 of the 456 (c, P); bounds the dense spectra's time


@pytest.mark.parametrize("beta", [0.0, 0.23])
@pytest.mark.parametrize("periods", [1, 2, 3, 4])
def test_paired_spectrum_matches_full_stack(periods, beta):
    for c in [(c0, c1, -c0 - c1) for c0 in range(1, 13) for c1 in range(-c0, c0)
              if c0 > c1 >= -c0 - c1]:
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > SWEEP_DIM:
            continue
        p = (bands.magnetic_params(1.0, beta / A, c, A, epsilon=0.1) if beta
             else bands.uniform_params(1.0, 0.1, A))
        t = oracle.build_hamiltonian(oracle.build_finite_tube(sym, periods), p)
        full = oracle.eigenvalues(t, p.epsilon)
        paired = oracle.compare_spectra(c, sym, periods, p, tol=1e-8).finite
        if beta:
            # under flux no block has a partner: every block is diagonalized as before
            assert np.array_equal(paired, full)
        else:
            m, l = np.divmod(np.arange(len(t)), periods)
            assert np.array_equal(t[-m % sym.n * periods + -l % periods], t.conj())
            assert np.max(np.abs(paired - full)) < 1e-12


def test_inexact_representatives_fail_decomposition():
    sym = tube_symmetry((4, -2, -2))
    omega = compose(1, 0, 0, sym)
    with pytest.raises(DecompositionError, match="coordinate sum"):
        decompose((1, 1, 0), sym)
    # with b doubled, <omega, b> q' / ||b||^2 = 1/2
    doubled_b = sym._replace(b=tuple(2 * v for v in sym.b))
    with pytest.raises(DecompositionError, match="integer screw power"):
        decompose(omega, doubled_b)
    skew = sym._replace(c_prime=(2, 0, -2))
    with pytest.raises(DecompositionError, match="parallel to c_prime"):
        decompose(sym.c_prime, skew)
