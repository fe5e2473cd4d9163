import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given

from cntbands import bands, geom, lines, oracle
from cntbands.bands import A_DEFAULT as A
from cntbands.honeycomb import THETA, nearest_neighbors, nu, tau
from cntbands.tube import DecompositionError, canonical_rep, compose, decompose, tube_symmetry
from conftest import chiralities

P_UNIFORM = bands.uniform_params(1.0, 0.0, A)
REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


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
    assert oracle.compare_spectra(c, sym, periods, P_UNIFORM).dimension == expected


def back_row(sym):
    """The decompositions (s_j, m_j, 0) of the neighbours of row (0, 0, 1), decomposed here."""
    return [decompose(nb, sym) for nb in nearest_neighbors(compose(0, 0, 1, sym))]


def loop_bond_table(tube, back=None):
    """The segment's bonds as a (2q', 3, 3) table, one (p, j) at a time, as a reference.

    bonds[r, j] = (row, x, y) for the bond v -> v^j leaving row r, which ends
    at row's atom moved x steps along c' and y steps along b.  Row (s', 0, p)
    is row (0, 0, p) moved by a lattice vector, so its bond j ends at
    (s_j - s', m_j, target_j), that is at row target_j q' + s'' moved
    (m_j + twist u, u) along (c', b), mirrored by tau when target_j = 1,
    where s_j - s' = u q' + s''.  Row (0, 0, 0)'s bonds are tube.bonds with
    target 1, row (0, 0, 1)'s are back, by default back_row: decomposed
    anew, not derived from tube.bonds by the flip.
    """
    qp, twist = tube.sym.q_prime, tube.twist
    rows = [(s, m, 1) for s, m in tube.bonds], back or back_row(tube.sym)
    bonds = np.empty((2, 3, 3, qp), dtype=np.int64)
    for p in (0, 1):
        for j, (s, m, target) in enumerate(rows[p]):
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
    # the origin's three bonds give the six of rows (0, 0, 0) and (0, 0, 1), and every row's,
    # whatever q' is
    calls = []

    def counted(rep, sym):
        calls.append(rep)
        return decompose(rep, sym)

    monkeypatch.setattr(oracle, "decompose", counted)
    oracle.build_finite_tube(tube_symmetry(c), periods)
    assert len(calls) == 3


def pool(c0_max):
    """The benchmark's survey pool of chiralities c0 > c1 >= c2, up to a largest c0."""
    return [(c0, c1, -c0 - c1) for c0 in range(1, c0_max + 1) for c1 in range(-(c0 // 2), c0)]


@pytest.mark.parametrize("periods", [1, 2])
def test_bond_table_matches_loop_reference(periods):
    # the oracle shifts the screw powers of the three decompositions for every row of either
    # sublattice, the other by the flip: each sampled row's own neighbours decompose to
    # exactly those shifted coordinates
    for c in pool(44):
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > oracle.MAX_DIM:
            continue
        tube = oracle.build_finite_tube(sym, periods)
        assert all(type(v) is int for bond in tube.bonds for v in bond)
        qp = sym.q_prime
        for p in (0, 1):
            for r in {0, 1 % qp, qp // 2, qp - 1}:
                own = [decompose(nb, sym) for nb in nearest_neighbors(compose(r, 0, p, sym))]
                assert own == [(s - r, m, 1 - p) for s, m in tube.bonds], (c, p, r)


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


def two_half_hamiltonian(tube, p, back=None):
    """All 2nP blocks T, both halves of loop_bond_table(tube, back) assembled densely: a reference.

    loop_bond_table's rows are the 2q' orbits of c' and b.  Its row
    p q' + v h + r, h = q'/2, r < h, is row p h + r of the (c', g) blocks
    moved by v g (by -v g when p = 1, tau reverses it), and b = 2 g - twist c',
    so a bond ending x steps along c' and y along b from its row ends
    x - twist y along c' and 2 y + (1 - 2p) v along g from the block's row:
    block (m, e) (oracle._block_labels) phases it by the 2nP-th root of
    unity 2P m (x - twist y) + e (2 y + (1 - 2p) v).  The p = 1 rows are
    assembled into a stack of their own, conjugated and asserted exactly
    equal to T^T, then to T, which given the first identity is T = T^T.
    Bond degrees and sublattices are not checked.
    """
    sym, periods, twist = tube.sym, tube.periods, tube.twist
    n, qp = sym.n, sym.q_prime
    half, order = qp // 2, 2 * n * periods
    table = loop_bond_table(tube, back)
    row, x, y = np.moveaxis(np.concatenate([table[:half], table[qp:qp + half]]), -1, 0)
    v, col = np.divmod(row % qp, half)
    gammas = np.array(p.hoppings, dtype=complex)
    if not gammas.imag.any():
        gammas = gammas.real
    hop = np.repeat([gammas, gammas.conj()], half, axis=0)
    m, e = (z[:, None, None] for z in oracle._block_labels(n, periods, twist))
    turns = 2 * periods * m * (x - twist * y) + e * (2 * y + (1 - 2 * (row // qp)) * v)
    values = hop * oracle._roots(order)[turns % order]
    block = np.arange(order)[:, None, None]
    rows = np.arange(half)[:, None]
    t = np.zeros((order, half, half), dtype=values.dtype)
    np.add.at(t, (block, rows, col[:half]), values[:, :half])
    flipped = np.zeros_like(t)
    np.add.at(flipped, (block, rows, col[half:]), values[:, half:])
    np.conjugate(flipped, out=flipped)
    assert np.array_equal(flipped, np.swapaxes(t, -1, -2)), "the p = 1 rows are not T^H"
    assert np.array_equal(flipped, t), "T is not symmetric"
    return t


def flux_params(c, flux):
    """Unit hopping with `flux` flux periods through the tube; P_UNIFORM at zero flux."""
    return bands.magnetic_params(1.0, flux * lines.flux_period(c, A), c, A) if flux else P_UNIFORM


def same_bits(a, b):
    """Equal dtypes, shapes and bits: values and sign bits, which array_equal alone misses."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def kept(full, tube, p):
    """The blocks of a full 2nP stack that build_hamiltonian builds: all under flux, and
    without a field the lower index of each time-reversal pair."""
    if p.field is not None:
        return full
    partner = oracle._partners(tube.sym.n, tube.periods, tube.twist)
    return full[np.arange(len(full)) <= partner]


def builds_like_reference(tube, back, p):
    """build_hamiltonian's T, checked bit for bit against two_half_hamiltonian's from tube and
    the row back of (0, 0, 1)."""
    t = oracle.build_hamiltonian(tube, p)
    assert same_bits(t, kept(two_half_hamiltonian(tube, p, back), tube, p))
    return t


@pytest.mark.parametrize("flux", [0.0, 0.37])
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_hamiltonian_matches_two_half_reference(monkeypatch, periods, flux):
    # LAPACK returns h values for an h x h block; the block's diagonal stands in for them, so
    # that the spectrum lengths are counted on every tube without the cost of its SVDs
    def diagonal(t, compute_uv=False):
        return np.abs(np.diagonal(t, axis1=-2, axis2=-1))
    monkeypatch.setattr(np.linalg, "eigvalsh", diagonal)
    monkeypatch.setattr(np.linalg, "svd", diagonal)
    for c in pool(30):
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > oracle.MAX_DIM:
            continue
        tube = oracle.build_finite_tube(sym, periods)
        p = flux_params(c, flux)
        full = two_half_hamiltonian(tube, p)
        t = oracle.build_hamiltonian(tube, p)
        assert same_bits(t, kept(full, tube, p)), c
        # compare_spectra's premise: both spectra hold 2qP values, with no length check
        dimension = 2 * sym.q * periods
        assert len(oracle._paired_spectrum(t, tube, not flux)) == dimension, c
        assert len(oracle.analytic_spectrum(tube, p)) == dimension, c
        if not flux:
            # what the blocks build_hamiltonian leaves out stand for: each block of the full
            # reference is the conjugate of its time-reversal partner, and a block that is
            # its own partner is real
            partner = oracle._partners(sym.n, periods, tube.twist)
            assert np.array_equal(full[partner], full.conj()), c
            assert not full[partner == np.arange(len(full))].imag.any(), c


@pytest.mark.parametrize("c,periods", [((5, 0, -5), 2), ((4, -1, -3), 3), ((7, -3, -4), 1),
                                       ((8, -4, -4), 3), ((25, -7, -18), 1)])
@pytest.mark.parametrize("flux", [0.0, 0.37])
def test_compare_spectra_matches_two_half_reference(monkeypatch, c, periods, flux):
    sym, p = tube_symmetry(c), flux_params(c, flux)
    got = oracle.compare_spectra(c, sym, periods, p)
    monkeypatch.setattr(oracle, "build_hamiltonian",
                        lambda tube, p: kept(two_half_hamiltonian(tube, p), tube, p))
    want = oracle.compare_spectra(c, sym, periods, p)
    assert repr(got.max_deviation) == repr(want.max_deviation)
    assert got.passed and want.passed
    assert got.finite.tobytes() == want.finite.tobytes()


def test_hamiltonian_uniform_real_symmetric():
    # n = P = 1: the characters of c' and g are +-1, and the only real stack
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(sym, 1)
    t = oracle.build_hamiltonian(tube, P_UNIFORM)
    assert t.shape == (2 * sym.n, sym.q_prime // 2, sym.q_prime // 2) == (2, 13, 13)
    assert np.isrealobj(t)
    assert np.array_equal(t, np.swapaxes(t, -1, -2))
    # in the (0, 0) block every phase is 1: 3 gamma of hopping weight per row
    # of T (a p = 0 atom) and per column (a p = 1 atom)
    assert np.abs(t[0]).sum(axis=-1) == pytest.approx(np.full(13, 3.0))
    assert np.abs(t[0]).sum(axis=-2) == pytest.approx(np.full(13, 3.0))
    # bonds of one orbit may share an entry, so weigh rows over all 2nP blocks:
    # sum_(m,e) |T_me[a, b]|^2 = 2nP sum_t |H[a, t(b)]|^2 = 3 (2nP) gamma^2
    assert (t ** 2).sum(axis=(0, 2)) == pytest.approx(np.full(13, 3.0 * 2))
    assert (t ** 2).sum(axis=(0, 1)) == pytest.approx(np.full(13, 3.0 * 2))
    # n = 2 or P = 2 makes the characters complex
    for c, periods in (((4, -2, -2), 1), ((4, -1, -3), 2)):
        assert np.iscomplexobj(oracle.build_hamiltonian(
            oracle.build_finite_tube(tube_symmetry(c), periods), P_UNIFORM))


def test_hamiltonian_magnetic_hermitian():
    # at P = 2 the blocks of (5, 0, -5) are 1 x 1, those of (4, -1, -3) 13 x 13
    for c, shape in (((5, 0, -5), (20, 1, 1)), ((4, -1, -3), (4, 13, 13))):
        sym = tube_symmetry(c)
        tube = oracle.build_finite_tube(sym, 2)
        pm = bands.magnetic_params(1.0, 0.2 / A, c, A)
        t = oracle.build_hamiltonian(tube, pm)
        assert t.shape == (2 * sym.n * 2, sym.q_prime // 2, sym.q_prime // 2) == shape
        assert np.iscomplexobj(t)
        # complex symmetric, not Hermitian: the flux makes T != T^H
        assert np.array_equal(t, np.swapaxes(t, -1, -2))
        assert not np.array_equal(t, np.swapaxes(t, -1, -2).conj())
        weight = np.full(shape[-1], 3.0 * shape[0])  # 3 gamma^2 per row and column, 2nP blocks
        assert (np.abs(t) ** 2).sum(axis=(0, 2)) == pytest.approx(weight)
        assert (np.abs(t) ** 2).sum(axis=(0, 1)) == pytest.approx(weight)
        ev = oracle.eigenvalues(t)
        assert np.isrealobj(ev)
        ref = np.sort(np.linalg.eigvalsh(assembled_blocks(t, 0.0)), axis=None)
        assert np.max(np.abs(ev - ref)) < 1e-12


@pytest.mark.parametrize("c", [(4, -1, -3), (2, 0, -2), (4, -2, -2), (3, 0, -3),
                               (8, -4, -4), (6, -3, -3), (5, 0, -5), (6, 0, -6),
                               (6, -2, -4), (9, -3, -6), (3, 1, -4), (2, 1, -3), (5, 1, -6)])
@pytest.mark.parametrize("beta", [0.0, 0.23])
def test_blocks_match_dense_reference(c, beta):
    sym = tube_symmetry(c)
    p = bands.magnetic_params(1.0, beta / A, c, A, epsilon=0.1) if beta else P_UNIFORM
    for periods in (1, 2, 3, 4):
        tube = oracle.build_finite_tube(sym, periods)
        t = oracle.build_hamiltonian(tube, p)
        blocks = 2 * sym.n * periods
        if not beta:
            # one per time-reversal pair; (0, 0), (0, nP), and for even n and P also
            # (n/2, 0) and (n/2, nP), are their own partners
            blocks = (blocks + (4 if sym.n % 2 == periods % 2 == 0 else 2)) // 2
        assert t.shape == (blocks, sym.q_prime // 2, sym.q_prime // 2)
        assert np.isrealobj(t) == (sym.n == periods == 1 and not beta)
        assert np.array_equal(t, np.swapaxes(t, -1, -2))
        ref = np.linalg.eigvalsh(dense_hamiltonian(sym, periods, p))
        got = p.epsilon + oracle._paired_spectrum(t, tube, not beta)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_hopping_stack_holds_one_buffer():
    # the flip makes the p = 1 rows T^H, and no partner block is built: only the kept
    # blocks of T are allocated.  The half-period screw splits the one 422 x 422
    # block of n = P = 1 in two, half the bytes; at P = 4 the 8 complex blocks are 2 real
    # self-partners and 3 time-reversal pairs, 5 kept
    for periods, shape, itemsize in ((1, (2, 211, 211), 8), (4, (5, 211, 211), 16)):
        tube = oracle.build_finite_tube(tube_symmetry((14, 1, -15)), periods)
        tracemalloc.start()
        try:
            t = oracle.build_hamiltonian(tube, P_UNIFORM)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.shape == shape and t.nbytes == math.prod(shape) * itemsize
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
    monkeypatch.setattr(oracle, "build_hamiltonian", None)  # must not be reached
    with pytest.raises(oracle.DimensionError):
        oracle.compare_spectra(c, sym, 1, P_UNIFORM)


def test_oversized_segment_rejected_by_build():
    c = (60, 59, -119)
    t0 = time.perf_counter()
    with pytest.raises(oracle.DimensionError):
        oracle.build_finite_tube(tube_symmetry(c), 1)
    assert time.perf_counter() - t0 < 2.0


def test_eigenvalues_small_cases():
    # one bond between two sites: +- |gamma|
    assert oracle.eigenvalues(np.array([[0.7]])) == pytest.approx([-0.7, 0.7])
    assert oracle.eigenvalues(np.array([[-0.7j]])) == pytest.approx([-0.7, 0.7])
    assert oracle.eigenvalues(np.array([[0.0]])) == pytest.approx([0.0, 0.0])
    # a stack is one spectrum
    assert oracle.eigenvalues(np.array([[[1.0]], [[2.0]]])) == pytest.approx(
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
        h = assembled_blocks(t, 0.0)
        ev = oracle.eigenvalues(t)
        assert np.max(np.abs(ev - np.sort(np.linalg.eigvalsh(h), axis=None))) < 1e-12
        # traceless: the spectrum is symmetric about 0
        assert ev.sum() == pytest.approx(0.0, abs=1e-10 * 120)
        assert np.array_equal(ev, -ev[::-1])
        assert (np.diff(ev) >= 0).all()
    # a rank-6 block of size 20 has 14 zero singular values: 28 zero eigenvalues
    for t in (rank_six_real, rank_six):
        assert np.sum(np.abs(oracle.eigenvalues(t[0])) < 1e-12) == 28


def test_eigenvalues_reraises_lapack_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for t in (np.eye(2), np.eye(2, dtype=complex)):  # eigvalsh, then the SVD
        with pytest.raises(RuntimeError, match="failed to converge") as err:
            oracle.eigenvalues(t)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_analytic_spectrum_structure():
    c = (4, -2, -2)
    sym = tube_symmetry(c)
    spec = oracle.analytic_spectrum(oracle.build_finite_tube(sym, 1), P_UNIFORM)
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
    got = oracle.analytic_spectrum(oracle.build_finite_tube(sym, periods), p)
    with mpmath.workdps(40):
        ref = sorted(s * r for r in mp_bloch_moduli(sym, periods, p) for s in (1, -1))
        assert len(got) == len(ref) == 2 * sym.q * periods
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 2e-15 * p.gamma


def test_roots_pair_exactly_within_rounding_of_mpmath():
    # np.exp roots were 1.02e-15 off at n = 196, k = 93
    with mpmath.workdps(40):
        # the even orders 2nP and P q' the oracle takes, among them 2 x 331, 509, 997, 2039
        for n in [*range(2, 200, 2), 256, 662, 1018, 1024, 1500, 1994, 2048, 4078]:
            root = oracle._roots(n).astype(complex)
            assert root[0] == 1 and root[n // 2] == -1
            k = np.arange(1, n // 2)
            assert same_bits(root[n - k], root[k].conj())
            assert max(abs(mpmath.mpc(z) - mpmath.expjpi(mpmath.mpf(2 * j) / n))
                       for j, z in enumerate(root)) <= 6e-16


def test_roots_mirror_a_quarter_table_exactly(monkeypatch):
    # root[k], k <= n/4, comes from lines._offsets in O(sqrt n) lines._turn calls; the rest are
    # exact mirrors about the imaginary and the real axis
    turns = Counter()
    def counted(num, den, _turn=lines._turn):
        turns[den] += 1
        return _turn(num, den)
    monkeypatch.setattr(lines, "_turn", counted)
    for n in [*range(2, 200, 2), 800, 2000, 2048, 4096]:
        lines._offsets.cache_clear()
        root = oracle._roots(n).astype(complex)
        quarter = n // 4
        assert turns[n] <= min(quarter + 1, lines.SPLIT) + quarter // lines.SPLIT + 1
        assert same_bits(root[:quarter + 1],
                         np.array(lines._offsets((1,), n, quarter + 1)[0]))
        k = np.arange(n // 2 - quarter)
        assert np.array_equal(root[n // 2 - k], -root[k].conj())
    lines._offsets.cache_clear()


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
    ana = oracle.analytic_spectrum(oracle.build_finite_tube(sym, periods), p)
    assert np.max(np.abs(printed - ana)) <= 1e-15 * p.gamma
    at_k = [v for v, k in rows if k]
    assert len(at_k) == k_rows and (flux or at_k == [0.0] * k_rows)


@pytest.mark.parametrize("c,periods", [
    ((4, -2, -2), 6),
    ((5, 0, -5), 4),
    ((4, -1, -3), 4),
])
def test_spectrum_equivalence(c, periods):
    sym = tube_symmetry(c)
    report = oracle.compare_spectra(c, sym, periods, P_UNIFORM)
    assert report.passed
    assert report.dimension == 2 * sym.q * periods
    # the derived bound 12 u gamma (h + 2), met with a margin of 2
    assert report.tolerance == 12 * 2.0 ** -53 * (sym.q_prime // 2 + 2)
    assert report.max_deviation <= report.tolerance / 2


@pytest.mark.parametrize("c", [(4, -2, -2), (5, 0, -5), (4, 1, -5), (7, -3, -4), (8, -4, -4),
                               (6, -1, -5)])
def test_zero_field_is_the_uniform_tube_bit_for_bit(c):
    # `cntbands gap` and `verify` build magnetic_params whatever their beta; at beta = +-0
    # it is field None, the uniform tube's parameters
    sym = tube_symmetry(c)
    for gamma, eps in [(1.0, 0.0), (2.7, 0.3), (0.45, -1.5)]:
        uniform = bands.uniform_params(gamma, eps, A)
        for zero in (bands.magnetic_params(gamma, beta, c, A, epsilon=eps) for beta in (0.0, -0.0)):
            assert repr(bands.band_gap(c, sym, zero)) == repr(bands.band_gap(c, sym, uniform))
            got, want = (oracle.compare_spectra(c, sym, 2, p) for p in (zero, uniform))
            assert got.finite.tobytes() == want.finite.tobytes()
            assert got.analytic.tobytes() == want.analytic.tobytes()
            assert repr(got.max_deviation) == repr(want.max_deviation)


def test_integer_gamma_builds_a_float_stack():
    # BandParams stores gamma as a float, so an integer gamma beyond int64, as a --config
    # file may give, builds a float64 T and not an array of Python objects
    c = (7, -3, -4)
    sym = tube_symmetry(c)
    p = bands.uniform_params(10 ** 30, 0.0, A)
    assert type(p.gamma) is float and p.hoppings == (1e30,) * 3
    assert oracle.build_hamiltonian(oracle.build_finite_tube(sym, 1), p).dtype == np.float64
    assert oracle.compare_spectra(c, sym, 1, p).passed


def test_spectrum_equivalence_magnetic():
    c = (5, 0, -5)
    sym = tube_symmetry(c)
    beta = 0.3 / (A * math.sqrt(50))
    pm = bands.magnetic_params(1.0, beta, c, A)
    report = oracle.compare_spectra(c, sym, 4, pm)
    assert report.passed


def test_finite_antisymmetry():
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    tube = oracle.build_finite_tube(sym, 2)
    ev = oracle._paired_spectrum(oracle.build_hamiltonian(tube, P_UNIFORM), tube, True)
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
    smallest = np.min(np.abs(oracle.eigenvalues(t)))
    if zero_mode:
        assert smallest < 1e-12
    else:
        assert smallest > 0.1


def test_finite_gap_bounds_continuous_gap():
    # a discrete sample can only overshoot the continuous minimum
    for c in [(5, 0, -5), (4, -1, -3)]:
        sym = tube_symmetry(c)
        spec = oracle.analytic_spectrum(oracle.build_finite_tube(sym, 5), P_UNIFORM)
        min_plus = spec[spec > 0].min()
        gap = bands.band_gap(c, sym, P_UNIFORM).gap
        assert min_plus >= gap / 2 - 1e-12


def test_compare_ignores_tol():
    # the pass bound is derived; a tol passed by an older caller changes nothing
    c = (4, -1, -3)
    sym = tube_symmetry(c)
    want = oracle.compare_spectra(c, sym, 2, P_UNIFORM)
    for tol in (0.0, float("nan"), 1e-18, 1e-8, 1e300):
        got = oracle.compare_spectra(c, sym, 2, P_UNIFORM, tol=tol)
        assert got.finite.tobytes() == want.finite.tobytes()
        assert got.analytic.tobytes() == want.analytic.tobytes()
        assert (got.max_deviation, got.tolerance, got.passed) == (
            want.max_deviation, want.tolerance, True)


def test_mismatched_chirality_rejected():
    sym = tube_symmetry((4, -2, -2))
    with pytest.raises(ValueError, match="does not match"):
        oracle.compare_spectra((5, 0, -5), sym, 1, P_UNIFORM)


def moved(tube, j, ds, dm):
    """tube with ds and dm added to the screw and rotation power of bond j, and back_row with
    the same move: the bond moved at both its ends."""
    def move(row):
        return tuple((s + ds, m + dm, *rest) if i == j else (s, m, *rest)
                     for i, (s, m, *rest) in enumerate(row))
    return tube._replace(bonds=move(tube.bonds)), move(back_row(tube.sym))


@pytest.mark.parametrize("c", [(5, 0, -5), (4, -2, -2)])
@pytest.mark.parametrize("axis", [1, 2])  # along c', or one screw step
def test_shifted_bond_pair_stays_symmetric(c, axis):
    # moving a bond at both its ends keeps the p = 1 rows T^H, and T = T^T holds by
    # construction: the dense two-half reference, which compares the p = 1 rows with T^T and
    # with T, builds the same moved T bit for bit
    tube = oracle.build_finite_tube(tube_symmetry(c), 2)
    ds, dm = ((0, 1), (1, 0))[axis - 1]
    want = oracle.build_hamiltonian(tube, P_UNIFORM)
    for j in range(3):
        t = builds_like_reference(*moved(tube, j, ds, dm), P_UNIFORM)
        assert np.array_equal(t, np.swapaxes(t, -1, -2))
        assert not np.array_equal(t, want)


@pytest.mark.parametrize("c", [(5, 0, -5), (4, -2, -2), (7, -3, -4)])
@pytest.mark.parametrize("axis", [1, 2])  # along c', or along b
def test_bond_offsets_count_modulo_their_period(c, axis):
    # a phase sees x mod n and y mod P: moving a bond by a whole period builds the same T, and
    # by one step, unless that step is a whole period (n = 1), another T, as the dense
    # two-half reference does
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
                t = builds_like_reference(*moved(tube, j, step * ds, step * dm), p)
                assert same_bits(t, want) == (step % period == 0)


@pytest.mark.parametrize("delta", [1e-3, 1e-3j])
def test_broken_pair_block_fails_comparison(monkeypatch, delta):
    # block 2 of (5, 0, -5) at P = 2 is (m, e) = (2, 1), kept for its partner (3, 19): the
    # referee counts its perturbed values twice and must fail
    c, periods = (5, 0, -5), 2
    tube = oracle.build_finite_tube(tube_symmetry(c), periods)
    index, own = oracle._kept_blocks(tube, True)
    assert index[2] == 2 and not own[2]
    build = oracle.build_hamiltonian

    def perturbed(tube, p):
        t = build(tube, p)
        t[2, 0, 0] += delta
        return t

    monkeypatch.setattr(oracle, "build_hamiltonian", perturbed)
    report = oracle.compare_spectra(c, tube.sym, periods, P_UNIFORM)
    assert not report.passed and report.max_deviation > 1e-4


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
    reports = [oracle.compare_spectra(c, tube_symmetry(c), 2, bands.uniform_params(1.0, eps, A)) for eps in (0.0, 1e20)]
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
        assert oracle.compare_spectra(c, tube_symmetry(c), 2, p).passed
    assert calls["build_finite_tube"] == calls["build_hamiltonian"] == 2
    assert calls["analytic_spectrum"] == 2
    assert calls["eigenvalues"] >= 2


def achiral_reference_tubes():
    survey = json.loads(REFERENCE.read_text())["survey"]
    return [tuple(row[:3]) for row in survey if row[1] == 0 or row[1] == row[2]]


@pytest.mark.parametrize("flux", [0.0, 0.37])
def test_scalar_blocks_match_lapack(flux):
    # every achiral tube has q' = 2: its blocks are 1 x 1, and |t| stands for LAPACK's value
    for c in achiral_reference_tubes():
        sym, p = tube_symmetry(c), flux_params(c, flux)
        for periods in (1, 2):
            if 2 * sym.q * periods > oracle.MAX_DIM:
                continue
            tube = oracle.build_finite_tube(sym, periods)
            t = oracle.build_hamiltonian(tube, p)
            own = oracle._kept_blocks(tube, not flux)[1]
            assert t.shape == (len(own), 1, 1), c
            stacks = [t]
            if not flux:
                # the self-partner blocks, exactly real, as _paired_spectrum passes them on
                stacks.append(t[own].real)
            for stack in stacks:
                half = (np.abs(np.linalg.eigvalsh(stack)) if np.isrealobj(stack)
                        else np.linalg.svd(stack, compute_uv=False)).ravel()
                ref = np.sort(np.concatenate([-half, half]))
                got = oracle.eigenvalues(stack)
                assert np.all(np.abs(got - ref) <= 4e-16 * np.abs(ref)), c


def test_scalar_blocks_make_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for c, periods, flux in (((12, 0, -12), 20, 0.0), ((8, -4, -4), 3, 0.37)):
        assert oracle.compare_spectra(c, tube_symmetry(c), periods, flux_params(c, flux)).passed
    # a chiral tube's blocks are larger and still go to LAPACK
    with pytest.raises(AssertionError, match="LAPACK called"):
        oracle.compare_spectra((4, -1, -3), tube_symmetry((4, -1, -3)), 1, P_UNIFORM)


SWEEP_DIM = 600  # 286 of the 456 (c, P); bounds the dense spectra's time


@pytest.mark.parametrize("beta", [0.0, 0.23])
@pytest.mark.parametrize("periods", [1, 2, 3, 4])
def test_paired_spectrum_matches_full_stack(periods, beta):
    chiral = 0
    for c in [(c0, c1, -c0 - c1) for c0 in range(1, 13) for c1 in range(-c0, c0)
              if c0 > c1 >= -c0 - c1]:
        sym = tube_symmetry(c)
        if 2 * sym.q * periods > SWEEP_DIM:
            continue
        chiral += sym.n == 1
        p = (bands.magnetic_params(1.0, beta / A, c, A, epsilon=0.1) if beta
             else bands.uniform_params(1.0, 0.1, A))
        full = p.epsilon + oracle.eigenvalues(
            two_half_hamiltonian(oracle.build_finite_tube(sym, periods), p))
        paired = oracle.compare_spectra(c, sym, periods, p).finite
        if beta:
            # under flux no block has a partner: every block is built and diagonalized
            assert np.array_equal(paired, full)
        else:
            # one block per pair, counted twice, for all 2nP blocks of the reference
            assert np.max(np.abs(paired - full)) < 1e-12
    # n = 1 tubes, whose conjugate pairs (e, -e) are new with the half-period screw
    assert chiral >= 10


def assert_half_period_screw(c):
    """q' is even and the axial twist odd: g = (q'/2) omega is a lattice translation with
    g^2 = q' omega = b + twist c', outside the group of c' and b.  q' = 2, so that every
    block is 1 x 1, exactly when the tube is achiral."""
    sym = tube_symmetry(c)
    twist = oracle._axial_twist(sym)
    assert sym.q_prime % 2 == 0 and twist % 2 == 1, c
    assert (sym.q_prime == 2) == (c[1] == 0 or c[1] == c[2]), c
    assert tuple(sym.q_prime * w - twist * x for w, x in zip(sym.omega, sym.c_prime)) == sym.b


def test_half_period_screw_on_reference_tubes():
    survey = json.loads(REFERENCE.read_text())["survey"]
    assert len(survey) == 10860
    for row in survey:
        assert_half_period_screw(tuple(row[:3]))


@given(c=chiralities)
def test_half_period_screw_at_any_size(c):
    assert_half_period_screw(c)


def assert_flip_identity(c):
    """Row (0, 0, 1) is Theta, whose neighbours tau(e_j) decompose to the origin's neighbours'
    (s_j, m_j) on the other sublattice: build_finite_tube's premise."""
    sym = tube_symmetry(c)
    assert compose(0, 0, 1, sym) == THETA
    origin = nearest_neighbors((0, 0, 0))
    assert nearest_neighbors(THETA) == tuple(map(tau, origin))
    for e in origin:
        s, m, p = decompose(e, sym)
        assert p == 1 and decompose(tau(e), sym) == (s, m, 0), c


def test_flip_identity_on_reference_tubes():
    survey = json.loads(REFERENCE.read_text())["survey"]
    assert len(survey) == 10860
    for row in survey:
        assert_flip_identity(tuple(row[:3]))


@given(c=chiralities)
def test_flip_identity_at_any_size(c):
    assert_flip_identity(c)


@pytest.mark.parametrize("c", [(4, -1, -3), (2, 1, -3), (4, -2, -2), (5, 0, -5), (6, 0, -6),
                               (9, -3, -6), (7, -3, -4), (8, -4, -4)])
def test_block_partner_is_an_involution(c):
    sym = tube_symmetry(c)
    n, twist = sym.n, oracle._axial_twist(sym)
    for periods in range(1, 6):
        order = 2 * n * periods
        m, e = oracle._block_labels(n, periods, twist)
        # the 2nP characters of the group of c' and g: distinct, and trivial on c = n c' and on
        # P b = 2P g - P twist c', that is e = m twist P mod n
        assert len(set(zip(m.tolist(), e.tolist()))) == order
        assert ((0 <= e) & (e < order) & ((e - m * twist * periods) % n == 0)).all()
        partner = oracle._partners(n, periods, twist)
        assert np.array_equal(partner[partner], np.arange(order))
        assert np.array_equal(m[partner], -m % n) and np.array_equal(e[partner], -e % order)
        # its own partner exactly where 2m = 0 mod n and e = 0 or nP
        own = partner == np.arange(order)
        assert np.array_equal(own, (2 * m % n == 0) & (e % (n * periods) == 0))


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
