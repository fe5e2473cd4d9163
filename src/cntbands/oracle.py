"""Independent spectral cross-check against an explicit finite Hamiltonian.

A tube segment of P translational periods, closed with axial periodic
boundary, has 2*q*P atoms.  Translation by c' = c/n and translation by the
axial period b both map atoms to atoms and bonds to bonds, and they generate
a group Z_n x Z_P that splits the atoms into 2*q' orbits, one representative
(s', 0, p), s' < q', each.  The screw omega^s' is a lattice translation, so
the bonds of row s' are those of row 0 moved by it: we decompose the three
neighbours of (0, 0, p), p = 0, 1, exactly (integer reduction modulo Zc via
the screw/rotation/flip coordinates), and shifting their screw powers gives
every row's bonds a target orbit and an integer (c', b) offset.  The hopping
matrix then splits into n*P Hermitian blocks of size 2*q', one per pair
(m, l) of quantum numbers.  The blocks use only this relabelling, not the
screw-line formula under test.

Every bond changes the coordinate sum v0 + v1 + v2 by one, so it joins the
two sublattices p = 0 and p = 1.  With the p = 0 rows first, each block is
[[eps I, T], [T^H, eps I]] for a q' x q' hopping block T, and its
eigenvalues are exactly eps +- the singular values of T.  The oracle keeps
only T, assembled from the p = 0 rows alone: that the p = 1 rows hold
exactly T^H is one integer condition per bond direction on the six
decompositions, checked there (build_hamiltonian).  verify holds at most
two stacks of n*P*q'^2*itemsize <= (qP)^2 * itemsize bytes at once (T and
LAPACK's working copy, or T and the halves of compare_spectra's pairing
check), at most 32 MiB real or 64 MiB complex under MAX_DIM.

The involution v -> Theta - v swaps the sublattices: it maps row a, the
atom a omega, to row q' + a, the atom Theta - a omega, and the bond
v -> v^j to the bond (Theta - v) -> (Theta - v)^j, with the conjugate
hopping and the opposite (c', b) offset.  So row q' + a of a block holds
conj(T[a, b]) in column b, where Hermiticity puts conj(T[b, a]): every T is
symmetric, T = T^T (the U axis of the tube's line group), and bit for bit
by construction.  A real symmetric T with eigenvalues lambda has singular
values |lambda|, so its block's spectrum is eps +- lambda from one eigvalsh
of T.  A complex T is complex symmetric, not Hermitian, and keeps the
singular value decomposition.  T is real exactly when n <= 2, P <= 2 and
no flux is applied.

With real hoppings every phase of block (-m mod n, -l mod P) is the exact
conjugate of the same phase of block (m, l), so T_{-m,-l} = conj(T_{m,l})
bit for bit (time reversal pairs the Bloch irreps of the line group) and
the two blocks share their singular values.  compare_spectra checks that
pairing exactly and diagonalizes one block per pair, counting its values
twice.  A block with 2m = 0 mod n and 2l = 0 mod P is its own partner: its
T must be exactly real, and it takes eigvalsh even when the stack is complex.
Under flux the hoppings are complex, no block has a partner, and every
block is diagonalized.

The sorted values of all blocks must reproduce, as a multiset, the analytic
two-band values at the Bloch-quantized points of the allowed k-lines: grid
points of lines.line_numerators, whose integer phases `bands` prints from,
evaluated here in numpy.  Agreement to rounding error is the whole point.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geom import inner
from .lines import EIGHTH_TURN, QUARTER_TURNS, line_numerators
from .honeycomb import nearest_neighbors
from .tube import compose, decompose

MAX_DIM = 4096


class AdjacencyError(RuntimeError):
    """Inconsistent bond structure while assembling the Hamiltonian."""


class DimensionError(ValueError):
    """The segment's matrix dimension 2qP exceeds MAX_DIM."""


class FiniteTube(namedtuple("FiniteTube", "sym periods bonds")):
    """A P-period tube segment and the six bond decompositions that give all its bonds.

    The translations by c' and by b split the segment's 2qP atoms into 2q'
    orbits; row p*q' + s' is the representative (s', 0, p), s' < q', so the
    rows below q' are the sum-0 sublattice.  bonds[p][j] = (s_j, m_j,
    target_j), Python ints, are the coordinates (decompose) of the
    neighbour v^j of row (0, 0, p).
    """

    __slots__ = ()


def _check_dimension(sym, periods):
    """Raise DimensionError when the segment's 2qP atoms exceed MAX_DIM.

    This bounds verify's memory: T and LAPACK's working copy each take at
    most n*P*q'^2*itemsize = P*q*q'*itemsize <= (qP)^2 * itemsize bytes, and
    qP <= MAX_DIM / 2 = 2048 makes that 32 MiB real or 64 MiB complex.
    """
    if 2 * sym.q * periods > MAX_DIM:
        raise DimensionError(
            f"oracle dimension 2qP = {2 * sym.q * periods} exceeds {MAX_DIM}")


def _axial_twist(sym):
    """Integer j with q' * omega = b + (j/n) * c.

    Translating by b shifts the screw power by q' and the rotation index by
    -j; build_hamiltonian's bond offsets account for both.
    """
    j, rem = divmod(sym.q * inner(sym.c, sym.omega), inner(sym.c, sym.c))
    if rem:
        raise AdjacencyError("omega projection on c is not an integer lattice step")
    return j


def build_finite_tube(sym, periods):
    """The segment and the decompositions of the six bonds of rows (0, 0, 0) and (0, 0, 1).

    These six give every bond.  The neighbour v^j of row (0, 0, p) is
    (s_j, m_j, 1 - p).  Row (s', 0, p) is row (0, 0, p) translated by the
    lattice vector (1 - 2p) s' omega, which lowers a screw power on the
    other sublattice by s', so its bond j ends at (s_j - s', m_j, 1 - p).
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    _check_dimension(sym, periods)
    bonds = tuple(tuple(decompose(nb, sym) for nb in nearest_neighbors(compose(0, 0, p, sym)))
                  for p in (0, 1))
    return FiniteTube(sym, periods, bonds)


def _roots(n):
    """The n-th roots of unity e^{2 pi i k / n}, k < n, paired exactly.

    root[n - k] is conj(root[k]) bit for bit, root[0] = 1 and root[n/2] = -1,
    so blocks built from them are exactly Hermitian; real for n <= 2.
    """
    root = np.exp(2j * math.pi * np.arange(n) / n)
    root[0] = 1.0
    root[n // 2 + 1:] = root[1:(n + 1) // 2][::-1].conj()
    if n % 2 == 0:
        root[n // 2] = -1.0
    return root.real if n <= 2 else root


def build_hamiltonian(tube, p):
    """The n*P sublattice hopping blocks T of the segment's (m, l) blocks.

    Shape (n*P, q', q'), block m*P + l for m < n, l < P: T[a, b] is the
    hopping from row a (sublattice p = 0) to row q' + b (p = 1), and the
    (m, l) block of the hopping matrix is [[epsilon I, T], [T^H, epsilon I]].
    The bond (v, v^j) carries p.hoppings[j] (gamma, or gamma e^{i beta c_j a}
    under a field) from the sum-0 sublattice and its conjugate from the
    other, times e^{2 pi i (m x / n + l y / P)} when it ends x steps along
    c' and y along b from its target's row.

    With q' omega = b + twist c' (_axial_twist), bond j of row a ends at
    (s_0j - a, m_0j, 1) = (u q' + b, m_0j, 1), at x = -(m_0j + twist u),
    y = -u from row q' + b (tau reverses both), and bond j of row q' + b at
    (s_1j - b, m_1j, 0) = (u' q' + col, m_1j, 0), at (m_1j + twist u', u')
    from row col.  Hence:

    - each (p, j) maps one sublattice's q' rows one-to-one onto the other's,
      so every atom receives exactly three bonds;
    - bond j of row b ends at column a with the same u, as s_0j - b =
      u q' + a, so T[a, b] and T[b, a] sum the same values in the same
      order j: T = T^T bit for bit;
    - bond j of row q' + b reverses bond j of row a (so the p = 1 rows hold
      exactly T^H), and row q' + a holds row a's bonds mirrored, exactly
      when s_1j - s_0j = k q' with k = 0 mod P and m_1j - m_0j + twist k =
      0 mod n: both identities give u' = u + k, and u cancels.  The phases
      see x mod n and y mod P alone, so this is as strict as either.

    That condition and the targets (1, 0) are checked on the six
    decompositions; then T is three phased reversal-shift adds, one per j in
    bond order, and the one stack built.  T is real exactly when n <= 2,
    P <= 2 and no flux.
    """
    sym, periods = tube.sym, tube.periods
    n, qp, twist = sym.n, sym.q_prime, _axial_twist(sym)
    for (s0, m0, target0), (s1, m1, target1) in zip(*tube.bonds):
        if (target0, target1) != (1, 0):
            raise AdjacencyError("a bond joins two atoms of the same sublattice")
        k, rem = divmod(s1 - s0, qp)
        if rem or k % periods or (m1 - m0 + twist * k) % n:
            raise AdjacencyError("assembled matrix is not exactly Hermitian")
    gammas = np.array(p.hoppings, dtype=complex)
    if not gammas.imag.any():
        gammas = gammas.real
    root_n, root_p = _roots(n), _roots(periods)
    m = np.arange(n)[:, None, None]
    l = np.arange(periods)[:, None]
    a = np.arange(qp)
    t = np.zeros((n * periods, qp, qp), dtype=np.result_type(gammas, root_n, root_p))
    blocks = t.reshape(n, periods, qp, qp)
    for gamma, (s, mj, _) in zip(gammas, tube.bonds[0]):
        u, col = np.divmod(s - a, qp)
        blocks[:, :, a, col] += gamma * root_n[m * -(mj + twist * u) % n] * root_p[l * -u % periods]
    return t


def eigenvalues(t, epsilon):
    """All eigenvalues of the blocks [[epsilon I, T], [T^H, epsilon I]], ascending.

    t is one square hopping block T or a stack of them; each block's
    eigenvalues are epsilon +- the singular values of its T.  A real t must
    be exactly symmetric and takes one batched eigvalsh (singular values
    |lambda|), a complex t one batched SVD.  Neither forms T T^H, whose
    eigenvalues would lose half the digits of a small singular value.
    """
    t = np.asarray(t)
    if t.shape[-1] != t.shape[-2]:
        raise ValueError(f"hopping blocks must be square, got shape {t.shape}")
    if 2 * t.shape[-1] > MAX_DIM:
        raise DimensionError(f"matrix dimension {2 * t.shape[-1]} exceeds {MAX_DIM}")
    real = np.isrealobj(t)
    if real and not np.array_equal(t, np.swapaxes(t, -1, -2)):
        raise ValueError("a real hopping block must be exactly symmetric")
    try:
        # +-lambda and +-|lambda| are the same multiset
        half = np.linalg.eigvalsh(t) if real else np.linalg.svd(t, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"hopping block spectrum failed to converge: {exc}") from exc
    half = half.ravel()
    return np.sort(np.concatenate([epsilon - half, epsilon + half]))


def _paired_spectrum(t, n, periods, real):
    """eigenvalues(t, 0) of build_hamiltonian's stack, one block per conjugate pair.

    With real hoppings (real is true) block m*P + l of an n*P stack is
    paired with block (-m mod n)*P + (-l mod P), which must be its exact
    conjugate: one of them is diagonalized and its values counted twice.  A
    block that is its own partner must then be exactly real, and takes
    eigvalsh.  Under flux, or for a stack whose length is not n*P (left to
    compare_spectra's length check), every block is its own partner and the
    whole stack goes to eigenvalues unchanged.
    """
    index = np.arange(len(t))
    partner = index
    paired = real and len(t) == n * periods
    if paired:
        m, l = np.divmod(index, periods)
        partner = -m % n * periods + -l % periods
    lower = index < partner
    pair = t[lower]
    partners = t[partner[lower]]
    np.conjugate(partners, out=partners)  # in place: no third copy of half the stack
    if not np.array_equal(partners, pair):
        raise AdjacencyError("blocks (m, l) and (-m, -l) are not exactly conjugate")
    del partners
    own = index == partner
    # a real stack (n <= 2, P <= 2) has only own blocks and goes on uncopied
    blocks = t if own.all() else t[own]
    if paired and np.iscomplexobj(blocks):
        if blocks.imag.any():
            raise AdjacencyError("a self-conjugate block (2m = 0 mod n, 2l = 0 mod P) "
                                 "is not exactly real")
        blocks = blocks.real
    parts = [eigenvalues(blocks, 0.0)]
    if len(pair):
        parts += [eigenvalues(pair, 0.0)] * 2
    return np.sort(np.concatenate(parts))


def _bloch_numerators(sym, periods):
    """(nums, den): Bloch point (m, l) has the bond phases 2 pi nums[j, m, l] / den, j = 0, 1.

    Axial closure puts line m's point l < P q' at kappa a / 2 pi =
    (m twist mod n) / n + l / P: grid point (m twist mod n) P + n l of
    lines.line_numerators at S = n P q' samples.  den = C B S = 3 q^3 P <=
    3 * 2^33 as MAX_DIM bounds 2 q P by 2^12, so with the numerators reduced
    mod den in Python ints first, every int64 product stays below 3 * 2^44 <
    2^46 (n <= q) and every sum below 2^47.
    """
    n, points = sym.n, periods * sym.q_prime
    across, along, den = line_numerators(sym, n * points)
    x, s = (np.array([v % den for v in pair])[:, None, None] for pair in (across, along))
    m = np.arange(n)[:, None]
    first = m * (_axial_twist(sym) % n) % n * periods  # grid index of (m, 0)
    return (m * x + first * s) % den + np.arange(points) * (n * s % den), den


def analytic_spectrum(sym, periods, p):
    """Zone-folded eigenvalues of the same segment, sorted: at each of the P*q' Bloch points
    of each line, eps +- |gamma_0 e^{i (k_0 - k_2) a} + gamma_1 e^{i (k_1 - k_2) a} + gamma_2|."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    nums, den = _bloch_numerators(sym, periods)
    # each phasor as lines._turn rounds it: from an angle within pi / 4, turned by i^k
    k, r = np.divmod(8 * nums + den, 2 * den)
    z = np.exp(1j * EIGHTH_TURN * ((r - den) / den)) * np.array(QUARTER_TURNS)[k & 3]
    h0, h1, h2 = p.hoppings
    mod = np.abs(h0 * z[0] + h1 * z[1] + h2).ravel()
    return np.sort(np.concatenate([p.epsilon + mod, p.epsilon - mod]))


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted finite vs analytic spectra and their elementwise agreement."""

    c: tuple
    periods: int
    dimension: int
    finite: np.ndarray
    analytic: np.ndarray
    max_deviation: float
    tolerance: float
    passed: bool


def compare_spectra(c, sym, periods, p, tol):
    """Diagonalize the segment and match its spectrum to the analytic one.

    Both spectra are epsilon plus their values at epsilon = 0, and the
    deviation is taken between the latter: at large |epsilon| the sum would
    round the difference away.  Rounding is monotone, so epsilon + x keeps
    the order and bits of the sorted spectra taken at epsilon.
    """
    if tuple(c) != tuple(sym.c):
        raise ValueError(f"chirality {tuple(c)} does not match the symmetry of {sym.c}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    _check_dimension(sym, periods)
    t = build_hamiltonian(build_finite_tube(sym, periods), p)
    real = not np.iscomplex(p.hoppings).any()
    fin = _paired_spectrum(t, sym.n, periods, real)
    ana = analytic_spectrum(sym, periods, p._replace(epsilon=0.0))
    if len(fin) != len(ana):
        raise AdjacencyError(
            f"spectrum length mismatch: finite {len(fin)} vs analytic {len(ana)}")
    dev = float(np.max(np.abs(fin - ana)))
    return SpectrumReport(c=tuple(sym.c), periods=periods, dimension=len(fin),
                          finite=p.epsilon + fin, analytic=p.epsilon + ana,
                          max_deviation=dev, tolerance=tol, passed=dev < tol)
