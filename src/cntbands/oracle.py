"""Independent spectral cross-check against an explicit finite Hamiltonian.

A tube segment of P translational periods, closed with axial periodic
boundary, has 2*q*P atoms.  q' is even, so the half-period screw
g = (q'/2) omega, with g^2 = q' omega = b + twist c' (_axial_twist), is a
lattice translation outside the group of c' = c/n and the axial period b.
Translation by c' and by g map atoms to atoms and bonds to bonds, and on the
segment they generate a group of order 2nP that splits the atoms into q'
orbits, one representative (s', 0, p), s' < h = q'/2, each.  The screw
omega^s' is a lattice translation, so the bonds of row s' are those of row 0
moved by it: we decompose the three neighbours of the origin exactly
(integer reduction modulo Zc via the screw/rotation/flip coordinates), the
flip gives those of (0, 0, 1) (build_finite_tube), and shifting their screw
powers gives every row's bonds a target orbit and an integer (c', g) offset.
The hopping matrix then splits into 2nP Hermitian blocks of size q', one
per character (m, e) of the group: e^{2 pi i m / n} on c' and
e^{2 pi i e / 2nP} on g, with e mod 2nP and e = m twist P mod n, so that
c = n c' and P b = 2P g - P twist c' act trivially.  This is the
line-group Bloch block of Damnjanovic et al. (PRB 60, 2728, 1999) split
once more by the screw.  The blocks use only this relabelling, not the
screw-line formula under test: the remaining q'/2 screw steps stay dense.

Every bond changes the coordinate sum v0 + v1 + v2 by one, so it joins the
two sublattices p = 0 and p = 1.  With the p = 0 rows first, each block is
[[eps I, T], [T^H, eps I]] for an h x h hopping block T, and its
eigenvalues are exactly eps +- the singular values sigma of T.  The oracle
computes the +- sigma, the spectrum at eps = 0, and keeps only T,
assembled from the p = 0 rows alone: the flip makes the p = 1 rows hold
exactly T^H (build_hamiltonian).  verify holds at most twice the bytes of
all 2nP blocks T, which _check_dimension bounds: T and LAPACK's working
copy, or without a field the kept half of T, a copy of its pair blocks and
LAPACK's copy of those.

The involution v -> Theta - v swaps the sublattices: it maps row a, the
atom a omega, to row h + a, the atom Theta - a omega, and the bond
v -> v^j to the bond (Theta - v) -> (Theta - v)^j, with the conjugate
hopping and the opposite (c', g) offset.  So row h + a of a block holds
conj(T[a, b]) in column b, where Hermiticity puts conj(T[b, a]): every T is
symmetric, T = T^T (the U axis of the tube's line group), and bit for bit
by construction.  A real symmetric T with eigenvalues lambda has singular
values |lambda|, so its block's +- sigma are +- lambda from one eigvalsh
of T.  A complex T is complex symmetric, not Hermitian, and keeps the
singular value decomposition.  T is real exactly when n = P = 1 and no flux
is applied: the characters are then +-1.  Every achiral tube has q' = 2, so
its blocks are 1 x 1, and the singular value |t| of [t] needs no LAPACK call.

Without a field time reversal pairs block (m, e) with (-m mod n, -e mod
2nP) (_partners), as it pairs the Bloch irreps of the line group: each
phase index 2P m x + e y of one is minus the other's mod 2nP, root[2nP - k]
= conj(root[k]) bit for bit (_roots), the gamma_j are real and the adds run
in the same order j, so T_{-m,-e} = conj(T_{m,e}), with the same singular
values.  So only the lower index of each pair is built, and its values are
counted twice.  The own in {2, 4} blocks with 2m = 0 mod n and e = 0 or nP
are their own partners: their phase indices are 0 or nP, roots exactly 1
and -1, so their T is exactly real and takes eigvalsh.  Under flux no block
has a partner, and all 2nP are built and diagonalized.

The sorted values of all blocks must reproduce, as a multiset, the analytic
two-band values +- modulus at the Bloch-quantized points of the allowed
k-lines: grid points of lines.line_numerators, phased by lines._turn and
the lines._offsets phasors `bands` phases its rows with, mirrored beyond a
quarter turn (_roots).  Both sides are computed at eps = 0 from the one
FiniteTube compare_spectra builds, which adds eps to both for its report.
Agreement to rounding error is the whole point, and compare_spectra
derives that rounding bound from the block size and gamma.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geom import inner
from .lines import _offsets, _turn, line_numerators
from .honeycomb import nearest_neighbors
from .tube import decompose

# bound on 2qP: LAPACK work 2nP (q'/2)^3 peaks at n = P = 1, q = 2042: (47,14,-61) verify took
# 0.37 to 0.41 s plain, 0.95 to 1.12 s at 0.3 flux periods; (52,-22,-30), n = 2, 0.23 to 0.28
# and 0.41 to 0.53 s (whole process, 2-vCPU Xeon; _check_dimension derives the bytes)
MAX_DIM = 4096


class DimensionError(ValueError):
    """The segment's matrix dimension 2qP exceeds MAX_DIM."""


class FiniteTube(namedtuple("FiniteTube", "sym periods twist bonds")):
    """A P-period tube segment, its axial twist and the three bond decompositions giving all bonds.

    The translations by c' and by the half-period screw g split the
    segment's 2qP atoms into q' orbits; row p*h + s' is the representative
    (s', 0, p), s' < h = q'/2, so the rows below h are the sum-0 sublattice.
    twist is the odd integer with g^2 = b + twist c' (_axial_twist).
    bonds[j] = (s_j, m_j), Python ints, are the screw and rotation powers
    (decompose) of the origin's neighbour e_j = (s_j, m_j, 1), and the
    neighbour of (0, 0, 1) across bond j is (s_j, m_j, 0) (build_finite_tube).
    """

    __slots__ = ()


def _check_dimension(sym, periods):
    """Raise DimensionError when the segment's 2qP atoms exceed MAX_DIM.

    This bounds verify's memory: a stack of all 2nP blocks T takes
    2nP (q'/2)^2 itemsize = n*P*q'^2/2*itemsize = P*q*q'/2*itemsize <=
    (qP)^2/2 * itemsize bytes, and qP <= MAX_DIM / 2 = 2048 makes that
    16 MiB real or 32 MiB complex.
    """
    if 2 * sym.q * periods > MAX_DIM:
        raise DimensionError(
            f"oracle dimension 2qP = {2 * sym.q * periods} exceeds {MAX_DIM}")


def _axial_twist(sym):
    """Integer j with q' * omega = b + (j/n) * c.

    Translating by b shifts the screw power by q' and the rotation index by
    -j.  j is an integer: <omega, b> q' = ||b||^2, so q' omega - b is a
    sum-zero integer triple orthogonal to b, a whole multiple j of the
    primitive c', and <c, c'> = ||c||^2 / n gives j exactly as below.  q' is
    even, so g = (q'/2) omega has g^2 = b + j c', and j is odd: an even j
    would make g - (j/2) c' a translation along the axis half as long as b,
    the shortest one.  build_hamiltonian's bond offsets count along c' and g.
    """
    return sym.q * inner(sym.c, sym.omega) // inner(sym.c, sym.c)


def build_finite_tube(sym, periods):
    """The segment and the decompositions (s_j, m_j) of the origin's three bonds.

    These three give every bond.  The flip tau(v) = Theta - v swaps the
    sublattices.  Row (0, 0, 1) is compose(0, 0, 1) = canonical_rep(Theta)
    = Theta, as 0 < <Theta, c> = c0 < ||c||^2.  nu(Theta) = -1, so its
    neighbours are Theta - e_j = tau(e_j), and decompose reduces the same
    w = tau(e_j) for e_j (p = 1) and for tau(e_j) (p = 0): the neighbour of
    row (0, 0, p) across bond j is (s_j, m_j, 1 - p).  Row (s', 0, p) is row
    (0, 0, p) translated by the lattice vector (1 - 2p) s' omega, which
    lowers a screw power on the other sublattice by s', so its bond j ends
    at (s_j - s', m_j, 1 - p).
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    _check_dimension(sym, periods)
    bonds = tuple(decompose(nb, sym)[:2] for nb in nearest_neighbors((0, 0, 0)))
    return FiniteTube(sym, periods, _axial_twist(sym), bonds)


def _roots(n):
    """The n-th roots of unity e^{2 pi i k / n}, k < n, for even n, paired exactly.

    root[k] for k <= n/4 is read from the lines._offsets table, O(sqrt n)
    lines._turn calls; the rest are exact mirrors, root[n/2 - k] =
    -conj(root[k]) and root[n - k] = conj(root[k]).  So root[0] = 1 and
    root[n/2] = -1 exactly, and root[n - k] is conj(root[k]) bit for bit:
    blocks built from them are exactly Hermitian, time-reversal partners are
    exact conjugates, and the two roots of n = 2 are real.
    """
    quarter = n // 4
    root = np.fromiter(_offsets((1,), n, quarter + 1)[0], complex, quarter + 1)
    root = np.concatenate([root, -root[n // 2 - quarter - 1::-1].conj()])  # up to k = n/2
    root = np.concatenate([root, root[n // 2 - 1:0:-1].conj()])
    return root.real if n == 2 else root


def _block_labels(n, periods, twist):
    """(m, e) of the 2nP characters, in block order i = n (e // n) + m.

    m < n, e < 2nP and e = m twist P mod n: the characters of the group of
    c' and g on the segment, e^{2 pi i m / n} on c' and e^{2 pi i e / 2nP}
    on g.
    """
    i = np.arange(2 * n * periods)
    m = i % n
    return m, i - m + m * (twist * periods % n) % n


def _partners(n, periods, twist):
    """Block index of each block's time-reversal partner (-m mod n, -e mod 2nP)."""
    m, e = _block_labels(n, periods, twist)
    return -e % (2 * n * periods) // n * n + -m % n


def _kept_blocks(tube, real):
    """Block index of each T build_hamiltonian builds, and whether it is its own partner.

    With real hoppings the one block of each time-reversal pair whose index is
    at most its partner's (_partners); under flux all 2nP, each its own.
    """
    n, periods = tube.sym.n, tube.periods
    index = np.arange(2 * n * periods)
    partner = _partners(n, periods, tube.twist) if real else index
    keep = index <= partner
    return index[keep], (index == partner)[keep]


def build_hamiltonian(tube, p):
    """The sublattice hopping blocks T of the segment's (m, e) blocks (_kept_blocks).

    Shape (k, h, h), h = q'/2, blocks n (e // n) + m (_block_labels) in
    that order: all k = 2nP under flux, k = (2nP + own)/2 without.  T[a, b]
    is the hopping from row a (sublattice p = 0) to row h + b (p = 1), and
    the (m, e) block of the hopping matrix is
    [[epsilon I, T], [T^H, epsilon I]].  The bond (v, v^j) carries
    p.hoppings[j] (gamma, or gamma e^{i beta c_j a} under a field) from the
    sum-0 sublattice and its conjugate from the other, times
    e^{2 pi i (2P m x + e y) / 2nP} when it ends x steps along c' and y along
    g from its target's row: one table of 2nP-th roots of unity.

    With g^2 = b + twist c', bond j of row a ends at (s_j - a, m_j, 1) =
    (u h + b, m_j, 1), at x = -m_j, y = -u from row h + b (tau reverses
    both), and bond j of row h + b at (s_j - b, m_j, 0) (build_finite_tube):

    - each j maps one sublattice's h rows one-to-one onto the other's, so
      every atom receives exactly three bonds;
    - bond j of row b ends at column a with the same u, as s_j - b =
      u h + a, so T[a, b] and T[b, a] sum the same values in the same
      order j: T = T^T bit for bit;
    - the same s_j - b = u h + a puts bond j of row h + b at (m_j, u) from
      row a: it reverses bond j of row a, so the p = 1 rows hold exactly
      T^H, and row h + a holds row a's bonds mirrored.

    So T is three phased reversal-shift adds, one per j in bond order, and
    the one stack built.  T is real exactly when n = P = 1 and no flux.
    """
    sym, periods, twist = tube.sym, tube.periods, tube.twist
    n, qp = sym.n, sym.q_prime
    gammas = np.array(p.hoppings)
    order, half = 2 * n * periods, qp // 2
    root = _roots(order)
    index = _kept_blocks(tube, p.field is None)[0]
    m, e = (x[index, None] for x in _block_labels(n, periods, twist))
    a = np.arange(half)
    t = np.zeros((len(index), half, half), dtype=np.result_type(gammas, root))
    for gamma, (s, mj) in zip(gammas, tube.bonds):
        u, col = np.divmod(s - a, half)
        t[:, a, col] += gamma * root[-(2 * periods * mj * m + u * e) % order]
    return t


def eigenvalues(t):
    """All eigenvalues of the blocks [[0, T], [T^H, 0]], ascending: +- T's singular values.

    t is one hopping block T or a stack of them, as build_hamiltonian makes
    them: square, at most MAX_DIM / 2 wide (build_finite_tube), and a real T
    exactly symmetric.  A 1 x 1 block [t] has the singular value |t| and
    makes no LAPACK call (every achiral tube has q' = 2).  A larger real t
    takes one batched eigvalsh (singular values |lambda|), a complex t one
    batched SVD.  Neither forms T T^H, whose eigenvalues would lose half the
    digits of a small singular value.
    """
    if t.shape[-1] == 1:
        half = np.abs(t)
    else:
        try:
            # +-lambda and +-|lambda| are the same multiset
            half = (np.linalg.eigvalsh(t) if np.isrealobj(t)
                    else np.linalg.svd(t, compute_uv=False))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"hopping block spectrum failed to converge: {exc}") from exc
    half = half.ravel()
    return np.sort(np.concatenate([-half, half]))


def _paired_spectrum(t, tube, real):
    """eigenvalues of all 2nP blocks, from build_hamiltonian's stack t of the kept ones.

    A block that is its own partner (_kept_blocks; every block under flux)
    counts once, any other twice, for itself and its conjugate partner.
    Without a field the former are exactly real (root[0] = 1, root[nP] = -1)
    and go on as .real to eigvalsh even in a complex stack.
    """
    own = _kept_blocks(tube, real)[1]
    if own.all():  # under flux (complex, kept whole) or the two real blocks of n = P = 1
        return eigenvalues(t)
    pairs = eigenvalues(t[~own])
    return np.sort(np.concatenate([eigenvalues(t[own].real), pairs, pairs]))


def analytic_spectrum(tube, p):
    """Zone-folded +-moduli of the same segment, sorted: at each of the P*q' Bloch points of
    each line, +-|gamma_0 e^{i (k_0 - k_2) a} + gamma_1 e^{i (k_1 - k_2) a} + gamma_2|.

    It reads the tube's symmetry, periods and twist, not its bonds: the referee shares no
    bond decomposition with build_hamiltonian.  Axial closure puts line m's point l < P q' at
    grid point first_m + n l, first_m = (m twist mod n) P, of lines.line_numerators at
    S = n P q'.  Its modulus is lines._moduli's |L_0 T_0(l) + L_1 T_1(l) + gamma_2|, L_j
    gamma_j times the phasor of first_m.  S steps turn each phase whole: T_j(l) =
    R(l k_j mod P q'), k_j = S along_j / den, R the _roots of the even P q'.
    """
    sym, periods = tube.sym, tube.periods
    n, points = sym.n, periods * sym.q_prime
    across, along, den = line_numerators(sym, n * points)
    twist, gammas = tube.twist % n, p.hoppings
    lead = np.array([[g * _turn(m * x + m * twist % n * periods * s, den)
                      for g, x, s in zip(gammas, across, along)] for m in range(n)])
    root = _roots(points)
    t0, t1 = (root[np.arange(points) * (n * points * s // den % points) % points] for s in along)
    mod = np.abs(lead[:, :1] * t0 + lead[:, 1:] * t1 + gammas[2]).ravel()
    return np.sort(np.concatenate([-mod, mod]))


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted finite vs analytic spectra, their elementwise agreement and its pass bound."""

    c: tuple
    periods: int
    dimension: int
    finite: np.ndarray
    analytic: np.ndarray
    max_deviation: float
    tolerance: float
    passed: bool


def compare_spectra(c, sym, periods, p, tol=None):
    """Diagonalize the segment and match its spectrum to the analytic one.

    Both layers work on the one FiniteTube built here and return their
    values at epsilon = 0, and the deviation is taken between those: at large
    |epsilon| the sum would round the difference away.  epsilon enters once,
    added to both for the report; rounding is monotone, so epsilon + x keeps
    the order of the sorted spectra.  Both hold 2qP values, q = n q': the
    2nP blocks, each kept block counted once if it is its own partner and
    twice if not (_paired_spectrum), give 2h = q' values each, and the n
    lines give P q' points each, counted at +- their modulus.

    It passes below B = 12 u gamma (h + 2), u = 2^-53, h = q'/2, reported as
    the tolerance (tol is ignored).  ||T||_2 <= 3 gamma (three entries of
    modulus gamma a row and column), a backward-stable eigvalsh or SVD errs by
    at most p(h) u ||T||_2 (Weyl; LAPACK Users' Guide, 3rd ed., 4.9), and |t|
    and the analytic moduli by O(u gamma): B = 3 u gamma (4h + 8).  LAPACK's
    p(h) only "grows modestly", so the constants are measured, not proved: at
    most 0.43 B over 7 766 ladder, CI and random cases, a margin of 2.3.
    """
    if tuple(c) != tuple(sym.c):
        raise ValueError(f"chirality {tuple(c)} does not match the symmetry of {sym.c}")
    tube = build_finite_tube(sym, periods)
    fin = _paired_spectrum(build_hamiltonian(tube, p), tube, p.field is None)
    ana = analytic_spectrum(tube, p)
    dev = float(np.max(np.abs(fin - ana)))
    bound = 12 * 2.0 ** -53 * p.gamma * (sym.q_prime // 2 + 2)
    return SpectrumReport(c=tuple(sym.c), periods=periods, dimension=len(fin),
                          finite=p.epsilon + fin, analytic=p.epsilon + ana,
                          max_deviation=dev, tolerance=bound, passed=dev < bound)
