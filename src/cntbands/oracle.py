"""Independent spectral cross-check against an explicit finite Hamiltonian.

A tube segment of P translational periods, closed with axial periodic
boundary, has 2*q*P atoms.  We enumerate them exactly (integer reduction
modulo both Zc and Z(P*b), via the screw/rotation/flip coordinates) and
wire up the three bonds per atom.  The rotation g_c' (translation by
c' = c/n) maps atoms to atoms and bonds to bonds, so the hopping matrix
splits into n Hermitian blocks of size 2*q'*P, one per C_n quantum number
m, indexed by the atoms of rotation index 0.  The blocks use only this
relabelling, not the screw-line formula under test.  The sorted
eigenvalues of all blocks must reproduce, as a multiset, the analytic
two-band values taken at the Bloch-quantized points of the allowed
k-lines.  Agreement to rounding error is the whole point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bands import _line_k, _modulus
from .geom import inner
from .tube import canonical_rep, compose, decompose
from .honeycomb import nearest_neighbors, nu

MAX_DIM = 4096


class AdjacencyError(RuntimeError):
    """Inconsistent bond structure while assembling the Hamiltonian."""


class DimensionError(ValueError):
    """The segment's matrix dimension 2qP exceeds MAX_DIM."""


@dataclass(frozen=True)
class FiniteTube:
    """Atom list and bond table of a P-period tube segment.

    sites[i] is the canonical class representative of the atom (s, m, p),
    s in [0, P*q'), listed in (p, m, s) order; bonds[i] lists
    (neighbor_index, bond_label, nu_sign) for the three bonds leaving atom i.
    """

    c: tuple
    sym: object
    periods: int
    sites: tuple
    bonds: tuple


def _axial_twist(sym):
    """Integer j with q' * omega = b + (j/n) * c.

    Translating by b shifts the screw power by q' and the rotation index by
    -j; the axial identification below must undo both.
    """
    j, rem = divmod(sym.q * inner(sym.c, sym.omega), inner(sym.c, sym.c))
    if rem:
        raise AdjacencyError("omega projection on c is not an integer lattice step")
    return j


def _site_key(rep, sym, periods):
    s, m, p = decompose(rep, sym)
    span = periods * sym.q_prime
    shift = s // span
    return (s - shift * span, (m + shift * periods * _axial_twist(sym)) % sym.n, p)


def build_finite_tube(c, sym, periods):
    """Enumerate the fundamental domain of the segment and its bonds."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    span = periods * sym.q_prime
    keys = {}
    sites = []
    for p in (0, 1):
        for m in range(sym.n):
            for s in range(span):
                rep = compose(s, m, p, sym)
                keys[(s, m, p)] = len(sites)
                sites.append(rep)
    bonds = []
    for rep in sites:
        sign = nu(rep)
        row = []
        for j, nb in enumerate(nearest_neighbors(rep)):
            key = _site_key(canonical_rep(nb, sym.c), sym, periods)
            row.append((keys[key], j, sign))
        bonds.append(tuple(row))
    return FiniteTube(c=tuple(sym.c), sym=sym, periods=periods,
                      sites=tuple(sites), bonds=tuple(bonds))


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
    """The n Hermitian C_n blocks of the segment's hopping matrix, shape (n, d, d).

    d = 2q'P.  Block m acts on the atoms of rotation index 0, row p*P*q' + s
    for the atom (s, 0, p).  Onsite epsilon on the diagonal; the bond
    (v, v^j) carries gamma_j when the source site is on the sum-0 sublattice
    and its conjugate otherwise, times e^{2 pi i m t / n} when it ends t
    rotations g_c' away from the orbit representative of its target.  Each
    block equals its conjugate transpose exactly.  The stack is real exactly
    when every phase and hopping is (n <= 2, zero flux).
    """
    sym = tube.sym
    n, span = sym.n, tube.periods * sym.q_prime
    bonds = np.array(tube.bonds)  # (2qP, 3, 3): target, label, nu sign
    target, label, sign = bonds[..., 0], bonds[..., 1], bonds[..., 2]
    if np.any(np.bincount(target.ravel(), minlength=len(tube.sites)) != 3):
        raise AdjacencyError("every atom must receive exactly three bonds")
    gammas = np.array([p.gamma0, p.gamma1, p.gamma2], dtype=complex)
    real = n <= 2 and not gammas.imag.any()
    if real:
        gammas = gammas.real
    hop = np.where(sign == 1, gammas[label], gammas[label].conj())
    # build_finite_tube lists the atoms (s, m, p) in (p, m, s) order, so the
    # orbit representatives (s, 0, p) come in block-row order p*P*q' + s.  The
    # atom (s, m, p) is its representative moved by m rotations if p = 0 and
    # by -m if p = 1.
    rep = np.arange(len(tube.sites)) // span % n == 0
    to_p, to_m, to_s = np.unravel_index(target[rep], (2, n, span))
    turns = np.where(to_p == 0, to_m, -to_m)
    phases = _roots(n)[np.arange(n)[:, None, None] * turns % n]
    d = 2 * span
    h = np.zeros((n, d, d), dtype=float if real else complex)
    h[:, np.arange(d), np.arange(d)] = p.epsilon
    np.add.at(h, (np.arange(n)[:, None, None], np.arange(d)[:, None], to_p * span + to_s),
              hop[rep] * phases)
    if not np.array_equal(h, np.swapaxes(h, -1, -2).conj()):
        raise AdjacencyError("assembled matrix is not exactly Hermitian")
    return h


def eigenvalues(h):
    """All eigenvalues of a Hermitian matrix, or of a stack of them, ascending."""
    h = np.asarray(h)
    if h.shape[-1] > MAX_DIM:
        raise DimensionError(f"matrix dimension {h.shape[-1]} exceeds {MAX_DIM}")
    try:
        return np.sort(np.linalg.eigvalsh(h), axis=None)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc


def analytic_spectrum(c, sym, periods, p):
    """Zone-folded eigenvalues of the same segment, sorted.

    Bloch closure over the axial period quantizes the screw coordinate to
    P*q' points per line; each quantized k contributes the two band values.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    # <k,c> a = 2 pi m on line m; axial closure <k,Pb> a in 2 pi Z puts the
    # screw coordinate at kappa = 2 pi (m j / n + l / P) / a, l < P q', with j
    # the axial twist.  A 2 pi / a step of kappa only relabels l, so m j is
    # reduced mod n to keep kappa small.
    m = np.arange(sym.n)[:, None]
    l = np.arange(periods * sym.q_prime)
    twist = _axial_twist(sym) % sym.n
    kappa = 2.0 * math.pi * (m * twist % sym.n / sym.n + l / periods) / p.a
    mod = _modulus(*_line_k(sym, m, kappa, p.a), p).ravel()
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
    """Diagonalize the segment and match its spectrum to the analytic one."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if 2 * sym.q * periods > MAX_DIM:
        raise DimensionError(
            f"oracle dimension 2qP = {2 * sym.q * periods} exceeds {MAX_DIM}")
    tube = build_finite_tube(c, sym, periods)
    fin = eigenvalues(build_hamiltonian(tube, p))
    ana = analytic_spectrum(c, sym, periods, p)
    if len(fin) != len(ana):
        raise AdjacencyError(
            f"spectrum length mismatch: finite {len(fin)} vs analytic {len(ana)}")
    dev = float(np.max(np.abs(fin - ana)))
    return SpectrumReport(c=tuple(sym.c), periods=periods, dimension=len(fin),
                          finite=fin, analytic=ana, max_deviation=dev,
                          tolerance=tol, passed=dev < tol)
