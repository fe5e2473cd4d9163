"""Independent spectral cross-check against an explicit finite Hamiltonian.

A tube segment of P translational periods, closed with axial periodic
boundary, has 2*q*P atoms.  We enumerate them exactly (integer reduction
modulo both Zc and Z(P*b), via the screw/rotation/flip coordinates), wire
up the three bonds per atom, build the dense Hermitian hopping matrix, and
diagonalize.  The sorted eigenvalues must reproduce, as a multiset, the
analytic two-band values taken at the Bloch-quantized points of the
allowed k-lines.  Agreement to rounding error is the whole point.
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


@dataclass(frozen=True)
class FiniteTube:
    """Atom list and bond table of a P-period tube segment.

    sites[i] is the canonical class representative whose screw coordinate
    lies in [0, P*q'); bonds[i] lists (neighbor_index, bond_label, nu_sign)
    for the three bonds leaving atom i.
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


def build_hamiltonian(tube, p):
    """Dense Hermitian hopping matrix of the segment.

    Onsite epsilon on the diagonal; the bond (v, v^j) carries gamma_j when
    the source site is on the sum-0 sublattice and its conjugate otherwise,
    which makes the matrix equal to its conjugate transpose exactly.
    """
    n = len(tube.sites)
    gammas = (complex(p.gamma0), complex(p.gamma1), complex(p.gamma2))
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, p.epsilon)
    degree = [0] * n
    for i, row in enumerate(tube.bonds):
        for l, j, sign in row:
            h[i, l] += gammas[j] if sign == 1 else np.conj(gammas[j])
            degree[l] += 1
    if any(d != 3 for d in degree):
        raise AdjacencyError("every atom must receive exactly three bonds")
    if not np.array_equal(h, h.conj().T):
        raise AdjacencyError("assembled matrix is not exactly Hermitian")
    return h


def eigenvalues(h):
    """All eigenvalues of a Hermitian matrix, ascending."""
    h = np.asarray(h)
    if h.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension {h.shape[0]} exceeds {MAX_DIM}")
    try:
        return np.sort(np.linalg.eigvalsh(h))
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
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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
