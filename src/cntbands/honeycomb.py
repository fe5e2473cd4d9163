"""Honeycomb lattice as integer triples.

Sites are integer triples (v0, v1, v2) with coordinate sum 0 or 1; sum-0
sites form the triangular sublattice T and sum-1 sites its shifted copy
T + theta with theta = (1, 0, 0).  Neighborship, the graph metric, and the
full isometry group (generated by sigma, rho, tau plus translations by T)
are all integer arithmetic.
"""

import math
from collections import namedtuple

THETA = (1, 0, 0)


def is_site(v):
    return sum(v) in (0, 1)


def nu(v):
    """Sublattice sign: +1 on T (sum 0), -1 on T+theta (sum 1)."""
    return -1 if sum(v) % 2 else 1


def nearest_neighbors(v):
    """The three bonded sites v^0, v^1, v^2 (add nu(v) to one coordinate)."""
    s = nu(v)
    v0, v1, v2 = v
    return ((v0 + s, v1, v2), (v0, v1 + s, v2), (v0, v1, v2 + s))


def next_nearest_neighbors(v):
    """The six sites v^{ij} with i != j; same sublattice, distance 2."""
    out = []
    for i, vi in enumerate(nearest_neighbors(v)):
        for j, vij in enumerate(nearest_neighbors(vi)):
            if i != j:
                out.append(vij)
    return tuple(out)


def distance(v, u):
    """Graph metric: coordinatewise L1 distance (a true metric on sites)."""
    return abs(v[0] - u[0]) + abs(v[1] - u[1]) + abs(v[2] - u[2])


def sigma(v):
    return (v[1], v[2], v[0])


def rho(v):
    return (v[0], v[2], v[1])


def tau(v):
    return (THETA[0] - v[0], -v[1], -v[2])


_GEN_MAP = {"sigma": sigma, "rho": rho, "tau": tau}


class SymmetryWord(namedtuple("SymmetryWord", "gens translation")):
    """A lattice isometry given as generator tags plus a final translation.

    Tags are applied to the site first-to-last; the translation (a sum-zero
    integer triple) is added at the end.  An empty word is the identity.
    """

    __slots__ = ()

    def __new__(cls, gens=(), translation=(0, 0, 0)):
        for g in gens:
            if g not in _GEN_MAP:
                raise ValueError(f"unknown generator tag {g!r}")
        if sum(translation) != 0:
            raise ValueError("translation must have zero coordinate sum")
        return super().__new__(cls, gens, translation)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def apply_symmetry(word, v):
    """Apply a SymmetryWord (or bare tag sequence) to a site."""
    if not isinstance(word, SymmetryWord):
        word = SymmetryWord(tuple(word))
    out = tuple(v)
    for g in word.gens:
        out = _GEN_MAP[g](out)
    t = word.translation
    return (out[0] + t[0], out[1] + t[1], out[2] + t[2])


def bond_length_scale(bond=1.44):
    """Scale factor from lattice units to physical length.

    Multiplying embedded positions by bond*sqrt(6)/2 makes the
    nearest-neighbor separation equal to `bond` (C-C bond in Angstrom for
    graphene: 1.44).
    """
    if bond <= 0:
        raise ValueError(f"bond length must be positive, got {bond}")
    return bond * math.sqrt(6.0) / 2.0
