"""Factor-space model of a single-wall nanotube.

Rolling the sheet identifies sites differing by an integer multiple of the
chirality vector c (a sum-zero integer triple with c0 > c1 >= c2).  Tube
atoms are therefore classes v + Zc; we keep exact integer arithmetic
throughout, representing each class by the unique member whose projection
on c lies in [0, ||c||^2).

From c alone the module derives the tube's symmetry data: the rotation
order n = gcd(c), the shortest pure translation b, the helical (screw)
generator omega, and the counts q, q' that organize atoms into the
(s, m, p) coordinates: screw power, rotation power, sublattice flip.

Every map takes one triple and returns Python ints, which never wrap or
round: the symmetry data, the class of a site and of its neighbours, and
the (s, m, p) coordinates of a class.  No array library is loaded.
"""

import math
from collections import namedtuple
from itertools import permutations

from .geom import inner
from .honeycomb import nearest_neighbors, next_nearest_neighbors, tau


class ChiralityError(ValueError):
    """Invalid chirality triple; `code` is one of zero / sum / order."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class DecompositionError(RuntimeError):
    """Internal consistency failure while decomposing a class."""


# largest |coordinate| of a chirality or site the CLI accepts: the range over which
# its band rows, gaps and classes are tested
MAX_COORD = 2 ** 30

ARMCHAIR = "armchair"
ZIGZAG = "zigzag"
CHIRAL = "chiral"


def validate_chirality(raw):
    """Check a triple against the chirality domain (sum 0, c0 > c1 >= c2)."""
    c = tuple(raw)
    if len(c) != 3 or any(int(x) != x for x in c):
        raise ChiralityError("sum", f"chirality must be an integer triple, got {raw}")
    c = tuple(int(x) for x in c)
    if c == (0, 0, 0):
        raise ChiralityError("zero", "chirality must be nonzero")
    if sum(c) != 0:
        raise ChiralityError("sum", f"chirality components must sum to 0, got sum {sum(c)}")
    if not (c[0] > c[1] >= c[2]):
        raise ChiralityError(
            "order",
            f"chirality {c} violates c0 > c1 >= c2; canonical form is "
            f"{canonicalize_chirality(c)}",
        )
    return c


def tube_class(c):
    """armchair (c1 == c2), zigzag (c1 == 0), otherwise chiral."""
    if c[1] == c[2]:
        return ARMCHAIR
    if c[1] == 0:
        return ZIGZAG
    return CHIRAL


def canonicalize_chirality(raw):
    """Reduce an arbitrary sum-zero nonzero triple to the chirality domain.

    Applies the 12 signed coordinate permutations (lattice point symmetries
    restricted to T) and returns the image with c0 > c1 >= c2; if more than
    one image qualifies, the lexicographically largest wins.  One always
    does: sorted to x0 >= x1 >= x2, the triple is an image unless x0 = x1,
    and then x2 = -2 x0 < 0 makes (-x2, -x1, -x0) = (2 x0, -x0, -x0) one.
    """
    c = tuple(int(x) for x in raw)
    if c == (0, 0, 0):
        raise ChiralityError("zero", "chirality must be nonzero")
    if sum(c) != 0:
        raise ChiralityError("sum", f"chirality components must sum to 0, got sum {sum(c)}")
    return max(p for sign in (1, -1) for p in permutations(sign * x for x in c)
               if p[0] > p[1] >= p[2])


class TubeSymmetry(namedtuple("TubeSymmetry", "c n c_prime R b q q_prime omega")):
    """Symmetry data derived from a chirality vector.

    n: rotation order (gcd of c); c_prime: c/n; R: gcd of the pairwise
    component differences of c; b: shortest pure translation along the
    axis; q = ||c||^2 / R hexagons per translational cell; q_prime = q/n;
    omega: shortest screw-generator vector with <omega, b> = ||b||^2/q'.
    """

    __slots__ = ()

    def line_spacing(self, a):
        """Distance 2*pi/(a*||c||) between neighboring allowed k-lines."""
        return 2.0 * math.pi / (a * math.sqrt(inner(self.c, self.c)))


def _ext_gcd(x, y):
    """Return (g, u, v) with u*x + v*y == g == gcd(x, y), g >= 0."""
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _shortest_screw(b, target):
    """Shortest sum-zero integer triple w with <w, b> = target.

    Solutions form a line w0 + Z*h, h = +-c' the primitive step orthogonal
    to b; the norm is quadratic in the step t, least at the real
    -<w0, h> / <h, h>, whose floor t or t + 1 is the shortest step.  Ties
    (the minimal-norm set can contain two vectors) break to the
    lexicographically smallest triple.  A solution exists for the target
    tube_symmetry asks: b0 - b2 = 3 c1 / R and b1 - b2 = -3 c0 / R have
    gcd g = 3n/R, and ||b||^2 = 3 ||c||^2 / R^2 makes ||b||^2 / q' = 3n/R.
    """
    p = b[0] - b[2]
    q = b[1] - b[2]
    g, u, v = _ext_gcd(p, q)
    scale = target // g
    x, y = u * scale, v * scale
    w0 = (x, y, -x - y)
    hx, hy = q // g, -p // g
    h = (hx, hy, -hx - hy)
    t = -inner(w0, h) // inner(h, h)
    return min((tuple(wj + s * hj for wj, hj in zip(w0, h)) for s in (t, t + 1)),
               key=lambda w: (inner(w, w), w))


def tube_symmetry(c):
    """Derive the full symmetry record for a valid chirality.

    R is n or 3n: R/n divides the differences of c', hence each 3 c'_i.  So
    q = n^2 ||c'||^2 / R is a whole multiple of n, as R = 3n makes the c'_i
    agree mod 3 and 3 divide ||c'||^2.
    """
    c = validate_chirality(c)
    n = math.gcd(c[0], math.gcd(c[1], c[2]))
    c_prime = (c[0] // n, c[1] // n, c[2] // n)
    diffs = (c[1] - c[2], c[2] - c[0], c[0] - c[1])
    R = math.gcd(diffs[0], math.gcd(diffs[1], diffs[2]))
    b = (diffs[0] // R, diffs[1] // R, diffs[2] // R)
    q = inner(c, c) // R
    q_prime = q // n
    omega = _shortest_screw(b, inner(b, b) // q_prime)
    return TubeSymmetry(c=c, n=n, c_prime=c_prime, R=R, b=b, q=q, q_prime=q_prime, omega=omega)


def is_metallic(c):
    """Zone-folding criterion: the tube conducts iff c0 - c1 is in 3Z."""
    c = validate_chirality(c)
    return (c[0] - c[1]) % 3 == 0


def diameter(c, a):
    """Tube diameter ||c|| * a / pi in the units of a (Angstrom for a physical a)."""
    if a <= 0:
        raise ValueError(f"scale a must be positive, got {a}")
    return math.sqrt(inner(c, c)) * a / math.pi


def canonical_rep(v, c):
    """Canonical representative of the class v + Zc.

    Subtracts floor(<v,c>/||c||^2) copies of c, landing the projection on c
    in [0, ||c||^2); equal reps iff same class.  v is one triple (a tuple
    or list) of ints, reduced exactly at any size.
    """
    j = sum(x * y for x, y in zip(v, c)) // sum(y * y for y in c)
    return tuple(x - j * y for x, y in zip(v, c))


def class_neighbors(rep, c):
    """Canonical representatives of the three bonded classes."""
    return tuple(canonical_rep(u, c) for u in nearest_neighbors(rep))


def class_next_nearest_neighbors(rep, c):
    """The six next-to-nearest classes, in the order of next_nearest_neighbors."""
    return tuple(canonical_rep(u, c) for u in next_nearest_neighbors(rep))


def decompose(rep, sym):
    """Coordinates (s, m, p) of a class: screw power, rotation power, flip.

    p is the coordinate sum of rep; s comes from the exact axial projection;
    the residual must be an integer multiple of c_prime, reduced mod n to
    give m.  rep may be any member of its class: c is orthogonal to b and a
    multiple n c_prime, so moving along c changes neither s nor m.  A
    non-integer s or a skew residual means the inputs are inconsistent and
    raises DecompositionError.
    """
    p = sum(rep)
    if p not in (0, 1):
        raise DecompositionError("a representative has coordinate sum outside {0, 1}")
    w = tau(rep) if p else rep
    s, rem = divmod(sym.q_prime * inner(w, sym.b), inner(sym.b, sym.b))
    if rem:
        raise DecompositionError("an axial projection is not an integer screw power")
    r = tuple(x - s * y for x, y in zip(w, sym.omega))
    t, rem = divmod(r[0], sym.c_prime[0])
    if rem or r != tuple(t * y for y in sym.c_prime):
        raise DecompositionError("a residual is not parallel to c_prime")
    return s, t % sym.n, p


def compose(s, m, p, sym):
    """Canonical representative of tau^p g_omega^s g_c'^m applied to [0,0,0]."""
    if not 0 <= m < sym.n:
        raise ValueError(f"m must lie in [0, {sym.n}), got {m}")
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p}")
    x = tuple(s * y + m * z for y, z in zip(sym.omega, sym.c_prime))
    return canonical_rep(tau(x) if p else x, sym.c)
