"""Three-axes description of the Euclidean plane.

The plane is coordinatized by three unit-cell vectors e0, e1, e2 pointing
to the vertices of an equilateral triangle (120 degrees apart, e0+e1+e2=0).
Every plane vector v gets redundant "canonical coordinates"
(<v,e0>, <v,e1>, <v,e2>) which always sum to zero.  The triad is coherent:
reconstruction v = sum <v,ei> ei and the Parseval-type identities hold
exactly, so the sum-zero hyperplane of R^3 is an isometric model of the
plane.  Representations differing by (alpha, alpha, alpha) embed to the
same plane vector; the scalar product below is made insensitive to that
shift by mean-subtraction.
"""

import math

SQRT6 = math.sqrt(6.0)
SQRT2 = math.sqrt(2.0)

E0 = (2.0 / SQRT6, 0.0)
E1 = (-1.0 / SQRT6, 1.0 / SQRT2)
E2 = (-1.0 / SQRT6, -1.0 / SQRT2)


def embed(u):
    """Map a coordinate triple back to the plane: sum_i u_i e_i.

    Accepts any real triple; the (alpha, alpha, alpha) part is annihilated
    because e0+e1+e2 = 0.
    """
    u0, u1, u2 = u
    return (
        u0 * E0[0] + u1 * E1[0] + u2 * E2[0],
        u0 * E0[1] + u1 * E1[1] + u2 * E2[1],
    )


def inner(u, v):
    """Plane scalar product of two triples.

    Equals <embed(u), embed(v)>.  Computed as sum(u_i v_i) - su*sv/3 which
    is the dot product of the mean-subtracted (canonicalized) triples, so
    adding (alpha, alpha, alpha) to either argument changes nothing.  For
    two sum-zero triples this is the plain dot product (exact for ints).
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    s = (u0 + u1 + u2) * (v0 + v1 + v2)
    dot = u0 * v0 + u1 * v1 + u2 * v2
    if s == 0:
        return dot
    return dot - s / 3.0
