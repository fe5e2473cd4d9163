import math

import pytest
from hypothesis import given, strategies as st

from cntbands import geom

TOL = 1e-12

coord = st.floats(-1e3, 1e3, allow_nan=False)


def coords(v):
    """Projections (<v,e0>, <v,e1>, <v,e2>) of a plane vector onto the triad."""
    return tuple(v[0] * ex + v[1] * ey for ex, ey in (geom.E0, geom.E1, geom.E2))


def test_embed_zero_and_e0():
    assert geom.embed((0, 0, 0)) == (0.0, 0.0)
    assert geom.embed((1, 0, 0)) == pytest.approx((2 / math.sqrt(6), 0.0), abs=TOL)


def test_embed_kills_diagonal():
    assert geom.embed((1, 1, 1)) == pytest.approx((0.0, 0.0), abs=TOL)


def test_inner_examples():
    assert geom.inner((1, -1, 0), (1, -1, 0)) == 2
    assert geom.inner((1, 0, 0), (1, 0, 0)) == pytest.approx(2 / 3, abs=TOL)


@given(a=coord, b=coord)
def test_inner_diagonal_annihilates_sum_zero(a, b):
    v = (a, b, -a - b)
    assert geom.inner((1, 1, 1), v) == pytest.approx(0.0, abs=1e-9)


@given(a=coord, b=coord)
def test_round_trip(a, b):
    t = (a, b, -a - b)
    back = coords(geom.embed(t))
    scale = max(1.0, abs(a), abs(b))
    assert back == pytest.approx(t, abs=TOL * scale)


@given(vx=coord, vy=coord, ux=coord, uy=coord)
def test_coherence_identities(vx, vy, ux, uy):
    v, u = (vx, vy), (ux, uy)
    cv = coords(v)
    cu = coords(u)
    scale = max(1.0, vx * vx + vy * vy, ux * ux + uy * uy)
    # reconstruction
    rec = geom.embed(cv)
    assert rec == pytest.approx(v, abs=TOL * scale)
    # scalar product and norm through the triad
    assert sum(a * b for a, b in zip(cv, cu)) == pytest.approx(
        vx * ux + vy * uy, abs=TOL * scale)
    assert sum(a * a for a in cv) == pytest.approx(vx * vx + vy * vy, abs=TOL * scale)


@given(a=coord, b=coord, c=coord, d=coord, alpha=coord)
def test_shift_invariance(a, b, c, d, alpha):
    u = (a, b, c)
    v = (d, -d / 2, -d / 2)
    shifted = (a + alpha, b + alpha, c + alpha)
    scale = max(1.0, *(abs(x) for x in (a, b, c, d, alpha)))
    assert geom.inner(shifted, v) == pytest.approx(geom.inner(u, v),
                                                   abs=1e-9 * scale * scale)

