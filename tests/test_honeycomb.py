import math
from itertools import product

import numpy as np
import pytest

from cntbands import geom
from cntbands.honeycomb import (
    SymmetryWord,
    apply_symmetry,
    bond_length_scale,
    distance,
    nearest_neighbors,
    next_nearest_neighbors,
    nu,
    rho,
    sigma,
    tau,
)
from conftest import ball


def test_nu():
    assert nu((0, 0, 0)) == 1
    assert nu((1, 0, 0)) == -1
    assert nu((-2, 1, 1)) == 1


def test_nearest_neighbors_origin():
    assert set(nearest_neighbors((0, 0, 0))) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_nearest_neighbors_shifted_sublattice():
    assert set(nearest_neighbors((1, 0, 0))) == {(0, 0, 0), (1, -1, 0), (1, 0, -1)}
    assert set(nearest_neighbors((0, 1, 0))) == {(-1, 1, 0), (0, 0, 0), (0, 1, -1)}


def test_next_nearest_neighbors_origin():
    expect = {(1, -1, 0), (1, 0, -1), (-1, 1, 0), (0, 1, -1), (-1, 0, 1), (0, -1, 1)}
    got = next_nearest_neighbors((0, 0, 0))
    assert len(got) == 6
    assert set(got) == expect


@pytest.mark.parametrize("v", ball(3))
def test_double_neighbor_identities(v):
    nn = nearest_neighbors(v)
    for i in range(3):
        assert nearest_neighbors(nn[i])[i] == v  # v^{ii} = v
    for i, j, l in product(range(3), repeat=3):
        ijl = nearest_neighbors(nearest_neighbors(nn[i])[j])[l]
        lji = nearest_neighbors(nearest_neighbors(nearest_neighbors(v)[l])[j])[i]
        assert ijl == lji  # v^{ijl} = v^{lji}


def test_distance_examples():
    assert distance((0, 0, 0), (0, 0, 0)) == 0
    assert distance((0, 0, 0), (1, 0, 0)) == 1
    assert distance((0, 0, 0), (1, -1, 0)) == 2


def test_metric_axioms_on_ball():
    sites = ball(4)
    d = np.array([[distance(v, u) for u in sites] for v in sites])
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    assert ((d == 0) == np.eye(len(sites), dtype=bool)).all()
    # triangle inequality, all triples at once
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()


def test_neighbors_are_distance_one():
    for v in ball(3):
        at_one = {u for u in ball(2, v) if distance(v, u) == 1}
        assert set(nearest_neighbors(v)) == at_one


def test_next_nearest_are_distance_two_same_sublattice():
    for v in ball(3):
        for u in next_nearest_neighbors(v):
            assert distance(v, u) == 2
            assert nu(u) == nu(v)


def test_generator_orders():
    for v in ball(4):
        assert sigma(sigma(sigma(v))) == v
        assert rho(rho(v)) == v
        assert tau(tau(v)) == v


def test_generators_are_isometries():
    sites = ball(3)
    words = [("sigma",), ("rho",), ("tau",), ("sigma", "tau", "rho")]
    translations = [(0, 0, 0), (2, -1, -1), (-3, 1, 2)]
    for gens in words:
        for t in translations:
            w = SymmetryWord(gens, t)
            for v in sites:
                for u in sites:
                    assert distance(apply_symmetry(w, v), apply_symmetry(w, u)) == \
                        distance(v, u)


def test_composite_words_are_translations():
    # sigma^2 tau sigma tau acts as +(-1,1,0); the word is applied
    # innermost generator first, i.e. in reverse of the written order.
    w1 = SymmetryWord(("tau", "sigma", "tau", "sigma", "sigma"))
    w2 = SymmetryWord(("tau", "sigma", "sigma", "tau", "sigma"))
    assert apply_symmetry(w1, (5, -2, -2)) == (4, -1, -2)
    for v in ball(4):
        assert apply_symmetry(w1, v) == (v[0] - 1, v[1] + 1, v[2])
        assert apply_symmetry(w2, v) == (v[0] - 1, v[1], v[2] + 1)


def test_apply_symmetry_basics():
    assert apply_symmetry(("sigma",), (1, 0, 0)) == (0, 0, 1)
    assert apply_symmetry(("tau",), (0, 0, 0)) == (1, 0, 0)
    assert apply_symmetry(SymmetryWord(), (3, -1, -2)) == (3, -1, -2)
    assert apply_symmetry(SymmetryWord((), (1, -1, 0)), (0, 0, 0)) == (1, -1, 0)


def test_symmetry_word_validation():
    with pytest.raises(ValueError):
        SymmetryWord(("omega",))
    with pytest.raises(ValueError):
        SymmetryWord((), (1, 0, 0))


def test_bond_length_scale():
    assert bond_length_scale(1.44) == pytest.approx(1.44 * math.sqrt(6) / 2, abs=1e-12)
    assert bond_length_scale(2 / math.sqrt(6)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        bond_length_scale(0.0)
    with pytest.raises(ValueError):
        bond_length_scale(-1.0)


def test_bond_length_in_angstrom():
    a = bond_length_scale(1.44)
    x0, y0 = geom.embed((0, 0, 0))
    x1, y1 = geom.embed((1, 0, 0))
    assert a * math.hypot(x1 - x0, y1 - y0) == pytest.approx(1.44, abs=1e-12)


def test_ball_radius_counts():
    sites = ball(2)
    assert (0, 0, 0) in sites
    assert all(distance((0, 0, 0), v) <= 2 for v in sites)
    # everything at distance <= 2: origin + 3 nearest + 6 next-nearest
    assert len(sites) == 10
