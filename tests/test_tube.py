import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cntbands
from cntbands import geom
from cntbands.honeycomb import bond_length_scale
from cntbands.tube import (
    ARMCHAIR,
    CHIRAL,
    ZIGZAG,
    ChiralityError,
    canonical_rep,
    canonicalize_chirality,
    class_neighbors,
    class_next_nearest_neighbors,
    compose,
    decompose,
    diameter,
    tube_class,
    tube_symmetry,
    validate_chirality,
)
from conftest import ball, chiralities

A = bond_length_scale(1.44)
SRC = Path(cntbands.__file__).resolve().parents[1]


def all_chiralities(max_c0):
    out = []
    for c0 in range(1, max_c0 + 1):
        for c1 in range(-c0, c0):
            c2 = -c0 - c1
            if c0 > c1 >= c2:
                out.append((c0, c1, c2))
    return out


def test_validate_accepts_domain():
    assert validate_chirality((4, -2, -2)) == (4, -2, -2)
    assert tube_class((4, -2, -2)) == ARMCHAIR
    assert validate_chirality((5, 0, -5)) == (5, 0, -5)
    assert tube_class((5, 0, -5)) == ZIGZAG
    assert tube_class((4, -1, -3)) == CHIRAL


@pytest.mark.parametrize("raw,code", [
    ((0, 0, 0), "zero"),
    ((1, 0, 0), "sum"),
    ((1, 1, -2), "order"),
])
def test_validate_rejects_with_code(raw, code):
    with pytest.raises(ChiralityError) as err:
        validate_chirality(raw)
    assert err.value.code == code


def test_canonicalize():
    assert canonicalize_chirality((1, 1, -2)) == (2, -1, -1)
    assert canonicalize_chirality((-5, 0, 5)) == (5, 0, -5)
    assert canonicalize_chirality((4, -2, -2)) == (4, -2, -2)
    with pytest.raises(ChiralityError):
        canonicalize_chirality((0, 0, 0))
    with pytest.raises(ChiralityError):
        canonicalize_chirality((1, 2, 3))


@pytest.mark.parametrize("c,expect", [
    ((4, -2, -2), dict(n=2, c_prime=(2, -1, -1), R=6, b=(0, -1, 1), q=4,
                       q_prime=2, omega=(-1, 0, 1))),
    ((5, 0, -5), dict(n=5, c_prime=(1, 0, -1), R=5, b=(1, -2, 1), q=10,
                      q_prime=2, omega=(0, -1, 1))),
    ((4, -1, -3), dict(n=1, c_prime=(4, -1, -3), R=1, b=(2, -7, 5), q=26,
                       q_prime=26)),
])
def test_tube_symmetry_examples(c, expect):
    sym = tube_symmetry(c)
    for key, val in expect.items():
        assert getattr(sym, key) == val


def test_symmetry_identities_exhaustive():
    for c in all_chiralities(12):
        sym = tube_symmetry(c)
        nc2 = geom.inner(c, c)
        nb2 = geom.inner(sym.b, sym.b)
        assert sym.R ** 2 * nb2 == 3 * nc2
        assert sym.q * sym.R == nc2
        assert sym.q % sym.n == 0
        assert sum(sym.b) == 0 and sum(sym.omega) == 0
        assert geom.inner(sym.b, c) == 0
        assert sym.q_prime * geom.inner(sym.omega, sym.b) == nb2
        assert_screw_target_is_the_gcd(sym)


def assert_screw_target_is_the_gcd(sym):
    """R is n or 3n, and the screw's target ||b||^2 / q' is 3n/R, the gcd of b0 - b2 and
    b1 - b2 that _shortest_screw solves for: the premises of tube_symmetry's q and screw."""
    b = sym.b
    assert sym.R in (sym.n, 3 * sym.n)
    assert geom.inner(b, b) == 3 * sym.n // sym.R * sym.q_prime
    assert 3 * sym.n // sym.R == math.gcd(b[0] - b[2], b[1] - b[2])


@given(c=chiralities)
def test_shortest_screw_at_any_size(c):
    # omega solves <omega, b> = ||b||^2 / q' and, its solutions being omega + Z c', is no
    # longer than either neighbour, and lexicographically first if as long
    sym = tube_symmetry(c)
    b, w, cp = sym.b, sym.omega, sym.c_prime
    assert sym.q_prime * geom.inner(w, b) == geom.inner(b, b)
    assert sum(w) == 0 and geom.inner(cp, b) == 0
    assert_screw_target_is_the_gcd(sym)
    for sign in (1, -1):
        other = tuple(x + sign * y for x, y in zip(w, cp))
        assert (geom.inner(w, w), w) < (geom.inner(other, other), other)


def test_line_spacing():
    sym = tube_symmetry((4, -2, -2))
    assert sym.line_spacing(A) == pytest.approx(2 * math.pi / (A * math.sqrt(24)),
                                                abs=1e-12)


def test_diameter():
    assert diameter((4, -2, -2), A) == pytest.approx(math.sqrt(24) * A / math.pi,
                                                     abs=1e-12)
    assert diameter((4, -2, -2), A) == pytest.approx(2.7502, abs=1e-4)
    assert diameter((5, 0, -5), A) == pytest.approx(3.9696, abs=1e-4)
    assert diameter((5, 0, -5), 2 * A) == pytest.approx(2 * diameter((5, 0, -5), A),
                                                        abs=1e-12)
    with pytest.raises(ValueError):
        diameter((5, 0, -5), 0.0)


def test_canonical_rep_examples():
    c = (4, -2, -2)
    assert canonical_rep((0, 0, 0), c) == (0, 0, 0)
    assert canonical_rep(c, c) == (0, 0, 0)
    assert canonical_rep((5, -2, -2), c) == (1, 0, 0)


def test_canonical_rep_window_and_identity():
    c = (5, 0, -5)
    nc2 = geom.inner(c, c)
    for v in ball(5):
        rep = canonical_rep(v, c)
        assert 0 <= geom.inner(rep, c) < nc2
        assert sum(rep) == sum(v)
        # same class iff difference is an integer multiple of c
        for j in (-2, -1, 1, 3):
            shifted = tuple(v[i] + j * c[i] for i in range(3))
            assert canonical_rep(shifted, c) == rep


def test_canonical_rep_of_one_triple_is_exact_at_any_size():
    # one triple is reduced in Python ints, which neither wrap nor round
    c = (7, -2, -5)
    for v in [(10 ** 20 + 1, -10 ** 20, -1), (3 * 2 ** 62, -2 ** 62, -2 ** 63),
              (-10 ** 30, 10 ** 30 - 7, 7)]:
        rep = canonical_rep(v, c)
        assert 0 <= geom.inner(rep, c) < geom.inner(c, c)
        j, rem = divmod(v[0] - rep[0], c[0])
        assert rem == 0 and [x - r for x, r in zip(v, rep)] == [j * y for y in c]


def test_class_neighbors():
    c = (4, -2, -2)
    got = class_neighbors((0, 0, 0), c)
    # canonical representatives of the classes of (1,0,0), (0,1,0), (0,0,1)
    assert set(got) == {canonical_rep(v, c)
                        for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}
    assert len(class_next_nearest_neighbors((0, 0, 0), c)) == 6


def test_class_neighbors_representative_independent():
    c = (4, -1, -3)
    for v in ball(4):
        shifted = tuple(v[i] + 17 * c[i] for i in range(3))
        rep = canonical_rep(v, c)
        assert class_neighbors(rep, c) == class_neighbors(canonical_rep(shifted, c), c)
        assert class_next_nearest_neighbors(rep, c) == \
            class_next_nearest_neighbors(canonical_rep(shifted, c), c)


triple = st.integers(-30, 30)


@given(v0=triple, v1=triple, w0=triple, w1=triple, j=st.integers(-5, 5),
       s=st.integers(0, 1))
def test_quotient_symmetries_well_defined(v0, v1, w0, w1, j, s):
    # Translations and the flip map equal classes to equal classes.
    c = (4, -1, -3)
    v = (v0, v1, s - v0 - v1)
    u = tuple(v[i] + j * c[i] for i in range(3))  # same class as v
    w = (w0, w1, -w0 - w1)
    vt = tuple(v[i] + w[i] for i in range(3))
    ut = tuple(u[i] + w[i] for i in range(3))
    assert canonical_rep(vt, c) == canonical_rep(ut, c)
    vf = (1 - v[0], -v[1], -v[2])
    uf = (1 - u[0], -u[1], -u[2])
    assert canonical_rep(vf, c) == canonical_rep(uf, c)


def brute_force_decomposition(rep, sym, span=6):
    """Independent oracle: search small (s, m, p) reproducing the class."""
    target = canonical_rep(rep, sym.c)
    for s, m, p in product(range(-span, span + 1), range(sym.n), (0, 1)):
        if compose(s, m, p, sym) == target:
            return (s, m, p)
    raise AssertionError(f"no decomposition found for {rep}")


def test_decompose_examples():
    sym = tube_symmetry((4, -2, -2))
    for rep, expect in [((1, 0, 0), (0, 0, 1)), ((1, -1, 0), (1, 1, 0)),
                        ((-1, 0, 1), (1, 0, 0))]:
        assert decompose(rep, sym) == expect
        assert brute_force_decomposition(rep, sym) == expect


def test_compose_examples():
    sym = tube_symmetry((4, -2, -2))
    assert compose(0, 0, 0, sym) == (0, 0, 0)
    assert compose(0, 1, 0, sym) == (2, -1, -1)
    assert compose(1, 0, 1, sym) == (2, 0, -1)
    with pytest.raises(ValueError):
        compose(0, 2, 0, sym)
    with pytest.raises(ValueError):
        compose(0, 0, 2, sym)


@pytest.mark.parametrize("c", [(4, -2, -2), (5, 0, -5), (4, -1, -3)])
def test_round_trips(c):
    sym = tube_symmetry(c)
    for s, m, p in product(range(-3, 4), range(sym.n), (0, 1)):
        assert decompose(compose(s, m, p, sym), sym) == (s, m, p)
    for v in ball(5):
        rep = canonical_rep(v, c)
        s, m, p = decompose(rep, sym)
        assert compose(s, m, p, sym) == rep


def test_single_triple_gives_python_ints():
    c = (7, -2, -5)
    sym = tube_symmetry(c)
    rep = canonical_rep((20, -3, -16), c)
    outs = [rep, decompose(rep, sym), compose(3, 0, 1, sym),
            *class_neighbors(rep, c), *class_next_nearest_neighbors(rep, c)]
    for out in outs:
        assert type(out) is tuple and len(out) == 3
        assert all(type(x) is int for x in out)
    assert json.loads(json.dumps(outs)) == [list(x) for x in outs]


def test_compose_stack_rejects_out_of_range():
    # a stack of coordinates is composed one triple at a time; one bad entry raises
    sym = tube_symmetry((5, 0, -5))
    s = range(4)
    for ms in ([0, 1, 5, 2], [0, -1, 0, 0]):
        with pytest.raises(ValueError, match="m must"):
            [compose(si, m, 0, sym) for si, m in zip(s, ms)]
    with pytest.raises(ValueError, match="p must"):
        [compose(si, 0, p, sym) for si, p in zip(s, [0, 1, 2, 1])]


def test_maps_run_without_numpy():
    # one triple in, Python ints out: the maps need no array library
    code = ("import sys\n"
            "from cntbands.tube import canonical_rep, class_neighbors, compose, decompose, "
            "tube_symmetry\n"
            "sym = tube_symmetry((7, -2, -5))\n"
            "rep = canonical_rep((20, -3, -16), sym.c)\n"
            "assert compose(*decompose(rep, sym), sym) == rep\n"
            "assert len(class_neighbors(rep, sym.c)) == 3\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
