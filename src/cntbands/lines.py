"""Band lines: the band parameters and the exact modulus along k-lines.

The two-band dispersion is E+-(k) = eps +- |sum_j gamma_j e^{i k_j a}|.  Rolling
into a tube keeps the straight k-lines with <k, c> in (2 pi / a) Z, indexed by
a rotation quantum number m and the screw coordinate kappa; band_blocks
samples one of them on a uniform kappa grid, graphene-path a straight segment
of the sheet between two WAYPOINTS.

Every point either samples is rational in units of 2 pi / a.  With C = <c, c>,
B = <b, b>, W = <c, omega> and S samples, grid point i of line m sits at

    k_j a / 2 pi = m c_j / C + q' (i C - m W S) b_j / (C B S)

(line_numerators; the oracle's Bloch points are such grid points), and a
path point i of a segment from u to v in count points at u + i (v - u) /
(count - 1), u and v in sixths.  So each bond phase k_j a - k_2 a splits into
an integer numerator at the start of a block and i - lo integer steps over a
common denominator, both reduced exactly in integers: the modulus of point i
is |L_0 T_0(i - lo) + L_1 T_1(i - lo) + gamma_2|, where L_j is gamma_j times
the phasor at the block start and T_j is one table of at most BLOCK step
phasors, shared by every line and block of a run.  Each phasor rounds once,
from an angle within pi / 4, and a table entry is the product of two of
them, so rows stay within 2e-15 of 40-digit mpmath however large the tube;
rows at K, on a line or a path, are exactly epsilon without a field.  An
axial field is its flux phi in periods, an exact ratio of integers, so its
bond phases 2 pi phi c_j / C reduce in integers too; magnetic_params turns
a float beta into phi once.

Loading this module loads neither numpy nor dataclasses; the parameter and
table records are named tuples.
"""

import cmath
import math
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import islice

from .geom import inner
from .honeycomb import bond_length_scale, sigma
from .tube import is_metallic, validate_chirality

A_DEFAULT = bond_length_scale(1.44)

# largest |flux| in periods a field may carry: the range over which the gap's
# flux periodicity is tested
MAX_FLUX_PERIODS = 2 ** 10

# 2 pi as a ratio of integers, within 1e-31: the double 2 pi, 884279719003555 / 2^47,
# plus the double nearest the rest, 4967757600021511 / 2^104 = 2.4492935982947064e-16
TWO_PI_RATIO = (884279719003555 * 2 ** 57 + 4967757600021511, 2 ** 104)

BLOCK = 4096  # grid points a band block holds: bounds what band tables and their CSV hold
SPLIT = 64  # a step table of BLOCK phasors is built from two of SPLIT = sqrt(BLOCK)

EIGHTH_TURN = math.pi / 4.0
QUARTER_TURNS = (1.0, 1j, -1.0, -1j)

# e^{i (k_j - k_2) a}, j = 0, 1, at K and K': with one gamma their sum with 1 is exactly 0
K_PHASORS = ((complex(-0.5, math.sqrt(3.0) / 2.0), complex(-0.5, -math.sqrt(3.0) / 2.0)),
             (complex(-0.5, -math.sqrt(3.0) / 2.0), complex(-0.5, math.sqrt(3.0) / 2.0)))

# the sheet's special points Gamma, K and M in sixths of 2 pi / a, imaged by special_points
WAYPOINTS = {"G": (0, 0, 0), "K": (2, -2, 0), "M": (2, -1, -1)}


class BandParams(namedtuple("BandParams", "epsilon gamma a field")):
    """Onsite energy, the one real hopping gamma > 0, length scale, and an axial field.

    field is None, or the ((num, den), c) of an axial magnetic field of
    flux phi = num / den != 0 periods through tube c, integers with den > 0
    and |phi| <= MAX_FLUX_PERIODS: the bond along axis j then carries
    gamma e^{2 pi i phi c_j / <c, c>}.  The constructor validates the
    chirality, stores a zero flux as None and gamma as a float; _replace
    goes through its checks too.
    """

    __slots__ = ()

    def __new__(cls, epsilon=0.0, gamma=1.0, a=A_DEFAULT, field=None):
        if not a > 0 or math.isinf(a):
            raise ValueError(f"scale a must be positive and finite, got {a}")
        if not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite, got {epsilon}")
        if isinstance(gamma, complex) or not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be real, positive and finite, got {gamma}")
        if field is not None:
            (num, den), c = field
            if not (isinstance(num, int) and isinstance(den, int) and den > 0):
                raise ValueError(f"the flux must be integers num / den, den > 0, got {field[0]}")
            if abs(num) > MAX_FLUX_PERIODS * den:
                raise ValueError(f"the flux exceeds {MAX_FLUX_PERIODS} flux periods")
            c = validate_chirality(c)
            field = ((num, den), c) if num else None
        return super().__new__(cls, epsilon, float(gamma), a, field)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def hoppings(self):
        """(gamma_0, gamma_1, gamma_2): gamma, or gamma e^{2 pi i phi c_j / <c, c>} in a field."""
        if self.field is None:
            return (self.gamma,) * 3
        (num, den), c = self.field
        return tuple(self.gamma * _turn(num * cj, den * inner(c, c)) for cj in c)


def uniform_params(gamma=1.0, epsilon=0.0, a=A_DEFAULT):
    """The zero-field tube, or the flat graphene sheet."""
    return BandParams(epsilon, gamma, a)


def _flux(beta, c, a):
    """(num, den): the flux beta a <c, c> / 2 pi in periods, exact but for TWO_PI_RATIO's 1e-31."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    (bn, bd), (an, ad) = float(beta).as_integer_ratio(), float(a).as_integer_ratio()
    return bn * an * inner(c, c) * TWO_PI_RATIO[1], bd * ad * TWO_PI_RATIO[0]


def magnetic_params(gamma, beta, c, a=A_DEFAULT, epsilon=0.0):
    """Axial field beta, None at +-0: the dispersion at k is the zero-field one at k + beta c."""
    return BandParams(epsilon, gamma, a, (_flux(beta, c, a), c))


def flux_period(c, a=A_DEFAULT):
    """Aharonov-Bohm period 2 pi / (a ||c||^2) of beta: the largest double of at most one period.

    MAX_FLUX_PERIODS times it is then the largest beta magnetic_params accepts.
    """
    num, den = _flux(1.0, c, a)
    period = den / num
    pn, pd = period.as_integer_ratio()
    return math.nextafter(period, 0.0) if pn * num > pd * den else period


def special_points(a=A_DEFAULT):
    """Each WAYPOINTS label's distinct images under sign and sigma, the waypoint first, K' second.

    The sixth 2 pi / (6 a) is exactly half of 2 pi / (3 a), and is pi / (3 a) in doubles.
    """
    sixth = 2.0 * math.pi / (6.0 * a)
    points = {}
    for label, v in WAYPOINTS.items():
        ks = [tuple(x * sixth for x in w) for w in (v, sigma(v), sigma(sigma(v)))]
        points[label] = tuple(dict.fromkeys(p for k in ks for p in (k, tuple(-x for x in k))))
    return points


def kappa_period(sym, a=A_DEFAULT):
    """Length 2 pi q' / a of one screw-coordinate period of a band line."""
    return 2.0 * math.pi * sym.q_prime / a


def _turn(num, den):
    """e^{2 pi i num / den} for integers num and den > 0.

    num / den = (k + f) / 4 with k an integer and |f| <= 1/2, reduced in
    integers; e^{i pi f / 2}, from an angle within pi / 4 rounded once, is
    turned by i^k exactly.
    """
    k, r = divmod(8 * num + den, 2 * den)
    return cmath.rect(1.0, EIGHTH_TURN * ((r - den) / den)) * QUARTER_TURNS[k & 3]


@lru_cache(maxsize=1)
def _offsets(steps, den, size):
    """T_j(r) = e^{2 pi i r steps_j / den}, r < size: one table a run or verify, reused by key.

    With r = SPLIT u + v, v < SPLIT, T_j(r) is the product of the two exact
    phasors of SPLIT u and v, so min(size, SPLIT) + size / SPLIT phasors
    build the table.
    """
    tables = []
    for s in steps:
        low = [_turn(v * s, den) for v in range(min(size, SPLIT))]
        high = [_turn(SPLIT * u * s, den) for u in range(-(-size // SPLIT))]
        tables.append(tuple([h * z for h in high for z in low][:size]))
    return tuple(tables)


def _moduli(nums, steps, den, count, size, p):
    """|L_0 T_0(r) + L_1 T_1(r) + gamma_2| for r < count: the one band-point kernel.

    Point r has the phases 2 pi (nums_j + r steps_j) / den of bonds j = 0, 1
    relative to bond 2; L_j = gamma_j e^{2 pi i nums_j / den}.  size is the
    table's length, count <= size; a run keeps one size, so one table.
    """
    h0, h1, h2 = p.hoppings
    l0, l1 = h0 * _turn(nums[0], den), h1 * _turn(nums[1], den)
    t0, t1 = _offsets(steps, den, size)
    pairs = zip(t0, t1) if count == size else islice(zip(t0, t1), count)
    return [abs(l0 * x0 + l1 * x1 + h2) for x0, x1 in pairs]


def path_moduli(start, end, count, lo, hi, p):
    """Moduli at the sheet points start + i (end - start) / (count - 1), lo <= i < hi.

    start and end are triples of sixths of 2 pi / a (WAYPOINTS); hi - lo is
    at most BLOCK.
    """
    den, size = 6 * (count - 1), min(count, BLOCK)
    steps = tuple((e - s) - (end[2] - start[2]) for s, e in zip(start[:2], end[:2]))
    nums = [(s - start[2]) * (count - 1) + lo * d for s, d in zip(start[:2], steps)]
    mod = _moduli(nums, steps, den, hi - lo, size, p)
    for i, point in ((0, start), (count - 1, end)):
        if point == WAYPOINTS["K"] and lo <= i < hi:
            mod[i - lo] = _k_modulus(K_PHASORS[0], p)
    return mod


def _k_modulus(phasors, p):
    """The modulus at K or K' (phasors K_PHASORS[0] or [1]): exactly 0.0 without a field."""
    h0, h1, h2 = p.hoppings
    return abs(h0 * phasors[0] + h1 * phasors[1] + h2)


def k_point_projections(c, sym):
    """(m, f) of K and K' when they lie on allowed lines: line m at kappa period f / 3.

    Empty for semiconducting tubes.  K (s = 1) and K' (s = -1) lie on line
    m = s (c0 - c1) / 3 mod n at <K, omega> a / 2 pi = s (omega0 - omega1) / 3
    of the kappa period, f = s (omega0 - omega1) mod 3, both in integers.
    """
    if not is_metallic(c):
        return []
    line, turn = (c[0] - c[1]) // 3, sym.omega[0] - sym.omega[1]
    return [(s * line % sym.n, s * turn % 3) for s in (1, -1)]


class BandTable(namedtuple("BandTable", "c m kappa E_minus E_plus")):
    """Sampled conduction/valence pair of one m-band, as columns of doubles."""

    __slots__ = ()


def _k_rows(c, sym, m, samples, p):
    """(i, kappa, modulus) of the K points on line m, in the order of i.

    K at screw fraction f / 3 is grid point i = samples f / 3 when 3 divides
    samples f; kappa is then None and the grid row takes the modulus.
    Otherwise it is added after grid point i - 1, i = samples f // 3 + 1, at
    kappa period f / 3.  The point is K (or K') up to a lattice step, where
    the phases relative to bond 2 are K_PHASORS: the modulus is exactly 0.0
    without a field.
    """
    period = kappa_period(sym, p.a)
    rows = []
    for (mm, f), phasors in zip(k_point_projections(c, sym), K_PHASORS):
        if mm == m:
            i, rem = divmod(samples * f, 3)
            zero = _k_modulus(phasors, p)
            rows.append((i + 1, period * f / 3, zero) if rem else (i, None, zero))
    return sorted(rows, key=lambda row: row[0])


def line_numerators(sym, samples):
    """(across, along, den): grid point i of line m, of samples a period, in integers.

    Its bond j = 0, 1 has the phase 2 pi (m across_j + i along_j) / den
    relative to bond 2, den = C B samples: the points of band_blocks and of
    the oracle's Bloch spectrum.
    """
    c, b, qp = sym.c, sym.b, sym.q_prime
    cc, bb, w = inner(c, c), inner(b, b), inner(c, sym.omega)
    across = tuple(samples * ((c[j] - c[2]) * bb - qp * w * (b[j] - b[2])) for j in (0, 1))
    along = tuple(qp * cc * (b[j] - b[2]) for j in (0, 1))
    return across, along, cc * bb * samples


def band_blocks(c, sym, m, samples, p):
    """Both bands of line m on a uniform kappa grid over one period, BLOCK grid points at a time.

    Yields (key, kappa, E_minus, E_plus), lists of Python floats.  The grid,
    period * i / samples for i < samples, is the same on every line, and key
    is the index of its block; callers can share the work of a block between
    lines by key.  An on-line K point that is a grid point gives its row
    the K modulus; one off the grid is added at its kappa, so that conical
    touchings appear in the table, and a block that holds it has key None.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    period = kappa_period(sym, p.a)
    k_rows = _k_rows(c, sym, m, samples, p)
    across, along, den = line_numerators(sym, samples)
    size = min(samples, BLOCK)
    for lo in range(0, samples, BLOCK):
        hi = min(lo + BLOCK, samples)
        kappa = [period * i / samples for i in range(lo, hi)]
        nums = [m * x + lo * s for x, s in zip(across, along)]
        mod = _moduli(nums, along, den, hi - lo, size, p)
        key = lo // BLOCK
        # an added kk follows grid point i - 1; last first keeps the order
        for i, kk, zero in reversed(k_rows):
            if kk is None:
                if lo <= i < hi:
                    mod[i - lo] = zero
            elif lo < i <= hi:
                kappa.insert(i - lo, kk)
                mod.insert(i - lo, zero)
                key = None
        yield key, kappa, [p.epsilon - v for v in mod], [p.epsilon + v for v in mod]


def band_table(c, sym, m, samples, p):
    """band_blocks of line m joined into one BandTable of array columns."""
    columns = (array("d"), array("d"), array("d"))
    for _, *blocks in band_blocks(c, sym, m, samples, p):
        for column, block in zip(columns, blocks):
            column.extend(block)
    return BandTable(tuple(c), m, *columns)
