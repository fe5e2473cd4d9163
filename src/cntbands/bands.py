"""Analytic spectra: graphene dispersion and zone-folded nanotube bands.

The two-band dispersion E+-(k) = eps +- |sum_j gamma_j e^{i k_j a}|, with
gamma_j the hopping of the bond along axis j, lives on the sum-zero k-plane
and extends periodically to all of R^3.  Rolling into a tube keeps only the
family of straight k-lines with <k, c> in (2 pi / a) Z; each line is indexed
by a rotation quantum number m and parametrized by the screw coordinate
kappa.  The band gap is twice the minimum of the modulus over that family;
it vanishes exactly when the lines pass through the conical K points, i.e.
when c0 - c1 is a multiple of 3.  Every bond carries one real hopping gamma;
an axial magnetic field enters as the phases gamma_j = gamma e^{i beta c_j a}
and acts as a rigid shift k -> k + beta c of the lines.  The gap search
samples no grid: it starts on the two lines next to each zero of the
hopping sum (a Dirac point, moved rigidly to K - beta c by flux).

A band line needs only three phasors a point, so band tables and the gap
search are computed in Python floats and loading this module does not load
numpy; only the vectorized modulus the oracle uses imports it, inside its
body.  The gap search measures k from the hopping zero: with
w_j = gamma e^{i K_j a} summing to zero, the modulus is
|sum_j w_j (e^{i delta_j a} - 1)|, delta = k - K, which keeps its relative
precision as k nears K, and each seed's line offset comes from integers.
"""

import cmath
import math
from array import array
from bisect import bisect
from dataclasses import dataclass

from .geom import inner
from .honeycomb import bond_length_scale
from .tube import is_metallic, validate_chirality

A_DEFAULT = bond_length_scale(1.44)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 64  # band_gap's bracket shrinks by 0.618^64 ~ 4e-14
HALF_K_DISTANCE = math.sqrt(2.0) * math.pi / 3.0  # a |K - K'| / 2 for neighbouring K, K'
K_TURN = math.acos(-0.5)  # K a = (K_TURN, -K_TURN, 0), K' = -K

# 2 pi as a ratio of integers, within 1e-31: the double 2 pi, 884279719003555 / 2^47,
# plus the double nearest the rest, 4967757600021511 / 2^104 = 2.4492935982947064e-16
TWO_PI_RATIO = (884279719003555 * 2 ** 57 + 4967757600021511, 2 ** 104)

# bound on |beta| in flux periods: each phase beta c_j a is then below 2^10 pi
# rad and rounds by less than 1e-12 rad
MAX_FLUX_PERIODS = 2 ** 10

BLOCK = 4096  # grid points a band block holds: bounds what band tables and their CSV hold


@dataclass(frozen=True)
class BandParams:
    """Onsite energy, the one real hopping gamma > 0, length scale, and an axial field.

    field, when set, is the (beta, c) of an axial magnetic field: the bond
    along axis j then carries gamma e^{i beta c_j a}, and band_gap reads the
    flux from beta and c exactly instead of from the rounded phases.  The
    constructor stores it as a float and a validated chirality.
    """

    epsilon: float = 0.0
    gamma: float = 1.0
    a: float = A_DEFAULT
    field: tuple = None

    def __post_init__(self):
        if not self.a > 0 or math.isinf(self.a):
            raise ValueError(f"scale a must be positive and finite, got {self.a}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if isinstance(self.gamma, complex) or not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be real, positive and finite, got {self.gamma}")
        if self.field is not None:
            beta, c = float(self.field[0]), validate_chirality(self.field[1])
            check_beta(beta, c, self.a)
            object.__setattr__(self, "field", (beta, c))

    @property
    def hoppings(self):
        """(gamma_0, gamma_1, gamma_2): gamma, or gamma e^{i beta c_j a} under the field.

        rect(1, x) is the cos + i sin numpy's exp(1j x) gives.
        """
        if self.field is None:
            return (self.gamma,) * 3
        beta, c = self.field
        return tuple(self.gamma * cmath.rect(1.0, beta * cj * self.a) for cj in c)


def uniform_params(gamma=1.0, epsilon=0.0, a=A_DEFAULT):
    """The zero-field tube, or the flat graphene sheet."""
    return BandParams(epsilon, gamma, a)


def magnetic_params(gamma, beta, c, a=A_DEFAULT, epsilon=0.0):
    """An axial field beta: the dispersion at k is the zero-field one at k + beta c."""
    return BandParams(epsilon, gamma, a, (beta, c))


def _modulus(k0, k1, k2, p):
    """|gamma_0 e^{i k0 a} + gamma_1 e^{i k1 a} + gamma_2 e^{i k2 a}|, vectorized."""
    import numpy as np

    g0, g1, g2 = p.hoppings
    f = (g0 * np.exp(1j * np.asarray(k0) * p.a)
         + g1 * np.exp(1j * np.asarray(k1) * p.a)
         + g2 * np.exp(1j * np.asarray(k2) * p.a))
    return np.abs(f)


def dispersion(k, p):
    """The eigenvalue pair (E_minus, E_plus) at a k triple."""
    m = float(_modulus(k[0], k[1], k[2], p))
    return (p.epsilon - m, p.epsilon + m)


def graphene_E(k, gamma=1.0, a=A_DEFAULT):
    """Uniform-hopping magnitude gamma * sqrt(3 + 2 sum of difference cosines).

    Defined for arbitrary real triples via the periodic extension; invariant
    under a common shift of all components and under 2 pi / a steps.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    k0, k1, k2 = k
    s = (3.0 + 2.0 * math.cos((k0 - k1) * a) + 2.0 * math.cos((k1 - k2) * a)
         + 2.0 * math.cos((k2 - k0) * a))
    return gamma * math.sqrt(max(s, 0.0))


def special_points(a=A_DEFAULT):
    """Gamma, the six K vertices, and the six M edge midpoints of the zone."""
    u = 2.0 * math.pi / (3.0 * a)
    h = math.pi / (3.0 * a)
    k_base = ((u, -u, 0.0), (u, 0.0, -u), (0.0, u, -u))
    m_base = ((2.0 * h, -h, -h), (-h, 2.0 * h, -h), (-h, -h, 2.0 * h))
    ks = tuple(p for b in k_base for p in (b, tuple(-x for x in b)))
    ms = tuple(p for b in m_base for p in (b, tuple(-x for x in b)))
    return {"Gamma": (0.0, 0.0, 0.0), "K": ks, "M": ms}


def kappa_period(sym, a=A_DEFAULT):
    """Length 2 pi q' / a of one screw-coordinate period of a band line."""
    return 2.0 * math.pi * sym.q_prime / a


def _line(sym, m, a):
    """Line m as its point x c and the map kappa -> y: its points are k = x c + y b.

    The one formula for the allowed-line family; m, and the kappa the map
    takes, may be arrays.
    """
    x = 2.0 * math.pi * m / (a * inner(sym.c, sym.c))
    shift, bb = x * sym.q_prime * inner(sym.c, sym.omega), inner(sym.b, sym.b)
    return tuple(x * ci for ci in sym.c), lambda kappa: (kappa - shift) / bb


def _line_k(sym, m, kappa, a):
    """Components of k = x c + y b on line m at screw coordinate kappa; arrays broadcast."""
    origin, to_y = _line(sym, m, a)
    y = to_y(kappa)
    return tuple(o + y * bi for o, bi in zip(origin, sym.b))


def _line_moduli(origin, direction, ts, p):
    """_modulus at k = origin + t direction for each t of a block ts, as a list of Python floats.

    One list comprehension a block, which callers keep to BLOCK points.  The
    phases and sums are formed in _modulus's order; rect(1, k a) is the
    cos + i sin that numpy's exp(1j k a) gives.  abs, libm's hypot, rounds
    apart from numpy's complex abs in the last bit of a few values.
    """
    (o0, o1, o2), (d0, d1, d2) = origin, direction
    g0, g1, g2 = map(complex, p.hoppings)
    a, rect = p.a, cmath.rect
    return [abs(g0 * rect(1.0, (o0 + t * d0) * a) + g1 * rect(1.0, (o1 + t * d1) * a)
                + g2 * rect(1.0, (o2 + t * d2) * a)) for t in ts]


def _k_points(a):
    """K, K' = +-(t, -t, 0) / a, t = K_TURN: _gap_seeds's zeros at zero field, bit for bit."""
    t = K_TURN
    return [(t / a, -t / a, 0.0), (-t / a, t / a, 0.0)]


def k_point_projections(c, sym, a=A_DEFAULT):
    """(m, kappa) coordinates of the K points that lie on allowed lines.

    Empty for semiconducting tubes.  K and K' lie on lines
    m = +-(c0 - c1) / 3, taken mod n in integers.  Each kappa before
    reduction is zero or at least 2 pi q' / (3 a) from zero, so it never
    rounds up to the period.
    """
    if not is_metallic(c):
        return []
    line = (c[0] - c[1]) // 3
    return [(s * line % sym.n, sym.q_prime * inner(kp, sym.omega) % kappa_period(sym, a))
            for s, kp in zip((1, -1), _k_points(a))]


@dataclass(frozen=True)
class BandTable:
    """Sampled conduction/valence pair of one m-band, as columns of doubles."""

    c: tuple
    m: int
    kappa: array
    E_minus: array
    E_plus: array


def _injected(c, sym, m, samples, a):
    """(i, kappa) of the K projections on line m that band_blocks adds, in kappa order.

    i >= 1 counts the grid points at or below kappa.  A projection within
    1e-9 of a period of a grid point or of one added before is left out.
    """
    period = kappa_period(sym, a)

    def grid(j):
        return period * j / samples

    added = []
    for mm, kk in k_point_projections(c, sym, a):
        if mm == m:
            i = bisect(range(samples), kk, key=grid)  # grid(0) = 0 <= kk
            near = [grid(j) for j in (i - 1, i) if j < samples] + [k for _, k in added]
            if all(abs(g - kk) > 1e-9 * period for g in near):
                added.append((i, kk))
    return sorted(added)


def band_blocks(c, sym, m, samples, p):
    """Both bands of line m on a uniform kappa grid over one period, BLOCK grid points at a time.

    Yields (key, kappa, E_minus, E_plus), lists of Python floats.  The grid,
    period * i / samples for i < samples, is the same on every line, and key
    is the index of its block; callers can share the work of a block between
    lines by key.  Exact kappa projections of on-line K points are added so
    that conical touchings appear in the table even off-grid; a block that
    holds one has key None.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    period = kappa_period(sym, p.a)
    added = _injected(c, sym, m, samples, p.a)
    origin, to_y = _line(sym, m, p.a)
    for lo in range(0, samples, BLOCK):
        hi = min(lo + BLOCK, samples)
        kappa = [period * i / samples for i in range(lo, hi)]
        key = lo // BLOCK
        for i, kk in reversed(added):  # kk follows grid point i - 1; last first keeps the order
            if lo < i <= hi:
                kappa.insert(i - lo, kk)
                key = None
        mod = _line_moduli(origin, sym.b, map(to_y, kappa), p)
        yield key, kappa, [p.epsilon - v for v in mod], [p.epsilon + v for v in mod]


def band_table(c, sym, m, samples, p):
    """band_blocks of line m joined into one BandTable of array columns."""
    columns = (array("d"), array("d"), array("d"))
    for _, *blocks in band_blocks(c, sym, m, samples, p):
        for column, block in zip(columns, blocks):
            column.extend(block)
    return BandTable(tuple(c), m, *columns)


@dataclass(frozen=True)
class GapResult:
    """Band gap with its minimizing line point and the counting-rule verdict."""

    gap: float
    argmin_k: tuple
    argmin_m: int
    metallic_by_theorem: bool


def _gap_seeds(c, p):
    """(zero, w, line, offset) of the four lines next to the two hopping zeros.

    A field (beta, c_f) puts the zeros at K - beta c_f, K' - beta c_f (beta = 0
    without one).  w_j = gamma e^{i K_j a}, which sum to zero, and the seed,
    line's point nearest the zero, is zero + offset step c.  With the flux
    fraction phi = beta a <c_f, c> / 2 pi, the offsets of the lines next to
    m = +-(c0 - c1) / 3 - phi come from integer ratios, rounded once.
    """
    beta, c_f = p.field or (0.0, c)
    (bn, bd), (an, ad) = beta.as_integer_ratio(), float(p.a).as_integer_ratio()
    # m = sign (c0 - c1) / 3 - phi = num / (3 unit), exact but for 2 pi's 1e-31
    unit = bd * ad * TWO_PI_RATIO[0]
    flux = 3 * bn * an * inner(c_f, c) * TWO_PI_RATIO[1]  # 3 unit phi
    for sign in (1, -1):
        k_a = (sign * K_TURN, -sign * K_TURN, 0.0)
        # beta c_f wrapped by whole lattice steps, which move m by multiples of n
        zero = tuple((x - math.remainder(beta * cj * p.a, 2.0 * math.pi)) / p.a
                     for x, cj in zip(k_a, c_f))
        w = tuple(p.gamma * cmath.rect(1.0, x) for x in k_a)
        num = sign * (c[0] - c[1]) * unit - flux
        low = num // (3 * unit)
        for line in (low, low + 1):
            yield zero, w, line, (3 * unit * line - num) / (3 * unit)  # int / int rounds once


def _zero_modulus(w, x, d):
    """t -> |sum_j w_j (e^{i theta_j} - 1)|, theta = x + t d: the modulus at zero + theta / a.

    The w_j sum to zero, and e^{i theta} - 1 = 2i sin(theta / 2) e^{i theta / 2}
    = -2 sin^2(theta / 2) + i sin(theta) keeps its relative precision as
    theta -> 0; so does the modulus near the zero.
    """
    (w0, w1, w2), (x0, x1, x2), (d0, d1, d2), sin = w, x, d, math.sin

    def modulus(t):
        t0, t1, t2 = x0 + t * d0, x1 + t * d1, x2 + t * d2
        h0, h1, h2 = sin(0.5 * t0), sin(0.5 * t1), sin(0.5 * t2)
        return abs(w0 * complex(-2.0 * h0 * h0, sin(t0)) + w1 * complex(-2.0 * h1 * h1, sin(t1))
                   + w2 * complex(-2.0 * h2 * h2, sin(t2)))
    return modulus


def _golden_min(f, half):
    """Midpoint of the final bracket of a golden-section search for f's minimum on [-half, half]."""
    lo, hi = -half, half
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_STEPS):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0


def band_gap(c, sym, p, resolution=None):
    """Minimize the modulus over all n allowed lines; gap is twice the minimum.

    Seeds: for each hopping zero K, with m = <K, c> a / 2 pi, the point of
    line M = floor(m), floor(m) + 1 nearest K.  A golden-section search in
    t, k = seed + t b / ||b||, on each; t = 0 is scored too, which makes
    metallic gaps exactly 0.0.  argmin_m is M mod n.  The counting-rule
    verdict is computed independently.  resolution is ignored (no grid is
    sampled); benchmarks/workloads.py still passes it.

    Precision: the offsets come from integers and the modulus is measured
    from the zero (_gap_seeds, _zero_modulus), so the gap holds its
    relative precision, about 1e-15, however small it is or large c is.

    The search rests on two assumptions: the global minimum lies on one of
    the lines M that bracket a hopping zero, and each seed's bracket
    |t| <= HALF_K_DISTANCE / a holds one minimum, the one golden-section
    search converges to.  benchmarks/reference.json, the gaps of all 10 860
    tubes with c0 <= 120, is their test.
    """
    c = validate_chirality(c)
    step = 2.0 * math.pi / (p.a * inner(c, c))  # x distance between neighbouring lines
    norm_b = math.sqrt(inner(sym.b, sym.b))
    axis = tuple(bj / norm_b for bj in sym.b)
    searched, scored = [], []
    for zero, w, line, offset in _gap_seeds(c, p):
        x = tuple(offset * step * cj for cj in c)  # the seed minus the zero
        modulus = _zero_modulus(w, [xj * p.a for xj in x], [aj * p.a for aj in axis])
        t = _golden_min(modulus, HALF_K_DISTANCE / p.a)
        scored.append((modulus(0.0), zero, x, 0.0, line))
        searched.append((modulus(t), zero, x, t, line))
    value, zero, x, t, line = min(scored + searched, key=lambda v: v[0])
    return GapResult(
        gap=2.0 * value,
        argmin_k=tuple(zj + xj + t * aj for zj, xj, aj in zip(zero, x, axis)),
        argmin_m=line % sym.n,
        metallic_by_theorem=is_metallic(c),
    )


def flux_period(c, a=A_DEFAULT):
    """Aharonov-Bohm period 2 pi / (a ||c||^2) of the field parameter beta."""
    return 2.0 * math.pi / (a * inner(c, c))


def check_beta(beta, c, a=A_DEFAULT):
    """Raise ValueError unless beta is finite and within MAX_FLUX_PERIODS flux periods.

    Beyond that bound the phases beta c_j a lose digits to rounding; far
    beyond it beta and beta plus a flux period are the same double.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if abs(beta) > MAX_FLUX_PERIODS * flux_period(c, a):
        raise ValueError(f"|beta| = {abs(beta)} exceeds {MAX_FLUX_PERIODS} flux periods "
                         f"of {flux_period(c, a)}")


def gap_vs_beta(c, sym, gamma, a, beta_grid, epsilon=0.0):
    """Band gap as a function of the axial field parameter beta."""
    out = []
    for beta in beta_grid:
        p = magnetic_params(gamma, beta, c, a, epsilon=epsilon)
        out.append((float(beta), band_gap(c, sym, p).gap))
    return out
