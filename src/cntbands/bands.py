"""Band gaps: the sheet dispersion and the gap search over a tube's k-lines.

The band lines, their parameters and the exact band-point kernel live in
`lines`, whose docstring states the model; this module re-exports
band_table and uniform_params from it.  The band gap is twice the minimum
of the modulus over the n allowed lines; it vanishes exactly when they pass
through the conical K points, i.e. when c0 - c1 is a multiple of 3.  An
axial field of phi flux periods shifts the lines rigidly, k a / 2 pi -> k a
/ 2 pi + phi c / <c, c>.  The gap search samples no grid: it starts on the
two lines next to each zero of the hopping sum (a Dirac point, moved by
flux) and measures k from that zero.  With w_j = gamma e^{i K_j a} summing
to exactly zero, the modulus is |sum_j w_j (e^{i delta_j a} - 1)|, delta =
k - K, which keeps its relative precision as k nears K.  The seeds are
integers over one denominator, so the gap is exactly periodic in phi.  All
of it runs in Python floats and integers, without numpy.
"""

import cmath
import math
from dataclasses import dataclass

from .geom import inner
from .lines import (A_DEFAULT, K_PHASORS, TWO_PI_RATIO, BandParams, band_table,  # noqa: F401
                    magnetic_params, uniform_params)
from .tube import is_metallic, validate_chirality

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 64  # band_gap's bracket shrinks by 0.618^64 ~ 4e-14
HALF_K_DISTANCE = math.sqrt(2.0) * math.pi / 3.0  # a |K - K'| / 2 for neighbouring K, K'


def dispersion(k, p):
    """The eigenvalue pair (E_minus, E_plus) at an arbitrary k triple."""
    m = abs(sum(h * cmath.rect(1.0, kj * p.a) for h, kj in zip(p.hoppings, k)))
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


@dataclass(frozen=True)
class GapResult:
    """Band gap with its minimizing line point and the counting-rule verdict."""

    gap: float
    argmin_k: tuple
    argmin_m: int
    metallic_by_theorem: bool


def _gap_seeds(c, p):
    """(w, line, seed, x, den) of the four lines next to the two hopping zeros.

    In units of 2 pi / a, a field of phi periods through tube c_f puts the
    zeros at K - phi c_f / <c_f, c_f> and K' - phi c_f / <c_f, c_f>, K = (1,
    -1, 0) / 3 = -K' (phi = 0 without one); each component is reduced mod 1,
    a lattice step.  w_j = gamma e^{i K_j a}, gamma times K_PHASORS, sum to
    exactly zero.  line is one of the two lines <k, c> = line next to the
    zero, and seed, its point nearest the zero, is zero + x, x = (line -
    <zero, c>) c / <c, c>: seed and x are integer triples over den.
    """
    (num, den_f), c_f = p.field or ((0, 1), c)
    unit, cc = 3 * den_f * inner(c_f, c_f), inner(c, c)
    for sign, (k0, k1) in zip((1, -1), K_PHASORS):
        w = (p.gamma * k0, p.gamma * k1, p.gamma)
        zero = [sign * e * unit // 3 - 3 * num * cj for e, cj in zip((1, -1, 0), c_f)]
        zero = [z - unit * ((2 * z + unit) // (2 * unit)) for z in zero]  # over unit
        m = inner(zero, c)
        low = m // unit
        for line in (low, low + 1):
            x = [(unit * line - m) * cj for cj in c]
            yield w, line, [z * cc + xj for z, xj in zip(zero, x)], x, unit * cc


def _angle(num, den):
    """2 pi num / den radians for integers num and den > 0, rounded once."""
    return num * TWO_PI_RATIO[0] / (den * TWO_PI_RATIO[1])


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

    Seeds: for each hopping zero z, with m = <z, c> a / 2 pi, the point of
    line M = floor(m), floor(m) + 1 nearest z.  A golden-section search in
    t, k = seed + t b / ||b||, on each; t = 0 is scored too, which makes
    metallic gaps exactly 0.0, at any whole number of flux periods too.
    argmin_m is M mod n.  The counting-rule verdict is computed
    independently.  resolution is ignored (no grid is sampled);
    benchmarks/workloads.py still passes it.

    Precision: the seeds come from integers and the modulus is measured
    from the zero (_gap_seeds, _zero_modulus), so the gap holds its
    relative precision, about 1e-15, however small it is or large c is.

    The search rests on two assumptions: the global minimum lies on one of
    the lines M that bracket a hopping zero, and each seed's bracket
    |t| <= HALF_K_DISTANCE / a holds one minimum, the one golden-section
    search converges to.  benchmarks/reference.json, the gaps of all 10 860
    tubes with c0 <= 120, is their test.
    """
    c = validate_chirality(c)
    norm_b = math.sqrt(inner(sym.b, sym.b))
    axis = tuple(bj / norm_b for bj in sym.b)
    searched, scored = [], []
    for w, line, seed, x, den in _gap_seeds(c, p):
        modulus = _zero_modulus(w, [_angle(xj, den) for xj in x], [aj * p.a for aj in axis])
        t = _golden_min(modulus, HALF_K_DISTANCE / p.a)
        scored.append((modulus(0.0), seed, den, 0.0, line))
        searched.append((modulus(t), seed, den, t, line))
    value, seed, den, t, line = min(scored + searched, key=lambda v: v[0])
    an, ad = float(p.a).as_integer_ratio()  # k = 2 pi seed / (den a), a = an / ad
    return GapResult(
        gap=2.0 * value,
        argmin_k=tuple(_angle(sj * ad, den * an) + t * aj for sj, aj in zip(seed, axis)),
        argmin_m=line % sym.n,
        metallic_by_theorem=is_metallic(c),
    )


def gap_vs_beta(c, sym, gamma, a, fluxes):
    """Band gaps at any epsilon under an axial field at each flux (num, den): num / den periods."""
    return [band_gap(c, sym, BandParams(0.0, gamma, a, (flux, c))).gap for flux in fluxes]
