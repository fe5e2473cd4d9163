"""Band gaps: the sheet dispersion and the gap search over a tube's k-lines.

The band lines, their parameters and the exact band-point kernel live in
`lines`, whose docstring states the model; this module re-exports
band_table and uniform_params from it.  The band gap is twice the minimum
of the modulus over the n allowed lines; it vanishes exactly when they pass
through the conical K points, i.e. when c0 - c1 is a multiple of 3.  An
axial field, the phases gamma_j = gamma e^{i beta c_j a}, shifts the lines
rigidly, k -> k + beta c.  The gap search samples no grid: it starts on the
two lines next to each zero of the hopping sum (a Dirac point, moved to
K - beta c by flux) and measures k from that zero.  With w_j = gamma
e^{i K_j a} summing to zero, the modulus is |sum_j w_j (e^{i delta_j a} - 1)|,
delta = k - K, which keeps its relative precision as k nears K, and each
seed's line offset comes from integers.  Everything here runs in Python
floats; loading or running it does not load numpy.
"""

import cmath
import math
from dataclasses import dataclass

from .geom import inner
from .lines import A_DEFAULT, K_TURN, band_table, magnetic_params, uniform_params  # noqa: F401
from .tube import is_metallic, validate_chirality

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 64  # band_gap's bracket shrinks by 0.618^64 ~ 4e-14
HALF_K_DISTANCE = math.sqrt(2.0) * math.pi / 3.0  # a |K - K'| / 2 for neighbouring K, K'

# 2 pi as a ratio of integers, within 1e-31: the double 2 pi, 884279719003555 / 2^47,
# plus the double nearest the rest, 4967757600021511 / 2^104 = 2.4492935982947064e-16
TWO_PI_RATIO = (884279719003555 * 2 ** 57 + 4967757600021511, 2 ** 104)


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


def gap_vs_beta(c, sym, gamma, a, beta_grid, epsilon=0.0):
    """Band gap as a function of the axial field parameter beta."""
    out = []
    for beta in beta_grid:
        p = magnetic_params(gamma, beta, c, a, epsilon=epsilon)
        out.append((float(beta), band_gap(c, sym, p).gap))
    return out
