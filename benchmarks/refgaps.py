"""Independent band-gap reference for the benchmark, and the script that writes it.

Nothing here imports cntbands.  The gap is recomputed from the closed form.
Write a wave vector as k = (2 pi / a) (u, v, 0); a common shift of the three
components changes no modulus, so every k in the sum-zero plane has such a
representative.  The uniform-hopping modulus is then
|e^{2 pi i u} + e^{2 pi i v} + 1|, periodic in u and v with period 1, and the
zone-folding condition <k, c> a in 2 pi Z reads c0 u + c1 v in Z.  On the unit
torus this is g = gcd(c0, c1) closed loops of winding (-c1/g, c0/g).  Each loop
is scanned on a grid whose size grows with the loop's length, which grows with
q'.  The lowest local minima are then refined by golden-section search on the
squared modulus.

Run `python3 benchmarks/refgaps.py` to regenerate `reference.json`.  It takes a
few minutes on one core.  The benchmark only reads the committed table.
"""

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

POINTS_PER_UNIT = 512   # grid points per unit of loop length on the torus
MIN_POINTS = 4096       # never coarser than the program's default grid
CANDIDATES = 32         # local minima refined per tube
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DIGITS = 10             # stored decimals; the checks allow 1e-6


def _bezout(x, y):
    """(g, s, t) with s*x + t*y == g == gcd(x, y) >= 0."""
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        r0, s0, t0 = -r0, -s0, -t0
    return r0, s0, t0


def norm2(c):
    return c[0] * c[0] + c[1] * c[1] + c[2] * c[2]


def is_metallic(c):
    """Zone-folding theorem: a K point lies on an allowed line iff 3 | c0 - c1."""
    return (c[0] - c[1]) % 3 == 0


def _loops(c):
    """Base points and common direction of the g allowed loops on the torus."""
    g, x0, y0 = _bezout(c[0], c[1])
    base = [((j * x0 / g) % 1.0, (j * y0 / g) % 1.0) for j in range(g)]
    return np.array(base), (-c[1] / g, c[0] / g)


def _mod2(u, v):
    f = np.exp(2j * np.pi * u) + np.exp(2j * np.pi * v) + 1.0
    return f.real * f.real + f.imag * f.imag


def min_modulus(c):
    """Minimum of the hopping-sum modulus over the allowed loops of tube c."""
    base, (du, dv) = _loops(c)
    npts = max(MIN_POINTS, math.ceil(POINTS_PER_UNIT * math.hypot(du, dv)))
    t = np.arange(npts) / npts
    u = base[:, :1] + du * t
    v = base[:, 1:] + dv * t
    y = _mod2(u, v)
    local = (y <= np.roll(y, 1, axis=1)) & (y <= np.roll(y, -1, axis=1))
    rows, cols = np.nonzero(local)
    order = np.argsort(y[rows, cols])[:CANDIDATES]
    rows, cols = rows[order], cols[order]
    h = 1.0 / npts
    lo, hi = t[cols] - h, t[cols] + h
    bu, bv = base[rows, 0], base[rows, 1]

    def f(tt):
        return _mod2(bu + du * tt, bv + dv * tt)

    a = hi - GOLDEN * (hi - lo)
    b = lo + GOLDEN * (hi - lo)
    fa, fb = f(a), f(b)
    while np.max(hi - lo) > 1e-13:
        left = fa < fb
        hi = np.where(left, b, hi)
        lo = np.where(left, lo, a)
        a_new = np.where(left, hi - GOLDEN * (hi - lo), b)
        b_new = np.where(left, a, lo + GOLDEN * (hi - lo))
        fa_new = np.where(left, f(a_new), fb)
        fb_new = np.where(left, fa, f(b_new))
        a, b, fa, fb = a_new, b_new, fa_new, fb_new
    return math.sqrt(max(float(min(fa.min(), fb.min())), 0.0))


def ref_gap(c):
    """Band gap 2 min|f| for unit hopping."""
    return 2.0 * min_modulus(c)


def cell_count(c):
    """q = ||c||^2 / R, the hexagons per translational cell; R = gcd of the differences."""
    return norm2(c) // math.gcd(math.gcd(c[1] - c[2], c[2] - c[0]), c[0] - c[1])


def ref_spectrum(c, periods):
    """Sorted zone-folded spectrum of a P-period segment, unit hopping.

    Closing the segment over P translations b = (c1 - c2, c2 - c0, c0 - c1)/R
    adds P (b0 u + b1 v) in Z.  Along a loop b0 u + b1 v falls by q' per unit
    of the loop parameter, so each loop holds P q' evenly spaced points.
    """
    r = math.gcd(math.gcd(c[1] - c[2], c[2] - c[0]), c[0] - c[1])
    b0, b1 = (c[1] - c[2]) / r, (c[2] - c[0]) / r
    base, (du, dv) = _loops(c)
    qp = cell_count(c) // len(base)
    steps = np.arange(periods * qp) / (periods * qp)
    t = ((base @ np.array([b0, b1]))[:, None] / qp + steps) % 1.0
    mod = np.sqrt(_mod2(base[:, :1] + du * t, base[:, 1:] + dv * t))
    return np.sort(np.concatenate([mod.ravel(), -mod.ravel()]))


def survey_pool():
    """Every valid chirality c0 > c1 >= c2, sum 0, with c0 <= 120."""
    return [(c0, c1, -c0 - c1) for c0 in range(1, 121)
            for c1 in range(-(c0 // 2), c0)]


def load():
    """The committed survey table as {c: gap}."""
    return {tuple(r[:3]): r[3] for r in json.loads(REFERENCE_FILE.read_text())["survey"]}


def main():
    survey = []
    for c in survey_pool():
        gap = ref_gap(c)
        if (gap < 1e-9) != is_metallic(c):
            raise SystemExit(f"reference disagrees with the metallicity theorem at {c}")
        survey.append([*c, round(gap, DIGITS)])
    table = {
        "about": "gap = 2 min |f| for unit hopping, from benchmarks/refgaps.py",
        "points_per_unit": POINTS_PER_UNIT,
        "min_points": MIN_POINTS,
        "survey": survey,
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
