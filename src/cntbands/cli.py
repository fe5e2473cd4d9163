"""Command-line front end: classify tubes, tabulate bands, sweep flux, verify.

Deterministic CSV/JSON output suitable for regression diffing.  Exit codes:
0 success, 1 verification failure, 2 invalid input, 3 any other
failure.  `verify` fails when its two spectra differ by the bound
`oracle.compare_spectra` derives from the block size and gamma.

Each command imports only what it computes with, so start-up costs no more
than the command needs: `classify` and `neighbors` run on integer
arithmetic, `bands` and `graphene-path` on `lines`, and `gap` and `magsweep`
on `bands`' gap search, all in Python floats and integers.  numpy and
`oracle` load for `verify` alone, `dataclasses` (with `inspect`) only for
`gap`, `magsweep` and `verify`, whose `GapResult` and `SpectrumReport` are
dataclasses, and `json` only for the commands that print JSON or read
--config.  A band point is the exact product of a line phasor and an offset
phasor, both reduced in integers (`lines`).  CSV is written in blocks of
lines.BLOCK rows, each formatted by one %; at epsilon = +-0.0 `bands`
formats each modulus once for both of its band columns.
"""

import argparse
import math
import os
import sys
from collections import namedtuple

from . import tube
from .geom import inner
from .honeycomb import bond_length_scale, is_site, nearest_neighbors, next_nearest_neighbors, nu

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# bound on the n * resolution band points of bands: 10.6 to 10.9 s at the bound
# (n = 1, --out to a file, 2-vCPU Xeon)
MAX_GRID = 2 ** 22
# bound on the betas of one magsweep: 7.4 to 10.5 s at the bound, 0.45 to 0.64 ms a gap,
# for (4,-2,-2), (7,-3,-4) and (2^30,0,-2^30) (whole process, 2-vCPU Xeon)
MAX_BETAS = 2 ** 14
# smallest gamma, 2^-970: gamma times the rounding unit 2^-52 stays a normal double, so band
# values keep their relative precision; below it they turn subnormal and wrong (gap/gamma of
# (4,-1,-3) read 0.75 at gamma = 4e-323 against 1.035)
MIN_GAMMA = sys.float_info.min / sys.float_info.epsilon


class RunConfig(namedtuple("RunConfig", "gamma epsilon bond_length resolution out")):
    __slots__ = ()

    def __new__(cls, gamma=1.0, epsilon=0.0, bond_length=1.44, resolution=4096, out=None):
        self = super().__new__(cls, gamma, epsilon, bond_length, resolution, out)
        for key in ("gamma", "epsilon", "bond_length"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a number, got {value!r}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                # math.isfinite would raise OverflowError on it
                raise ValueError(f"{key} must lie within the float range "
                                 f"+-{sys.float_info.max:.6g}")
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, int):
            raise ValueError(f"resolution must be an integer, got {self.resolution!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a file name, got {self.out!r}")
        if not self.gamma >= MIN_GAMMA:
            raise ValueError(f"gamma must be at least 2^-970 = {MIN_GAMMA:.6g}, got {self.gamma}")
        if self.bond_length <= 0:
            raise ValueError("bond-length must be positive")
        # squares of lengths and wave vectors (distances, inner products) must not
        # overflow or underflow to zero
        wave = 2.0 * math.pi / self.a
        if not (0 < self.a * self.a < math.inf and 0 < wave * wave < math.inf):
            raise ValueError(f"bond-length {self.bond_length} gives a scale a = {self.a}: "
                             f"the squares of a and 2 pi / a must be positive and finite")
        # the largest band value; gaps, tables and spectra stay below it
        if not math.isfinite(abs(self.epsilon) + 3.0 * self.gamma):
            raise ValueError(f"|epsilon| + 3 gamma = {abs(self.epsilon) + 3.0 * self.gamma} "
                             f"must be finite")
        return self

    @property
    def a(self):
        return bond_length_scale(self.bond_length)


class InputError(ValueError):
    pass


def _parse_triple(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc
    if len(parts) != 3:
        raise InputError(f"expected three components, got {text!r}")
    return parts


def _tube(args, max_coord=math.inf):
    """Validated chirality of --c, no coordinate beyond max_coord, and its symmetry record."""
    c = tube.validate_chirality(_parse_triple(args.c))
    # lengths, line spacings and flux periods are floats of ||c||^2
    if inner(c, c) > sys.float_info.max:
        raise InputError(f"the squared norm of --c exceeds the float range "
                         f"{sys.float_info.max:.6g}")
    if max(map(abs, c)) > max_coord:
        raise InputError(f"coordinates of --c must lie within +-{max_coord}")
    return c, tube.tube_symmetry(c)


def _load_config(args):
    keys = RunConfig._fields
    values = {}
    if args.config:
        import json

        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not text
                raise InputError(f"config file {args.config} is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError(f"config file {args.config} must hold a JSON object, "
                             f"got {type(raw).__name__}")
        unknown = set(raw) - set(keys)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _emit(chunks, cfg):
    """Write text chunks to --out, or to stdout."""
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json(obj):
    import json

    return (json.dumps(obj, indent=2) + "\n",)


def _csv(header, blocks):
    """CSV chunks: the header, then one chunk per (row_format, columns) block.

    The columns of a block are equal-length sequences of the values
    row_format takes, one a field; they are interleaved and formatted by one
    %.  Callers keep blocks to lines.BLOCK rows, which bounds what
    formatting holds.
    """
    yield ",".join(header) + "\n"
    for row_format, columns in blocks:
        width, rows = len(columns), len(columns[0])
        values = [None] * (width * rows)
        for j, column in enumerate(columns):
            values[j::width] = column
        yield (row_format * rows) % tuple(values)


def cmd_classify(args, cfg):
    c, sym = _tube(args)
    _emit(_json({
        "c": list(c),
        "class": tube.tube_class(c),
        "n": sym.n,
        "c_prime": list(sym.c_prime),
        "R": sym.R,
        "b": list(sym.b),
        "q": sym.q,
        "q_prime": sym.q_prime,
        "omega": list(sym.omega),
        "delta": sym.line_spacing(cfg.a),
        "diameter_angstrom": tube.diameter(c, cfg.a),
        "metallic": tube.is_metallic(c),
    }), cfg)
    return EXIT_OK


def cmd_bands(args, cfg):
    from . import lines

    # beyond MAX_COORD the kappa grid of 2 pi q' / a can overflow the float range
    c, sym = _tube(args, tube.MAX_COORD)
    if cfg.resolution < 64:
        raise InputError("resolution must be >= 64")
    if sym.n * cfg.resolution > MAX_GRID:  # before any line is sampled
        raise InputError(f"n * resolution = {sym.n * cfg.resolution} band points "
                         f"exceed {MAX_GRID}")
    p = lines.uniform_params(cfg.gamma, cfg.epsilon, cfg.a)

    # at epsilon = +-0.0, E_plus is the modulus v and E_minus is -v, and %.12g is symmetric in
    # sign: E_minus prints as "-" and E_plus's text, each modulus formatted once.  Where v = 0.0
    # that is "-0", E_minus at epsilon = -0.0 but not at +0.0, whose blocks holding a zero
    # format both columns.
    once = p.epsilon == 0.0
    negative = math.copysign(1.0, p.epsilon) < 0.0

    def blocks():  # one block of one line at a time
        kappa_text = {}  # grid block key -> its kappa column, formatted once for all n lines
        for m in range(sym.n):
            for key, kappa, e_minus, e_plus in lines.band_blocks(c, sym, m, cfg.resolution, p):
                text = kappa_text.get(key)
                if text is None:
                    text = ("%.12g\n" * len(kappa)) % tuple(kappa)
                    if key is not None and m + 1 < sym.n:
                        kappa_text[key] = text
                if once and (negative or 0.0 not in e_plus):
                    e_plus = e_minus = (("%.12g\n" * len(e_plus)) % tuple(e_plus)).split()
                    yield f"{m},%s,-%s,%s\n", (text.split(), e_minus, e_plus)
                else:
                    yield f"{m},%s,%.12g,%.12g\n", (text.split(), e_minus, e_plus)

    _emit(_csv(("m", "kappa", "E_minus", "E_plus"), blocks()), cfg)
    return EXIT_OK


def _gap_params(c, cfg, beta):
    from . import lines

    try:
        return lines.magnetic_params(cfg.gamma, beta, c, cfg.a, epsilon=cfg.epsilon)
    except ValueError as exc:  # beta not finite, or beyond the flux bound
        raise InputError(str(exc)) from exc


def cmd_gap(args, cfg):
    from . import bands

    # the gap's relative precision is tested against mpmath up to coordinates of MAX_COORD
    c, sym = _tube(args, tube.MAX_COORD)
    beta = args.beta or 0.0
    res = bands.band_gap(c, sym, _gap_params(c, cfg, beta))
    _emit(_json({
        "gap": res.gap,
        "argmin_m": res.argmin_m,
        "argmin_k": list(res.argmin_k),
        "metallic_by_theorem": res.metallic_by_theorem,
        "beta": beta,
    }), cfg)
    return EXIT_OK


def cmd_magsweep(args, cfg):
    from . import bands, lines

    c, sym = _tube(args, tube.MAX_COORD)
    if args.samples < 2:
        raise InputError(f"samples must be >= 2, got {args.samples}")
    if args.periods < 1:
        raise InputError(f"periods must be >= 1, got {args.periods}")
    total = args.periods * (args.samples - 1) + 1
    if total > MAX_BETAS:
        raise InputError(f"periods * (samples - 1) + 1 = {total} betas exceed {MAX_BETAS}")
    if args.periods > lines.MAX_FLUX_PERIODS:
        raise InputError(f"periods = {args.periods} exceed {lines.MAX_FLUX_PERIODS} flux periods")
    # prints numpy's linspace(0, stop, total) and the gaps at exact fluxes i periods / (total - 1)
    stop = args.periods * lines.flux_period(c, cfg.a)
    betas = [i * (stop / (total - 1)) for i in range(total - 1)] + [stop]
    gaps = bands.gap_vs_beta(c, sym, cfg.gamma, cfg.a,
                             [(i * args.periods, total - 1) for i in range(total)])
    rows = (betas, gaps)
    _emit(_csv(("beta", "gap"), (("%.12g,%.12g\n", [x[i:i + lines.BLOCK] for x in rows])
                                 for i in range(0, total, lines.BLOCK))), cfg)
    return EXIT_OK


def cmd_graphene_path(args, cfg):
    from . import lines

    if args.samples < 2:
        raise InputError(f"samples must be >= 2, got {args.samples}")
    if args.samples > MAX_GRID:
        raise InputError(f"samples = {args.samples} exceed {MAX_GRID}")
    waypoints = {lab: images[0] for lab, images in lines.special_points(cfg.a).items()}
    labels = [s.strip().upper() for s in args.path.split(",")]
    for lab in labels:
        if lab not in waypoints:
            raise InputError(f"unknown path label {lab!r}; use {', '.join(waypoints)}")
    if len(labels) < 2:
        raise InputError("path needs at least two labels")
    segs = list(zip(labels[:-1], labels[1:]))
    for la, lb in segs:
        if la == lb:
            raise InputError(f"path repeats label {la!r}: a segment needs two distinct ends")
    p = lines.uniform_params(cfg.gamma, cfg.epsilon, cfg.a)
    lengths = [math.dist(waypoints[a], waypoints[b]) for a, b in segs]
    total_len = sum(lengths)

    def blocks():  # one block of one segment at a time
        arc = 0.0
        for j, ((la, lb), seg_len) in enumerate(zip(segs, lengths)):
            start, ends = waypoints[la], (lines.WAYPOINTS[la], lines.WAYPOINTS[lb])
            direction = tuple(e - s for s, e in zip(start, waypoints[lb]))
            count = max(2, round(args.samples * seg_len / total_len))
            step = 1.0 / (count - 1)
            # numpy's linspace(0, 1, count): i * step, ending at exactly 1; a segment
            # after the first starts at i = 1, as its start was emitted
            for lo in range(1 if j else 0, count, lines.BLOCK):
                hi = min(lo + lines.BLOCK, count)
                ts = [i * step for i in range(lo, hi)]
                if hi == count:
                    ts[-1] = 1.0
                mod = lines.path_moduli(*ends, count, lo, hi, p)
                yield "%.12g," * 5 + "%.12g\n", (
                    [arc + t * seg_len for t in ts],
                    *([s + t * d for t in ts] for s, d in zip(start, direction)),
                    [p.epsilon - v for v in mod], [p.epsilon + v for v in mod])
            arc += seg_len

    _emit(_csv(("arclength", "k0", "k1", "k2", "E_minus", "E_plus"), blocks()), cfg)
    return EXIT_OK


def cmd_verify(args, cfg):
    from . import oracle

    c, sym = _tube(args)
    if args.periods < 1:
        raise InputError(f"periods must be >= 1, got {args.periods}")
    try:
        oracle._check_dimension(sym, args.periods)  # before the hoppings are built
        p = _gap_params(c, cfg, args.beta or 0.0)
        report = oracle.compare_spectra(c, sym, args.periods, p)
    except oracle.DimensionError as exc:
        raise InputError(str(exc)) from exc
    _emit(_json({
        "c": list(c),
        "periods": report.periods,
        "dimension": report.dimension,
        "max_deviation": report.max_deviation,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }), cfg)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_neighbors(args, cfg):
    v = _parse_triple(args.v)
    if not is_site(v):
        raise InputError(f"site {v} has coordinate sum {sum(v)}, expected 0 or 1")
    report = {"v": list(v), "nu": nu(v)}
    if args.c:
        c = tube.validate_chirality(_parse_triple(args.c))
        if max(map(abs, v + c)) > tube.MAX_COORD:
            raise InputError(f"with --c, coordinates of --v and --c must lie within "
                             f"+-{tube.MAX_COORD}")
        report["c"] = list(c)
        rep = tube.canonical_rep(v, c)
        report["class"] = list(rep)
        report["nearest"] = [list(x) for x in tube.class_neighbors(rep, c)]
        report["next_nearest"] = [list(x) for x in
                                  tube.class_next_nearest_neighbors(rep, c)]
    else:
        report["nearest"] = [list(x) for x in nearest_neighbors(v)]
        report["next_nearest"] = [list(x) for x in next_nearest_neighbors(v)]
    _emit(_json(report), cfg)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cntbands",
        description="Tight-binding band structure of graphene and carbon nanotubes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gamma", type=float, help="hopping energy (default 1.0)")
    common.add_argument("--epsilon", type=float, help="onsite energy (default 0.0)")
    common.add_argument("--bond-length", dest="bond_length", type=float,
                        help="C-C bond length in Angstrom (default 1.44)")
    common.add_argument("--resolution", type=int,
                        help="kappa samples per band line of bands (default 4096)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--config", help="JSON config file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", parents=[common],
                        help="symmetry data and metallicity of a tube")
    pc.add_argument("--c", required=True, help="chirality c0,c1,c2")
    pc.set_defaults(func=cmd_classify)

    pb = sub.add_parser("bands", parents=[common], help="sampled m-bands as CSV")
    pb.add_argument("--c", required=True)
    pb.set_defaults(func=cmd_bands)

    pg = sub.add_parser("gap", parents=[common], help="band gap report")
    pg.add_argument("--c", required=True)
    pg.add_argument("--beta", type=float, help="axial field parameter")
    pg.set_defaults(func=cmd_gap)

    pm = sub.add_parser("magsweep", parents=[common],
                        help="gap versus axial magnetic field as CSV")
    pm.add_argument("--c", required=True)
    pm.add_argument("--periods", type=int, default=1,
                    help="flux periods to sweep (default 1)")
    pm.add_argument("--samples", type=int, default=201,
                    help="samples per flux period (default 201)")
    pm.set_defaults(func=cmd_magsweep)

    pp = sub.add_parser("graphene-path", parents=[common],
                        help="sheet dispersion along special-point path as CSV")
    pp.add_argument("--path", default="G,K,M,G", help="labels from {G,K,M}")
    pp.add_argument("--samples", type=int, default=300)
    pp.set_defaults(func=cmd_graphene_path)

    pv = sub.add_parser("verify", parents=[common],
                        help="finite-matrix versus zone-folded spectrum")
    pv.add_argument("--c", required=True)
    pv.add_argument("--periods", type=int, default=1)
    pv.add_argument("--beta", type=float, help="axial field parameter")
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("neighbors", parents=[common],
                        help="neighbor sites or neighbor classes")
    pn.add_argument("--v", required=True, help="site v0,v1,v2")
    pn.add_argument("--c", help="optional chirality for class output")
    pn.set_defaults(func=cmd_neighbors)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (InputError, tube.ChiralityError) as exc:
        message, code = exc, EXIT_INPUT
    except Exception as exc:  # exit 1 is reserved for a failed verification
        message, code = f"{type(exc).__name__}: {exc}", EXIT_NUMERIC
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout: quiet the last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    try:
        print(f"error: {message}", file=sys.stderr)
    except BrokenPipeError:  # stderr is a closed pipe too; the exit code still says why
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
