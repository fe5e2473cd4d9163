import csv
import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from cntbands import bands, cli, lines, oracle, tube
from cntbands.bands import A_DEFAULT as A
from cntbands.cli import main
from cntbands.honeycomb import nearest_neighbors, next_nearest_neighbors
from cntbands.tube import canonical_rep, tube_symmetry

GAP_5_0_5 = 0.7639320225002102
SRC = Path(cli.__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_classify_armchair(capsys):
    code, rep = run_json(capsys, ["classify", "--c", "4,-2,-2"])
    assert code == 0
    assert rep["class"] == "armchair"
    assert rep["metallic"] is True
    assert rep["n"] == 2 and rep["q"] == 4 and rep["q_prime"] == 2
    assert rep["c_prime"] == [2, -1, -1] and rep["b"] == [0, -1, 1]
    assert rep["omega"] == [-1, 0, 1] and rep["R"] == 6
    assert rep["diameter_angstrom"] == pytest.approx(2.7502, abs=1e-4)
    assert rep["delta"] == pytest.approx(2 * math.pi / (A * math.sqrt(24)), rel=1e-9)


def test_classify_zigzag(capsys):
    code, rep = run_json(capsys, ["classify", "--c", "5,0,-5"])
    assert code == 0
    assert rep["class"] == "zigzag"
    assert rep["metallic"] is False


def test_classify_invalid_suggests_canonical(capsys):
    code = main(["classify", "--c", "1,1,-2"])
    assert code == 2
    assert "(2, -1, -1)" in capsys.readouterr().err


def test_classify_json_schema(capsys):
    _, rep = run_json(capsys, ["classify", "--c", "4,-1,-3"])
    types = {"c": list, "class": str, "n": int, "c_prime": list, "R": int,
             "b": list, "q": int, "q_prime": int, "omega": list, "delta": float,
             "diameter_angstrom": float, "metallic": bool}
    assert set(rep) == set(types)
    for key, typ in types.items():
        assert isinstance(rep[key], typ), key


def test_bands_csv(tmp_path):
    out = tmp_path / "bands.csv"
    code = main(["bands", "--c", "4,-2,-2", "--resolution", "64",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "kappa", "E_minus", "E_plus"]
    sym = tube_symmetry((4, -2, -2))
    # a K point off the grid adds a row
    added = [f for _, f in lines.k_point_projections((4, -2, -2), sym) if 64 * f % 3]
    assert len(rows) == sym.n * 64 + len(added) == sym.n * 64 + 2
    eplus = [float(r[3]) for r in rows]
    assert min(eplus) < 1e-9  # metallic: a band touches zero
    assert all(abs(float(r[2])) <= 3 + 1e-9 and abs(float(r[3])) <= 3 + 1e-9
               for r in rows)


def test_bands_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["bands", "--c", "5,0,-5", "--resolution", "64",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("epsilon,zero", [("0.0", "0"), ("-0.0", "-0")])
def test_bands_k_rows_keep_the_sign_of_epsilon(tmp_path, epsilon, zero):
    # at epsilon = +-0.0 E_minus is printed as "-" and the modulus' text, except at K, where the
    # modulus is 0.0 and E_minus stays %.12g of epsilon - 0.0
    out = tmp_path / "bands.csv"
    c = (3, 0, -3)
    assert main(["bands", "--c", "3,0,-3", f"--epsilon={epsilon}", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[2:] for r in rows if r[3] == "0"] == [[zero, "0"]] * 2
    sym, p = tube_symmetry(c), lines.uniform_params(1.0, float(epsilon), A)
    want = [["%.12g" % lo, "%.12g" % hi] for m in range(sym.n)
            for *_, e_minus, e_plus in lines.band_blocks(c, sym, m, 4096, p)
            for lo, hi in zip(e_minus, e_plus)]
    assert [r[2:] for r in rows] == want


def test_gap_metallic(capsys):
    code, rep = run_json(capsys, ["gap", "--c", "4,-2,-2"])
    assert code == 0
    assert rep["gap"] == 0.0
    assert rep["metallic_by_theorem"] is True
    assert rep["beta"] == 0.0


def test_gap_regression_constant(capsys):
    code, rep = run_json(capsys, ["gap", "--c", "5,0,-5"])
    assert code == 0
    assert rep["gap"] == pytest.approx(GAP_5_0_5, abs=1e-6)
    assert rep["metallic_by_theorem"] is False
    assert len(rep["argmin_k"]) == 3 and isinstance(rep["argmin_m"], int)


def test_gap_with_flux(capsys):
    beta = math.pi / (A * 24)  # half-period for ||c||^2 = 24
    code, rep = run_json(capsys, ["gap", "--c", "4,-2,-2", "--beta", str(beta)])
    assert code == 0
    assert rep["gap"] > 0.1
    assert rep["beta"] == beta


def test_magsweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["magsweep", "--c", "4,-2,-2", "--samples", "5",
                 "--resolution", "256", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["beta", "gap"]
    gaps = [float(r[1]) for r in rows]
    assert len(rows) == 5
    assert gaps[0] < 1e-9
    assert abs(gaps[0] - gaps[-1]) < 1e-8
    assert all(g >= 0 for g in gaps)


def test_graphene_path_default(tmp_path):
    out = tmp_path / "path.csv"
    code = main(["graphene-path", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["arclength", "k0", "k1", "k2", "E_minus", "E_plus"]
    arcs = [float(r[0]) for r in rows]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    eplus = [float(r[5]) for r in rows]
    assert eplus[0] == pytest.approx(3.0, abs=1e-9)  # starts and ends at Gamma
    assert eplus[-1] == pytest.approx(3.0, abs=1e-9)
    assert min(eplus) == pytest.approx(0.0, abs=1e-9)  # passes through K
    assert any(abs(e - 1.0) < 1e-9 for e in eplus)  # passes through M


@pytest.mark.parametrize("argv", [["--samples", "8"], ["--path", "K,G,M,K,G", "--samples", "500"],
                                  ["--path", "K,M,G,K", "--samples", "9000", "--epsilon", "0.25",
                                   "--gamma", "1.5"]])
def test_graphene_path_k_rows_are_exactly_epsilon(tmp_path, argv):
    # a row on the K waypoint is a hopping zero: its modulus is exactly 0.0, not rounding
    out = tmp_path / "path.csv"
    assert main(["graphene-path", *argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    options = dict(zip(argv[::2], argv[1::2]))
    eps = float(options.get("--epsilon", 0.0))
    k_point = ["%.12g" % x for x in lines.special_points()["K"][0]]
    k_rows = [r for r in rows if r[1:4] == k_point]
    assert len(k_rows) == options.get("--path", "G,K,M,G").count("K")
    assert all(float(r[4]) == float(r[5]) == eps for r in k_rows)


def test_graphene_path_bad_label(capsys):
    assert main(["graphene-path", "--path", "G,X"]) == 2


@pytest.mark.parametrize("path", ["G,G", "K,M,M"])
def test_graphene_path_repeated_label(capsys, path):
    assert main(["graphene-path", "--path", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "repeats label" in captured.err


@pytest.mark.parametrize("samples", ["-5", "0", "1"])
def test_graphene_path_too_few_samples(capsys, samples):
    assert main(["graphene-path", f"--samples={samples}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"samples must be >= 2, got {samples}" in captured.err


def test_verify_pass(capsys):
    code, rep = run_json(capsys, ["verify", "--c", "4,-2,-2", "--periods", "6"])
    assert code == 0
    assert rep["passed"] is True
    assert rep["dimension"] == 48
    assert rep["max_deviation"] < 1e-8


def test_verify_magnetic(capsys):
    beta = 0.1 / A
    code, rep = run_json(capsys, ["verify", "--c", "5,0,-5", "--periods", "4",
                                  "--beta", str(beta)])
    assert code == 0
    assert rep["passed"] is True


@pytest.mark.parametrize("c,periods", [("5,0,-5", 4), ("25,-7,-18", 1)], ids=["h1", "h499"])
@pytest.mark.parametrize("flux", [0.0, 0.3], ids=["plain", "flux"])
def test_verify_fails_on_one_perturbed_hopping(monkeypatch, capsys, c, periods, flux):
    # gamma_0 scaled by 1 + 1e-10 in the finite build alone must fail the derived bound on
    # 1 x 1 and 499 x 499 blocks, real without a field and complex under it
    beta = flux * lines.flux_period(tuple(map(int, c.split(","))), A)
    argv = ["verify", "--c", c, "--periods", str(periods), f"--beta={beta!r}"]
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["passed"] is True
    build = oracle.build_hamiltonian

    def perturbed(tube, p):
        h0, h1, h2 = p.hoppings
        return build(tube, SimpleNamespace(hoppings=(h0 * (1 + 1e-10), h1, h2), field=p.field))

    monkeypatch.setattr(oracle, "build_hamiltonian", perturbed)
    code, rep = run_json(capsys, argv)
    assert code == 1 and rep["passed"] is False
    assert rep["max_deviation"] >= rep["tolerance"]


def test_neighbors(capsys):
    code, rep = run_json(capsys, ["neighbors", "--v", "0,0,0"])
    assert code == 0
    assert len(rep["nearest"]) == 3
    assert len(rep["next_nearest"]) == 6
    assert rep["nu"] == 1


def test_neighbors_with_chirality(capsys):
    code, rep = run_json(capsys, ["neighbors", "--v", "4,-2,-2", "--c", "4,-2,-2"])
    assert code == 0
    assert rep["class"] == [0, 0, 0]
    expected = sorted([list(canonical_rep(v, (4, -2, -2)))
                       for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    assert sorted(rep["nearest"]) == expected


def test_neighbors_invalid_site(capsys):
    assert main(["neighbors", "--v", "1,1,0"]) == 2


def python_class(v, c):
    """Canonical representative of v + Zc in Python ints, which never overflow."""
    j = sum(x * y for x, y in zip(v, c)) // sum(x * x for x in c)
    return [x - j * y for x, y in zip(v, c)]


@pytest.mark.parametrize("v,c", [
    ((2 ** 30, 1, -2 ** 30), (2 ** 30, 0, -2 ** 30)),
    ((2 ** 30, -2 ** 30, 0), (2 ** 30, -2 ** 29, -2 ** 29)),
    ((-2 ** 30, 2 ** 30, 1), (4, -2, -2)),
    ((1, 0, 0), (2 ** 30, -1, 1 - 2 ** 30)),
])
def test_neighbors_exact_at_coordinate_bound(capsys, v, c):
    assert max(map(abs, v + c)) == tube.MAX_COORD
    code, rep = run_json(capsys, ["neighbors", "--v=" + ",".join(map(str, v)),
                                  "--c=" + ",".join(map(str, c))])
    assert code == 0
    rep_v = python_class(v, c)
    assert rep["class"] == rep_v
    assert rep["nearest"] == [python_class(x, c) for x in nearest_neighbors(rep_v)]
    assert rep["next_nearest"] == [python_class(x, c) for x in next_nearest_neighbors(rep_v)]


@pytest.mark.parametrize("v,c", [
    ((2 ** 30 + 1, 0, -2 ** 30), (4, -2, -2)),
    ((1, 0, 0), (2 ** 30 + 1, 0, -2 ** 30 - 1)),
    ((2 ** 62, -2 ** 62, 0), (4, -2, -2)),
    ((10 ** 20, -10 ** 20, 0), (4, -2, -2)),
])
def test_neighbors_beyond_coordinate_bound_rejected(capsys, v, c):
    assert main(["neighbors", "--v=" + ",".join(map(str, v)),
                 "--c=" + ",".join(map(str, c))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "within" in captured.err
    # without --c only Python ints are involved, and the bound does not apply
    code, rep = run_json(capsys, ["neighbors", "--v=" + ",".join(map(str, v))])
    assert code == 0 and rep["nearest"] == [list(x) for x in nearest_neighbors(v)]


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 2.0, "resolution": 256}))
    _, rep = run_json(capsys, ["gap", "--c", "5,0,-5", "--config", str(cfg)])
    assert rep["gap"] == pytest.approx(2 * GAP_5_0_5, abs=2e-6)
    _, rep = run_json(capsys, ["gap", "--c", "5,0,-5", "--config", str(cfg),
                               "--gamma", "1.0"])
    assert rep["gap"] == pytest.approx(GAP_5_0_5, abs=1e-6)


@pytest.mark.parametrize("values", [
    {"resolution": 100.5},
    {"resolution": True},
    {"gamma": True},
    {"gamma": "1.0"},
    {"bond_length": "1.44"},
    {"out": 5},
    {"out": ["bands.csv"]},
], ids=lambda v: "-".join(f"{k}={v[k]!r}" for k in v))
def test_config_rejects_mistyped_values(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main(["bands", "--c", "4,-2,-2", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


@pytest.mark.parametrize("key", ["gamma", "epsilon", "bond_length"])
def test_config_rejects_integers_beyond_the_float_range(tmp_path, capsys, key):
    # math.isfinite(10**400) raises OverflowError, which once escaped as exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
    assert main(["gap", "--c", "5,0,-5", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must lie within the float range")
    # an integer the float range holds is taken as before
    cfg.write_text(json.dumps({"gamma": 10 ** 30}))
    code, rep = run_json(capsys, ["gap", "--c", "5,0,-5", "--config", str(cfg)])
    assert code == 0 and rep["gap"] == pytest.approx(10 ** 30 * GAP_5_0_5, rel=1e-6)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamme": 2.0}))
    assert main(["gap", "--c", "5,0,-5", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", ["{bad", "5", "null"])
def test_config_must_be_a_json_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["gap", "--c", "5,0,-5", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config file")


def test_missing_config_is_an_io_failure(tmp_path, capsys):
    assert main(["gap", "--c", "5,0,-5", "--config", str(tmp_path / "none.json")]) == 3
    assert capsys.readouterr().err.startswith("error: FileNotFoundError")


def test_bad_gamma_rejected(capsys):
    assert main(["gap", "--c", "5,0,-5", "--gamma", "-1"]) == 2


def test_tol_option_removed(tmp_path, capsys):
    # verify derives its pass bound; neither a flag nor a config key sets it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--c", "5,0,-5", "--tol", "1e-8"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-8}))
    assert main(["verify", "--c", "5,0,-5", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown config keys: ['tolerance']" in captured.err


def test_format_option_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--c", "5,0,-5", "--format", "json"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    assert main(["gap", "--c", "5,0,-5", "--config", str(cfg)]) == 2


INVALID_INPUT = {
    ("gap", "--c", "5,0,-5", "--gamma", "nan"): "gamma must be finite, got nan",
    ("gap", "--c", "5,0,-5", "--gamma", "inf"): "gamma must be finite, got inf",
    ("gap", "--c", "5,0,-5", "--epsilon", "inf"): "epsilon must be finite, got inf",
    ("gap", "--c", "5,0,-5", "--epsilon", "nan"): "epsilon must be finite, got nan",
    ("gap", "--c", "5,0,-5", "--bond-length", "nan"): "bond_length must be finite, got nan",
    ("gap", "--c", "5,0,-5", "--beta", "nan"): "beta must be finite, got nan",
    ("verify", "--c", "5,0,-5", "--beta", "inf"): "beta must be finite, got inf",
    ("gap", "--c", "5,0,-5", "--bond-length", "0"): "bond-length must be positive",
    ("gap", "--c", "a,b,c"): "expected comma-separated integers, got 'a,b,c'",
    ("gap", "--c", "1,2"): "expected three components, got '1,2'",
    ("magsweep", "--c", "5,0,-5", "--samples", "1"): "samples must be >= 2, got 1",
    ("magsweep", "--c", "5,0,-5", "--periods", "0"): "periods must be >= 1, got 0",
    ("graphene-path", "--path", "G"): "path needs at least two labels",
    ("verify", "--c", "5,0,-5", "--periods", "0"): "periods must be >= 1, got 0",
}


@pytest.mark.parametrize("argv", INVALID_INPUT)
def test_invalid_number_rejected(capsys, argv):
    # invalid numbers, and the input checks of --c, --samples, --periods and --path
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {INVALID_INPUT[argv]}\n"


def test_beta_bounded_by_flux_periods(monkeypatch, capsys):
    c = (4, -2, -2)
    bound = lines.MAX_FLUX_PERIODS * lines.flux_period(c, A)
    beyond = math.nextafter(bound, math.inf)
    for beta in (bound, -bound):
        # a whole number of flux periods: the metallic tube stays gapless
        code, rep = run_json(capsys, ["gap", "--c", "4,-2,-2", "--beta", repr(beta)])
        assert code == 0 and rep["gap"] < 1e-9
        assert main(["verify", "--c", "4,-2,-2", "--periods", "3", "--beta", repr(beta)]) == 0
        capsys.readouterr()
        for command in ("gap", "verify"):
            over = repr(math.copysign(beyond, beta))
            assert main([command, "--c", "4,-2,-2", "--beta", over]) == 2
            assert "flux periods" in capsys.readouterr().err
    bands.magnetic_params(1.0, bound, c, A)  # at the bound: accepted
    with pytest.raises(ValueError, match="flux periods"):
        bands.magnetic_params(1.0, beyond, c, A)
    assert main(["gap", "--c", "4,-2,-2", "--beta", "1e300"]) == 2
    assert main(["magsweep", "--c", "4,-2,-2", "--periods", "1025", "--samples", "2"]) == 2
    # magsweep's last beta is periods flux periods
    argv = ["magsweep", "--c", "5,0,-5", "--resolution", "64", "--samples", "2"]
    monkeypatch.setattr(lines, "MAX_FLUX_PERIODS", 2)
    assert main(argv + ["--periods", "2"]) == 0
    assert main(argv + ["--periods", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ["gap", "--c", "4,-2,-2", "--gamma", "1e308"],
    ["verify", "--c", "4,-2,-2", "--gamma", "1e308"],
    ["bands", "--c", "4,-2,-2", "--epsilon=-1.7976931348623157e308", "--gamma", "1e300"],
])
def test_overflowing_band_energies_rejected(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize("command", ["gap", "bands", "verify"])
def test_gamma_below_its_bound_rejected(command, capsys):
    # below 2^-970 band values turn subnormal: gap/gamma of (4,-1,-3) read 0.75 at 4e-323
    assert cli.MIN_GAMMA == 2.0 ** -970
    argv = [command, "--c", "4,-1,-3", "--resolution", "64"]
    for gamma in (math.nextafter(cli.MIN_GAMMA, 0.0), 4e-323, 1e-320, 5e-324):
        assert main(argv + ["--gamma", repr(gamma)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma must be at least 2^-970" in captured.err


@pytest.mark.parametrize("c", ["4,-1,-3", "7,-3,-4", f"{2 ** 30},0,{-2 ** 30}",
                               f"{2 ** 30},-1,{1 - 2 ** 30}"])
def test_gap_at_the_gamma_bound_scales_exactly(c, capsys):
    # 2^-970 is a power of two and its band values stay normal: gap / gamma is the gamma = 1
    # gap bit for bit
    _, unit = run_json(capsys, ["gap", "--c", c])
    code, rep = run_json(capsys, ["gap", "--c", c, "--gamma", repr(cli.MIN_GAMMA)])
    assert code == 0 and rep["gap"] / cli.MIN_GAMMA == unit["gap"]


def test_bands_and_verify_at_the_gamma_bound(tmp_path, capsys):
    argv = ["--c", "4,-1,-3", "--resolution", "64"]
    tables = []
    for gamma in ("1", repr(cli.MIN_GAMMA)):
        out = tmp_path / f"bands-{gamma}.csv"
        assert main(["bands", *argv, "--gamma", gamma, "--out", str(out)]) == 0
        tables.append(read_csv(out)[1])
    unit, tiny = ([float(v) for row in rows for v in row[2:]] for rows in tables)
    # the printed 12 digits of the scaled values round apart
    assert [v / cli.MIN_GAMMA for v in tiny] == pytest.approx(unit, rel=1e-11, abs=0.0)
    code, rep = run_json(capsys, ["verify", *argv, "--gamma", repr(cli.MIN_GAMMA)])
    assert code == 0 and rep["passed"] and rep["max_deviation"] < 1e-13 * cli.MIN_GAMMA


def test_largest_finite_band_energies_accepted(capsys):
    # |epsilon| + 3 gamma = 1.5e308: every printed number stays finite
    code, rep = run_json(capsys, ["verify", "--c", "4,-2,-2", "--gamma", "5e307"])
    assert code == 0 and rep["passed"]
    code, rep = run_json(capsys, ["gap", "--c", "5,0,-5", "--gamma", "5e307"])
    assert code == 0 and rep["gap"] == pytest.approx(GAP_5_0_5 * 5e307)


@pytest.mark.parametrize("command", [["classify", "--c", "4,-2,-2"], ["bands", "--c", "4,-2,-2"],
                                     ["gap", "--c", "4,-2,-2"], ["graphene-path"]])
def test_bond_length_scale_bounded(command, capsys):
    # a subnormal bond length: 2 pi / a overflows; 1e-300: (2 pi / a)^2 does
    for bond in ("1e-320", "1e-300", "3e-308", "1e155"):
        assert main(command + ["--bond-length", bond, "--resolution", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bond-length" in captured.err
    assert main(command + ["--bond-length", "4e-154", "--resolution", "64"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_oversized_verify_rejected_before_allocating(capsys):
    t0 = time.perf_counter()
    assert main(["verify", "--c", "60,59,-119"]) == 2
    assert time.perf_counter() - t0 < 2.0
    assert "exceeds" in capsys.readouterr().err


def test_verify_checks_dimension_before_hoppings(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_gap_params", None)  # must not be reached
    assert main(["verify", "--c", "60,59,-119"]) == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "bands", "verify"])
def test_squared_norm_beyond_float_rejected(command, capsys):
    # ||c||^2 is about 2e310: its float lengths would overflow
    c = f"{10 ** 155},1,{-10 ** 155 - 1}"
    assert main([command, "--c", c]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "float range" in captured.err


@pytest.mark.parametrize("command", ["bands"])
def test_oversized_grid_rejected_before_sampling(command, capsys):
    t0 = time.perf_counter()
    assert main([command, "--c", "1000000,0,-1000000"]) == 2
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and "exceed" in captured.err


@pytest.mark.parametrize("argv", [
    ["magsweep", "--c", "5,0,-5", "--samples", "1000000"],
    ["magsweep", "--c", "5,0,-5", "--periods", "1000000000000"],
    ["graphene-path", "--samples", "100000000"],
])
def test_oversized_sweep_rejected_before_sampling(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and "exceed" in captured.err


def test_sweep_budget_is_inclusive(monkeypatch, capsys):
    # the default sweep: 201 betas, whatever the tube
    assert 201 <= cli.MAX_BETAS
    argv = ["magsweep", "--c", "5,0,-5", "--samples", str(cli.MAX_BETAS + 1)]
    assert main(argv) == 2
    assert "exceed" in capsys.readouterr().err
    # 2 periods of 3 samples: 2 * (3 - 1) + 1 = 5 betas
    argv = ["magsweep", "--c", "5,0,-5", "--periods", "2", "--samples", "3"]
    monkeypatch.setattr(cli, "MAX_BETAS", 5)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5
    monkeypatch.setattr(cli, "MAX_BETAS", 4)
    assert main(argv) == 2
    # graphene-path samples 300 points by default
    monkeypatch.setattr(cli, "MAX_GRID", 300)
    assert main(["graphene-path"]) == 0
    monkeypatch.setattr(cli, "MAX_GRID", 299)
    assert main(["graphene-path"]) == 2


@pytest.mark.parametrize("command", ["bands"])
def test_grid_budget_is_inclusive(command, monkeypatch, capsys):
    # (5,0,-5) has n = 5 lines of 64 points: 320 band points
    argv = [command, "--c", "5,0,-5", "--resolution", "64"]
    monkeypatch.setattr(cli, "MAX_GRID", 320)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MAX_GRID", 319)
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["gap", "--c", "5,0,-5"],
    ["magsweep", "--c", "5,0,-5", "--samples", "2"],
    ["verify", "--c", "5,0,-5"],
    ["classify", "--c", "5,0,-5"],
    ["neighbors", "--v", "0,0,1"],
    ["graphene-path"],
], ids=lambda argv: argv[0])
def test_resolution_ignored_outside_bands(argv, tmp_path, capsys):
    # only bands samples a grid; every other command accepts --resolution and ignores it
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--resolution", "10"]) == 0
    assert capsys.readouterr().out == plain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 10}))
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


def test_bands_resolution_bound(capsys):
    assert main(["bands", "--c", "5,0,-5", "--resolution", "63"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "resolution must be >= 64" in captured.err
    assert main(["bands", "--c", "5,0,-5", "--resolution", "64"]) == 0


@pytest.mark.parametrize("c", ["1073741825,0,-1073741825", "1073741824,1,-1073741825"])
def test_gap_coordinate_bound(c, capsys):
    # one past tube.MAX_COORD = 2**30: rejected before any gap is searched
    for command in (["gap"], ["magsweep", "--samples", "2"]):
        t0 = time.perf_counter()
        assert main(command + ["--c", c]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == "" and str(tube.MAX_COORD) in captured.err


@pytest.mark.parametrize("c,code", [
    # ||c||^2 = 1.62e308 fits a float; the kappa period 2 pi q' / a does not
    pytest.param(f"{9 * 10 ** 153},1,{-9 * 10 ** 153 - 1}", 2, id="9e153"),
    pytest.param("1073741824,1,-1073741825", 2, id="past-bound"),  # tube.MAX_COORD = 2**30
    pytest.param("1073741824,-1,-1073741823", 0, id="at-bound"),
])
def test_bands_coordinate_bound(c, code, capsys):
    assert main(["bands", "--c", c, "--resolution", "64"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert str(tube.MAX_COORD) in captured.err
    else:
        assert len(captured.out.splitlines()) == 1 + 64
        assert "nan" not in captured.out and "inf" not in captured.out


def test_gap_at_coordinate_bound(capsys):
    # the zigzag (N, 0, -N) at N = MAX_COORD: gap 2 min_m |1 + 2 cos(pi m / N)|
    n = tube.MAX_COORD
    # pi m / N = 2 pi / 3 + d at m = 715827883: 1 + 2 cos = 2 sin^2(d / 2) - sqrt(3) sin d
    d = math.pi * (3 * 715827883 - 2 * n) / (3 * n)
    want = 2 * abs(2 * math.sin(d / 2) ** 2 - math.sqrt(3) * math.sin(d))
    code, rep = run_json(capsys, ["gap", "--c", f"{n},0,-{n}"])
    assert code == 0 and rep["gap"] == pytest.approx(want, abs=1e-15)
    assert main(["magsweep", "--c", f"{n},0,-{n}", "--samples", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx([want, want], abs=1e-15)
    # a chiral tube at the bound: its gap is the modulus at the reported point
    code, rep = run_json(capsys, ["gap", "--c", f"{n - 1},1,-{n}"])
    assert code == 0 and 0 < rep["gap"] < 1e-8
    p = bands.uniform_params(1.0, 0.0, A)
    assert rep["gap"] == pytest.approx(2 * bands.dispersion(rep["argmin_k"], p)[1], abs=1e-15)


def test_unexpected_error_exits_3_not_1(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("no room")

    monkeypatch.setattr(oracle, "compare_spectra", exhausted)
    assert main(["verify", "--c", "4,-2,-2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: MemoryError")


def test_verify_dimension_error_is_input_error(monkeypatch, capsys):
    def oversized(*args, **kwargs):
        raise oracle.DimensionError("matrix dimension 8192 exceeds 4096")

    monkeypatch.setattr(oracle, "compare_spectra", oversized)
    assert main(["verify", "--c", "4,-2,-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: matrix dimension")


@pytest.mark.parametrize("stderr", [subprocess.STDOUT, subprocess.PIPE], ids=["merged", "apart"])
def test_closed_output_pipe_exits_3(stderr):
    # bands prints ~1.5 MB, more than a pipe buffer holds; the reader takes one line and
    # closes the pipe, as head -1 does.  Exit 1 is reserved for a failed verification, and
    # a failed last flush would exit 120 and print "Exception ignored"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, "-m", "cntbands.cli", "bands", "--c", "8,0,-8"],
                          env=env, stdout=subprocess.PIPE, stderr=stderr) as proc:
        assert proc.stdout.readline() == b"m,kappa,E_minus,E_plus\n"
        proc.stdout.close()
        err = proc.stderr.read() if proc.stderr else b""
        assert proc.wait(timeout=60) == 3
    assert b"Exception ignored" not in err
    assert err == (b"error: BrokenPipeError: [Errno 32] Broken pipe\n" if proc.stderr else b"")


def modules_after(statement, *argv):
    """Names in sys.modules after a fresh interpreter runs statement, sys.argv[1:] = argv."""
    code = f"import sys\n{statement}\nprint(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stderr.split())


@functools.cache  # one interpreter per command line, shared by the import tests
def modules_after_main(*argv):
    return modules_after("from cntbands.cli import main\nassert main(sys.argv[1:]) == 0", *argv)


@pytest.mark.parametrize("argv", [["classify", "--c", "7,-3,-4"], ["neighbors", "--v", "0,0,1"]],
                         ids=lambda argv: argv[0])
def test_integer_commands_run_without_numpy(argv):
    loaded = modules_after_main(*argv)
    assert "cntbands.tube" in loaded and "numpy" not in loaded


EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ("classify", "--c", "5,0,-5"),
    ("bands", "--c", "5,0,-5", "--resolution", "64"),
    ("gap", "--c", "5,0,-5"),
    ("magsweep", "--c", "5,0,-5", "--samples", "2"),
    ("graphene-path", "--samples", "8"),
    ("verify", "--c", "5,0,-5"),
    ("neighbors", "--v", "0,0,1", "--c", "4,-2,-2"),
], ids=lambda argv: argv[0])


@EVERY_COMMAND
def test_only_verify_loads_the_oracle(argv):
    loaded = modules_after_main(*argv)
    assert "cntbands.cli" in loaded
    assert ("cntbands.oracle" in loaded) == (argv[0] == "verify")


@EVERY_COMMAND
def test_only_the_gap_search_and_oracle_load_numpy(argv):
    # the gap search runs in Python floats now: of all commands only verify's oracle loads numpy
    loaded = modules_after_main(*argv)
    assert ("numpy" in loaded) == (argv[0] == "verify")


@EVERY_COMMAND
def test_only_the_gap_search_and_oracle_load_dataclasses(argv):
    # GapResult and the oracle's records are the only dataclasses; dataclasses imports inspect
    loaded = modules_after_main(*argv)
    for name in ("dataclasses", "inspect"):
        assert (name in loaded) == (argv[0] in ("gap", "magsweep", "verify")), name


@EVERY_COMMAND
def test_only_json_commands_load_json(argv):
    loaded = modules_after_main(*argv)
    assert ("json" in loaded) == (argv[0] in ("classify", "gap", "verify", "neighbors"))


@EVERY_COMMAND
def test_no_command_loads_fractions_or_decimal(argv):
    # flux fractions and k-points are held as integer pairs: importing fractions
    # (with decimal and numbers) would add milliseconds to every gap
    loaded = modules_after_main(*argv)
    assert {"fractions", "decimal"} & loaded == set()


def test_config_file_loads_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"resolution": 64}')
    assert "json" in modules_after_main("bands", "--c", "5,0,-5", "--config", str(config))


@pytest.mark.parametrize("c,resolution,n", [("2,1,-3", 262144, 1), ("4,-2,-2", 131072, 2)])
def test_bands_memory_is_bounded(tmp_path, c, resolution, n):
    # Holding each line's columns whole, as arrays of doubles, peaked at 33.1 (n = 1) and
    # 32.7 (n = 2) bytes a row on these runs.  A line held whole as Python floats costs
    # 32 bytes a line row, 32 / n a row, and as strings more.  Blocks hold one block of
    # rows plus the shared kappa column, one joined string a block, ~15 bytes a line row.
    import tracemalloc

    out = str(tmp_path / "bands.csv")
    assert main(["bands", "--c", c, "--resolution", "64", "--out", out]) == 0  # imports done
    tracemalloc.start()
    try:
        assert main(["bands", "--c", c, "--resolution", str(resolution), "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * resolution) < 16.0


def test_gap_with_flux_runs_without_numpy():
    loaded = modules_after_main("gap", "--c", "7,-3,-4", "--beta", "0.01")
    assert "numpy" not in loaded and "cntbands.oracle" not in loaded


def test_dispersion_and_band_gap_load_no_numpy():
    loaded = modules_after("from cntbands import bands\n"
                           "from cntbands.tube import tube_symmetry\n"
                           "c = (7, -3, -4)\n"
                           "p = bands.magnetic_params(1.5, 0.01, c)\n"
                           "res = bands.band_gap(c, tube_symmetry(c), p)\n"
                           "bands.dispersion(res.argmin_k, p)")
    assert "cntbands.bands" in loaded and "numpy" not in loaded


@pytest.mark.parametrize("c,periods,samples,bond", [
    ((4, -2, -2), 1, 201, 1.44), ((5, 0, -5), 3, 33, 1.44), ((7, -3, -4), 2, 7, 0.9),
    ((1073741824, 0, -1073741824), 1, 1000, 1.44)])
def test_magsweep_betas_are_numpy_linspace(monkeypatch, capsys, c, periods, samples, bond):
    # the printed beta column is numpy's linspace; each gap is taken at the exact flux
    # i * periods / (total - 1) of row i
    import numpy as np

    fluxes, printed = [], []

    def record(c, sym, gamma, a, flux, epsilon):
        fluxes.extend(flux)
        return [0.0] * len(flux)

    def csv(header, blocks):
        for row_format, (betas, gaps) in blocks:
            printed.extend(betas)
            yield row_format % (betas[0], gaps[0])

    monkeypatch.setattr(bands, "gap_vs_beta", record)
    monkeypatch.setattr(cli, "_csv", csv)
    assert main(["magsweep", "--c", ",".join(map(str, c)), "--periods", str(periods),
                 "--samples", str(samples), "--bond-length", str(bond)]) == 0
    capsys.readouterr()
    total = periods * (samples - 1) + 1
    stop = periods * lines.flux_period(c, cli.RunConfig(bond_length=bond).a)
    want = np.linspace(0.0, stop, total)
    assert [repr(b) for b in printed] == [repr(float(b)) for b in want]
    assert fluxes == [(i * periods, total - 1) for i in range(total)]


def test_magsweep_is_gapless_at_every_whole_period(capsys):
    # a metallic tube at a whole number of flux periods; the float beta of a whole
    # period had left it 7.22216944169e-17 off
    for periods in (1, 3):
        assert main(["magsweep", "--c", "4,-2,-2", "--samples", "33",
                     "--periods", str(periods)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 32 * periods + 1
        assert [rows[32 * k].split(",")[1] for k in range(periods + 1)] == ["0"] * (periods + 1)
        assert all(float(row.split(",")[1]) > 0.0 for i, row in enumerate(rows) if i % 32)


def test_package_import_loads_no_module():
    loaded = modules_after("import cntbands")
    assert "cntbands" in loaded
    assert {name for name in loaded if name.startswith("cntbands.")} == set()
