"""Tests of the benchmark's own input generators and output checks."""

import contextlib
import dataclasses
import io
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refgaps  # noqa: E402
import workloads as W  # noqa: E402
from cntbands import bands, cli, oracle, tube  # noqa: E402

P = bands.uniform_params(1.0, 0.0, W.A)


def first_rounds(cls, seed, monkeypatch, n=3):
    monkeypatch.setattr(cls, "warm_up", lambda self: None)
    return list(itertools.islice(cls(seed, trace=False).rounds(), n))


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("cls", list(W.WORKLOADS.values()))
def test_same_seed_same_inputs(cls, monkeypatch):
    assert first_rounds(cls, 7, monkeypatch) == first_rounds(cls, 7, monkeypatch)
    assert first_rounds(cls, 7, monkeypatch) != first_rounds(cls, 8, monkeypatch)


def test_reference_table_matches_generator():
    table = refgaps.load()
    assert set(table) == set(refgaps.survey_pool())
    for c in [(5, 0, -5), (7, -3, -4), (20, -9, -11), (56, 55, -111)]:
        assert table[c] == pytest.approx(refgaps.ref_gap(c), abs=1e-9)


@pytest.mark.parametrize("c", [(5, 0, -5), (7, -3, -4), (10, -5, -5), (20, -9, -11)])
def test_reference_agrees_with_program_on_small_tubes(c):
    res = bands.band_gap(c, tube.tube_symmetry(c), P)
    assert W.check_gap(c, res, refgaps.ref_gap(c), P)


def test_doctored_gap_counts_as_failure():
    c = (7, -3, -4)
    res = bands.band_gap(c, tube.tube_symmetry(c), P)
    ref = refgaps.ref_gap(c)
    assert W.check_gap(c, res, ref, P)
    assert not W.check_gap(c, dataclasses.replace(res, gap=res.gap + 1e-5), ref, P)
    assert not W.check_gap(c, dataclasses.replace(res, metallic_by_theorem=True), ref, P)
    k = tuple(x + 0.05 for x in res.argmin_k[:2]) + (res.argmin_k[2] - 0.1,)
    assert not W.check_gap(c, dataclasses.replace(res, argmin_k=k), ref, P)


def test_seed_resolution_defect_is_a_gap_survey_failure():
    """(56,55,-111) is in the pool; the seed program's gap 0.0755 must fail against 0.0377."""
    c = (56, 55, -111)
    assert c in refgaps.survey_pool()
    ref = refgaps.load()[c]
    assert ref == pytest.approx(0.0377322484, abs=1e-9)
    seed_output = bands.GapResult(gap=0.07546216756732575, argmin_k=(0.0, 0.0, 0.0),
                                  argmin_m=0, metallic_by_theorem=False)
    assert not W.check_gap(c, seed_output, ref, P)


def test_doctored_csv_counts_as_failure():
    c = (5, -1, -4)
    item = ("bands", c)
    code, text = cli_output(["bands", "--c", "5,-1,-4"])
    assert W.check_cli(item, code, text)
    lines = text.split("\n")
    m, kappa, lo, hi = lines[7].split(",")
    changed = "\n".join(lines[:7] + [f"{m},{kappa},{float(lo) + 1e-9!r},{hi}"] + lines[8:])
    assert not W.check_cli(item, code, changed)
    assert not W.check_cli(item, code, "\n".join(lines[:7] + lines[8:]))
    assert not W.check_cli(item, code, text.replace(",", ";"))
    assert not W.check_cli(item, 3, text)


@pytest.mark.parametrize("kind", ["gap", "classify"])
def test_doctored_json_counts_as_failure(kind):
    item = (kind, (7, -3, -4))
    code, text = cli_output([kind, "--c", "7,-3,-4"])
    assert W.check_cli(item, code, text)
    key = "gap" if kind == "gap" else "q"
    doctored = text.replace(f'"{key}": ', f'"{key}": 1', 1)
    assert doctored != text and not W.check_cli(item, code, doctored)
    assert not W.check_cli(item, code, text[:-3])
    assert not W.check_cli(item, 2, text)


def test_doctored_oracle_verdict_counts_as_failure():
    c, periods = (4, -1, -3), 2
    rep = oracle.compare_spectra(c, tube.tube_symmetry(c), periods, P, tol=W.ORACLE_TOL)
    assert W.check_report(c, periods, rep)
    assert not W.check_report(c, periods, dataclasses.replace(rep, passed=False))
    finite = rep.finite.copy()
    finite[3] += 1e-6
    assert not W.check_report(c, periods, dataclasses.replace(rep, finite=finite))
    assert not W.check_report(c, periods + 1, rep)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "gap-survey",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
