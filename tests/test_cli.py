"""End-to-end checks of the command line: schemas, determinism, codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincavity
import spincavity.dynamics as dynamics
from spincavity import (
    BroadeningSpec,
    ConvergenceError,
    NumericalError,
    SystemParams,
    build_drift_matrix,
    discretize,
    gaussian_pole,
    initial_state,
    pole_seeds,
)
from spincavity import cli

from conftest import (
    dp45_covariance, expm_mean, fit_exponential_rate, lyapunov_oracle,
)

SIGMA_UNIT = math.sqrt(math.pi / 2.0)


def read_table(path):
    """Split one output file into (meta, columns, rows, trailing)."""
    meta, trailing, columns, rows = {}, {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            (trailing if columns is not None else meta)[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows, trailing


def cell(value):
    return float(value) if value else None


def run_cli(args):
    return cli.main([str(a) for a in args])


def source_env():
    """Environment in which a fresh interpreter imports this package."""
    package_root = str(Path(spincavity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def secular_solves(monkeypatch):
    """The model of each secular solve: each model of a first-layout
    ``dynamics._solve`` call."""
    solved, solve = [], dynamics._solve

    def counted(models, layout=0):
        if not layout:
            solved.extend(models)
        return solve(models, layout)

    monkeypatch.setattr(dynamics, "_solve", counted)
    return solved


def assert_columns_match(want_path, got_path):
    """Every data column within 1e-8 of its peak in ``want_path``."""
    want_rows, got_rows = (read_table(path)[2] for path in (want_path, got_path))
    for column in range(1, len(want_rows[0])):
        want = np.array([cell(row[column]) for row in want_rows])
        got = np.array([cell(row[column]) for row in got_rows])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


LOR_DECAY = [
    "decay", "--family", "lorentzian", "--width", "1.6", "--gamma-perp",
    "0.2", "--kappa", "8", "--g-ens", "2", "--m", "41", "--t-max", "4",
    "--t-samples", "9",
]

# a moments run short of its spin count (--n-spins)
TINY_SPINS = [
    "moments", "--family", "gaussian", "--normalize-gamma", "--gamma-perp", "0.5",
    "--m", "21", "--t-samples", "5", "--n-spins",
]


# one small, valid run per experiment, and the keys each one adds to
# its options: run-level header values and fitted/reference trailer values
SMALL = {
    "decay": [
        "decay", "--family", "gaussian", "--normalize-gamma", "--gamma-perp",
        "0", "--m", "201", "--t-max", "2", "--t-samples", "9",
    ],
    "moments": [
        "moments", "--family", "gaussian", "--normalize-gamma",
        "--gamma-perp", "0.02", "--t-max", "1", "--t-samples", "3",
    ],
    "spectrum": [
        "spectrum", "--family", "lorentzian", "--width", "1.6",
        "--gamma-perp", "0.2", "--kappa", "2", "--g-ens", "1", "--p", "-1",
        "--delta-e-min", "-5", "--delta-e-max", "5", "--delta-e-samples", "11",
    ],
    "stability-sweep": [
        "stability-sweep", "--family", "homogeneous", "--gamma-perp", "1",
        "--g-samples", "2", "--kappa-samples", "2",
    ],
    "pole": [
        "pole", "--family", "gaussian", "--normalize-gamma", "--gamma-perp",
        "0", "--kappa", "8", "--g-ens", "2",
    ],
}
# runs with every option of REJECTED at its default, so that a config
# line sets it
BARE = {
    "decay": ["decay", "--family", "lorentzian", "--width", "1.6"],
    "moments": ["moments", "--family", "homogeneous", "--gamma-perp", "1"],
    "spectrum": ["spectrum", "--family", "lorentzian", "--width", "1.6"],
    "stability-sweep": ["stability-sweep", "--family", "homogeneous",
                        "--gamma-perp", "1"],
    "pole": SMALL["pole"],
}
# (experiment, option, value) that exit 2: text that is not a number,
# and values each run rejects before it computes
REJECTED = [
    ("decay", "kappa", "abc"),
    ("stability-sweep", "g_samples", "abc"),
    ("decay", "t_max", "0"),
    ("moments", "t_samples", "1"),
    ("moments", "theta", "0"),
    ("spectrum", "delta_e_samples", "1"),
    ("spectrum", "delta_e_max", "-20"),  # the default --delta-e-min
]
ADDED_KEYS = {
    "decay": {"Gamma", "kick_response_fallbacks", "pole_rate_re", "pole_rate_im"},
    "moments": {"moment_fallbacks", "panel_f_ratio_sx", "panel_f_ratio_pc"},
    "spectrum": {"invalid_rows"},
    "stability-sweep": {"windowed_verdict", "kick_response_fallbacks"},
    "pole": set(),
}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        # a Lorentzian decay and a Gaussian moments run (the roots,
        # residues, folded steady state and variance track)
        gaussian_moments = SMALL["moments"][:-4] + ["--t-max", "6", "--t-samples", "61"]
        # and spectra of three writer blocks: an undephased line, whose
        # row at the spin resonance is singular and left empty, and an
        # inverted sample above threshold, whose rows are all empty
        long_spectrum = [
            "spectrum", "--family", "homogeneous", "--gamma-perp", "0",
            "--kappa", "2", "--g-ens", "1", "--delta-e-min", "-1",
            "--delta-e-max", "1", "--delta-e-samples", 2 * cli._BLOCK_ROWS + 1,
        ]
        for name, argv in [("decay", LOR_DECAY), ("moments", gaussian_moments),
                           ("spectrum", long_spectrum + ["--p", "-1"]),
                           ("amplifier", long_spectrum + ["--p", "1"])]:
            paths = [tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"]
            for path in paths:
                assert run_cli(argv + ["--out", path]) == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()
            first = (tmp_path / f"{name}-a.csv.manifest.json").read_bytes()
            second = (tmp_path / f"{name}-b.csv.manifest.json").read_bytes()
            assert first == second
        rows = 2 * cli._BLOCK_ROWS + 1
        for name, empty in (("spectrum", 1), ("amplifier", rows)):
            meta, _, table, _ = read_table(tmp_path / f"{name}-a.csv")
            assert int(meta["invalid_rows"]) == empty and len(table) == rows
            assert sum(row[1:] == [""] * 4 for row in table) == empty


    def test_decay_and_sweep_ignore_the_blas_thread_count(self, tmp_path):
        runs = {
            "decay": SMALL["decay"],
            "stability-sweep": [
                "stability-sweep", "--family", "gaussian", "--normalize-gamma",
                "--gamma-perp", "0", "--m", "61", "--g-samples", "3",
                "--kappa-samples", "3",
            ],
        }
        for threads in ("1", "2"):
            env = source_env()
            env["OPENBLAS_NUM_THREADS"] = threads
            for name, args in runs.items():
                result = subprocess.run(
                    [sys.executable, "-m", "spincavity", *args,
                     "--out", str(tmp_path / f"{name}-{threads}.csv")],
                    capture_output=True, text=True, env=env,
                )
                assert result.returncode == 0, result.stderr
        for name in runs:
            for suffix in (".csv", ".csv.manifest.json"):
                one = (tmp_path / f"{name}-1{suffix}").read_bytes()
                assert one == (tmp_path / f"{name}-2{suffix}").read_bytes()


class TestDecay:
    def test_schema_and_analytic_columns(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run_cli(LOR_DECAY + ["--out", out]) == 0
        meta, columns, rows, _ = read_table(out)
        assert columns == [
            "t", "X_c_sim", "X_c_lorentzian_analytic", "X_c_weak_coupling",
            "X_c_pole_tail",
        ]
        assert len(rows) == 9
        assert meta["family"] == "lorentzian"
        assert meta["Gamma"] == "1"
        # closed form defined for this family, Gaussian-only laws not
        assert all(row[2] != "" for row in rows)
        assert all(row[3] == "" and row[4] == "" for row in rows)
        sim = np.array([cell(row[1]) for row in rows])
        ref = np.array([cell(row[2]) for row in rows])
        # coarse grid (M=41) bounds sim-vs-closed-form agreement here;
        # fine-grid convergence is covered by the acceptance suite
        assert np.max(np.abs(sim - ref)) <= 5e-3 * np.abs(ref).max()

    def test_gaussian_run_fills_gaussian_columns(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = run_cli([
            "decay", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", "--kappa", "8", "--g-ens", "2",
            "--m", "201", "--t-max", "2", "--t-samples", "9", "--out", out,
        ])
        assert code == 0
        meta, columns, rows, trailing = read_table(out)
        assert all(row[2] == "" for row in rows)
        assert all(row[3] != "" for row in rows)
        # the pole tail is anchored at mid-window and filled onward
        anchored = [row[4] != "" for row in rows]
        assert anchored == [False] * 4 + [True] * 5
        assert "pole_rate_re" in trailing
        assert float(trailing["pole_rate_re"]) < 0
        assert float(meta["width"]) == pytest.approx(SIGMA_UNIT, rel=1e-12)

    def test_unconverged_pole_leaves_the_tail_empty(self, tmp_path,
                                                    monkeypatch):
        def unconverged(*args):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli, "gaussian_pole", unconverged)
        out = tmp_path / "decay.csv"
        assert run_cli(SMALL["decay"] + ["--out", out]) == 0
        _, _, rows, trailing = read_table(out)
        assert trailing == {"pole_tail": "unconverged"}
        assert all(row[4] == "" for row in rows)
        assert all(row[1] != "" and row[3] != "" for row in rows)

    @pytest.mark.parametrize("p, reason", [
        ("1", "seed outside the Faddeeva strip"),
        # the Gaussian laws are those of p = +1: neither prints at p = -1
        ("-1", "derived only for p +1 at delta_cs 0"),
    ], ids=["1", "-1"])
    def test_refused_pole_seed_leaves_the_tail_empty(self, tmp_path, p, reason):
        # at p = +1 the slow seed of this weakly coupled line maps outside
        # the evaluable Faddeeva strip, so gaussian_pole refuses it; the
        # kicked field still prints, and the weak-coupling law at p = +1
        out = tmp_path / "decay.csv"
        assert run_cli([
            "decay", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0.25", "--p", p, "--kappa", "30.9",
            "--g-ens", "0.0499", "--m", "21", "--out", out,
        ]) == 0
        _, _, rows, trailing = read_table(out)
        assert trailing == {"pole_tail": reason}
        assert all(row[4] == "" for row in rows)
        assert all(row[1] != "" and (row[3] != "") == (p == "1") for row in rows)

    @pytest.mark.parametrize("delta_cs", ["0", "3"])
    @pytest.mark.parametrize("p", ["1", "-1"])
    @pytest.mark.parametrize("family", ["lorentzian", "homogeneous"])
    def test_closed_form_follows_p_and_delta_cs(self, tmp_path, family, p, delta_cs):
        # the two-pole law of the model's own p and delta_cs, within
        # acceptance test 1's bound; the homogeneous line is exact
        line = {"lorentzian": ["--width", "2", "--gamma-perp", "0", "--m", "401"],
                "homogeneous": ["--gamma-perp", "1"]}[family]
        out = tmp_path / "decay.csv"
        assert run_cli([
            "decay", "--family", family, *line, "--p", p, "--delta-cs", delta_cs,
            "--kappa", "2", "--g-ens", "2", "--t-max", "5", "--t-samples", "11",
            "--out", out,
        ]) == 0
        _, _, rows, _ = read_table(out)
        sim = np.array([cell(row[1]) for row in rows])
        ref = np.array([cell(row[2]) for row in rows])
        assert np.max(np.abs(sim - ref)) <= 1e-3 * np.abs(ref).max()

    @pytest.mark.parametrize("p, delta_cs", [("-1", "0"), ("1", "3"), ("-1", "3")])
    def test_gaussian_laws_only_at_p_plus_one_and_resonance(self, tmp_path, p,
                                                            delta_cs):
        out = tmp_path / "decay.csv"
        assert run_cli([
            "decay", "--family", "gaussian", "--normalize-gamma", "--gamma-perp", "0",
            "--p", p, "--delta-cs", delta_cs, "--kappa", "8", "--g-ens", "0.5",
            "--m", "601", "--t-max", "2", "--t-samples", "9", "--out", out,
        ]) == 0
        _, _, rows, trailing = read_table(out)
        assert trailing == {"pole_tail": "derived only for p +1 at delta_cs 0"}
        assert all(row[1] != "" and row[2:] == ["", "", ""] for row in rows)

    @pytest.mark.parametrize("argv, code, phrase", [
        # past kappa ~ 1.3e154 the secular sums leave the float range in
        # both layouts of the collective pair: a numerical failure naming
        # the step, not blank cells
        pytest.param([*SMALL["decay"], "--kappa", "1.4e154"], 3,
                     "secular iteration step is not finite", id="decay-kappa-1.4e154"),
        # the seeds overflow on the way to the same failure
        pytest.param([*SMALL["decay"], "--kappa", "1e300"], 3,
                     "secular iteration step is not finite", id="decay-kappa-1e300"),
        # g_ens^2 N of the one homogeneous node leaves the float range
        pytest.param(["decay", "--family", "homogeneous", "--gamma-perp", "1",
                      "--kappa", "1", "--g-ens", "1e160", "--t-samples", "5"], 3,
                     "the coupling weights p g_m^2 N_m overflow the float range",
                     id="decay-weights-1e160"),
        # a width far below 1: w / Delta^2 of the dressing slopes leaves
        # the float range, the seeds are NaN and so is the first step
        pytest.param(["decay", "--family", "gaussian", "--width", "1e-170",
                      "--gamma-perp", "0.5", "--kappa", "1", "--g-ens", "1",
                      "--m", "21", "--t-samples", "5"], 3,
                     "a secular iteration step is not finite", id="decay-width-1e-170"),
        # a width far above 1: the moments in units of the node spacing
        # keep every seed finite, and the centre node alone dresses the field
        pytest.param(["decay", "--family", "gaussian", "--width", "1e170",
                      "--gamma-perp", "0.5", "--kappa", "1", "--g-ens", "1",
                      "--m", "21", "--t-samples", "5"], 0, "", id="decay-width-1e170"),
        # w(z) overflows its square on the way to 0; the pole tail is
        # left unconverged and the simulated field still prints
        pytest.param([*SMALL["decay"], "--kappa", "1e100"], 0, None,
                     id="decay-kappa-1e100"),
        pytest.param(["pole", "--family", "gaussian", "--normalize-gamma",
                      "--kappa", "1e100"], 3, "pole search", id="pole-kappa-1e100"),
        # C = 900: e^{lambda t} passes the float range near t = 24.5
        *(pytest.param([name, "--family", "homogeneous", "--gamma-perp", "1",
                        "--kappa", "1", "--g-ens", "30", "--t-max", "100",
                        "--t-samples", "5"], 3, "overflow", id=f"{name}-growth")
          for name in ("decay", "moments")),
        # the analytic references overflow a float ** or divide by a
        # product underflowed to zero: invalid rates, named
        pytest.param(["stability-sweep", "--family", "homogeneous",
                      "--gamma-perp", "1", "--g-min", "1e200", "--g-max", "1e200",
                      "--g-samples", "1", "--kappa-samples", "1"], 2,
                     "g_ens=1e+200", id="sweep-g-1e200"),
        pytest.param(["stability-sweep", "--family", "homogeneous",
                      "--gamma-perp", "1e-200", "--kappa-min", "1e-200",
                      "--kappa-max", "1e-200", "--g-samples", "1",
                      "--kappa-samples", "1"], 2, "kappa=1e-200",
                     id="sweep-kappa-gamma-1e-200"),
        pytest.param(["pole", "--family", "gaussian", "--width", "1e-170",
                      "--kappa", "1", "--g-ens", "1"], 2, "width=1e-170",
                     id="pole-width-1e-170"),
        pytest.param(["decay", "--family", "gaussian", "--width", "1",
                      "--gamma-perp", "0", "--kappa", "1e-100", "--g-ens", "1e60",
                      "--m", "21", "--t-max", "1e-70", "--t-samples", "5"], 2,
                     "kappa=1e-100", id="decay-g-over-kappa-1e160"),
        # a window past the float range: the revival guard names a power
        # of ten for M, not an unbounded integer, and no 4 t_max overflows
        *(pytest.param(["decay", "--family", "gaussian", "--width", "1",
                        "--t-max", t_max, "--t-samples", "3"], 2,
                       f"use M >= {need} sub-ensembles", id=f"decay-t-max-{t_max}")
          for t_max, need in (("1e308", "1e309"), ("1e300", "1e301"))),
        # a decaying spectrum: the phase Im(lambda) t leaves the float
        # range, named at a positive time, not a growth
        pytest.param(["decay", "--family", "gaussian", "--width", "1",
                      "--gamma-perp", "0.1", "--t-max", "1e308", "--t-samples", "3"],
                     3, "the phase Im(lambda) t of e^(lambda t) overflows the float "
                     "range past t = 2.99616e+307", id="decay-phase-1e308"),
        # subnormal N_m on the Gaussian tail: balance scales up to 2.3e154,
        # whose products overflow, still give the spectral steady state
        pytest.param(TINY_SPINS + ["1e-300"], 0, "# moment_fallbacks=0",
                     id="moments-n-spins-1e-300"),
        # a spin count below the normal floats: 1 / N_m leaves the float
        # range, and N itself keeps fewer than 53 bits
        *(pytest.param([*TINY_SPINS[:2], family, *TINY_SPINS[3:], n], 2,
                       f"total spin count must be finite and at least "
                       f"2.2250738585072014e-308, got {n}",
                       id=f"moments-{family}-n-spins-{n}")
          for family in ("gaussian", "lorentzian")
          for n in ("1e-308", "1e-310", "1e-320")),
        # g_m^2 = g_ens^2 / N leaves the float range, g_m^2 N_m does not:
        # the run fails as its N = 1e6 twin does, on the growth of C = 1e19
        *(pytest.param(TINY_SPINS[:-1] + ["--g-ens", "1e10", "--n-spins", n], 3,
                       "e^(lambda t) overflows the float range past t = 7.09783e-08",
                       id=f"moments-g-1e10-n-spins-{n}")
          for n in ("1e-290", "1e6")),
        # g_ens / sqrt(N) past the float range: no per-spin coupling is a
        # float, and the grid is refused naming both
        *(pytest.param(["moments", "--family", *family, "--gamma-perp", "0.1",
                        "--g-ens", "1e160", "--t-samples", "5", "--n-spins", "1e-300"],
                       2, "per-spin couplings g_ens sqrt(weight_m / N_m) overflow the "
                       "float range at g_ens = 1e+160, N = 1e-300",
                       id=f"moments-{family[0]}-coupling-overflow")
          for family in (["gaussian", "--width", "1", "--m", "21"],
                         ["lorentzian", "--width", "1", "--m", "21"], ["homogeneous"])),
        # C = 1e4: the covariance forms overflow, at any spin count
        *(pytest.param(TINY_SPINS[:-1] + ["--g-ens", "100", "--n-spins", n], 3,
                       "covariance propagation by the residues overflows the float "
                       "range by t = 3.75", id=f"moments-g-100-n-spins-{n}")
          for n in ("1e-300", "1e6")),
        # kappa Gamma of this Lorentzian line overflows: the root pair
        # keeps the closed form finite, and 0 past t = 0 as the field is
        pytest.param(["decay", "--family", "lorentzian", "--width",
                      "3.8624931408996426e+114", "--gamma-perp",
                      "1.145970309329477e-62", "--kappa", "3.531104484411246e+241",
                      "--g-ens", "8.396097646800582e-169", "--t-max",
                      "0.003610962138429278", "--t-samples", "5", "--m", "21"], 0,
                     "0.0036109621384292781,0,0,,", id="decay-kappa-gamma-overflow"),
        # a kappa grid through 0 names the rejected point
        pytest.param(["stability-sweep", "--family", "gaussian", "--normalize-gamma",
                      "--kappa-min", "0", "--kappa-max", "10"], 2,
                     "kappa must be > 0, got 0.0", id="sweep-kappa-min-0"),
        # the kappa grid's negative end is named
        pytest.param(["stability-sweep", "--family", "gaussian", "--normalize-gamma",
                      "--kappa-min", "-1e308", "--kappa-max", "1e308"], 2,
                     "kappa must be finite and >= 0, got -1e+308",
                     id="sweep-kappa-min-minus-1e308"),
        # a window that ends at or before t = 0 is refused on every line
        *(pytest.param(["stability-sweep", "--family", *family, "--gamma-perp", "0",
                        "--t-max", t_max, "--m", "21", "--g-samples", "2",
                        "--kappa-samples", "2"], 2, "need t_max > 0",
                       id=f"sweep-{family[0]}-t-max-{t_max}")
          for family in (["gaussian", "--normalize-gamma"], ["lorentzian", "--width", "2"])
          for t_max in ("0", "-1")),
        # starts past the float range are refused, naming the value
        pytest.param(["decay", "--family", "lorentzian", "--width", "2", "--alpha",
                      "1.5e308", "--m", "21", "--t-samples", "5"], 2,
                     "X_c(0) = sqrt(2) alpha is not finite at alpha = 1.5e+308",
                     id="decay-alpha-1.5e308"),
        pytest.param(["moments", "--family", "gaussian", "--normalize-gamma",
                      "--gamma-perp", "0.5", "--theta", "1e305", "--m", "21",
                      "--t-samples", "5"], 2,
                     "S_x(0) = theta N is not finite at theta = 1e+305, N = 1e+06",
                     id="moments-theta-1e305"),
        # a growing kicked field times alpha = 1e300: its first cell past
        # the float range is named
        pytest.param(["decay", "--family", "lorentzian", "--width", "2",
                      "--gamma-perp", "0", "--kappa", "0.5", "--g-ens", "3", "--alpha",
                      "1e300", "--t-max", "20", "--t-samples", "5"], 3,
                     "X_c_sim overflows the float range by t = 10",
                     id="decay-alpha-1e300-growth"),
    ])
    def test_extreme_rates_exit_silently(self, argv, code, phrase):
        # the library prints no RuntimeWarning: with warnings as errors
        # each run still ends with its exit code and no traceback
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spincavity",
             *argv, "--out", "-"],
            capture_output=True, text=True, env=source_env(),
        )
        assert result.returncode == code
        assert "Warning" not in result.stderr
        assert "Traceback" not in result.stderr
        if code:
            # one line: "error: " for invalid rates, else a numerical failure
            assert result.stdout == ""
            assert result.stderr.startswith("error: " if code == 2
                                            else "numerical failure: ")
            assert result.stderr.count("\n") == 1
            assert phrase in result.stderr
        elif argv[0] == "decay" and "gaussian" in argv:
            assert result.stdout.endswith("# pole_tail=unconverged\n")
        else:
            assert phrase in result.stdout.splitlines()

    @pytest.mark.parametrize("argv", [
        # the first layout of the collective pair fails, the other settles
        ["--family", "gaussian", "--normalize-gamma", "--gamma-perp", "0", "--p",
         "-1", "--m", "7", "--kappa", "0.9767", "--g-ens", "0.5479576888",
         "--t-max", "0.5", "--t-samples", "11"],
        ["--family", "gaussian", "--normalize-gamma", "--gamma-perp", "0.5",
         "--p", "-1", "--m", "21", "--kappa", "3.585", "--g-ens", "1.716095568"],
        # the other layout again
        ["--family", "lorentzian", "--normalize-gamma", "--gamma-perp", "0.25",
         "--p", "-1", "--m", "21", "--kappa", "0.2001", "--g-ens",
         "0.10796603671656"],
        # two roots 8e-9 apart, which settle at their condition
        ["--family", "lorentzian", "--normalize-gamma", "--gamma-perp", "0.25",
         "--p", "-1", "--m", "21", "--kappa", "0.2000934387948906", "--g-ens",
         "0.10797683435503808"],
        # the exact double root -2.5
        ["--family", "homogeneous", "--gamma-perp", "1", "--p", "-1", "--kappa",
         "4", "--g-ens", "1.5"],
    ], ids=["gaussian-m7", "gaussian-m21", "lorentzian", "lorentzian-8e-9",
            "homogeneous-double"])
    def test_near_exceptional_points_exit_silently(self, argv):
        # roots about to merge: the secular iteration alone finds them,
        # and the kicked field, whose residues fail their gate, comes
        # from the means
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spincavity",
             "decay", *argv, "--out", "-"],
            capture_output=True, text=True, env=source_env(),
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert "# kick_response_fallbacks=1\n" in result.stdout

    def test_marginal_gaussian_band(self, tmp_path):
        # C = 1: the kicked field neither grows past 1.05x nor falls
        # below 0.1x of the initial amplitude across the window tail
        out = tmp_path / "marginal.csv"
        code = run_cli([
            "decay", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", "--kappa", "4", "--g-ens", "2",
            "--m", "301", "--t-max", "5", "--t-samples", "51", "--out", out,
        ])
        assert code == 0
        _, _, rows, _ = read_table(out)
        sim = np.abs([cell(row[1]) for row in rows])
        initial = sim[0]
        tail = sim[len(sim) // 2:]
        assert tail.max() <= 1.05 * initial
        assert tail.min() >= 0.1 * initial

    def test_supercritical_growth_tracks_pole(self, tmp_path):
        out = tmp_path / "growth.csv"
        code = run_cli([
            "decay", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", "--kappa", "2", "--g-ens", "2",
            "--m", "301", "--t-max", "5", "--t-samples", "51", "--out", out,
        ])
        assert code == 0
        _, _, rows, _ = read_table(out)
        t = np.array([cell(row[0]) for row in rows])
        sim = np.array([cell(row[1]) for row in rows])
        late = t >= 3.0
        rate = fit_exponential_rate(t[late], sim[late])
        params = SystemParams(kappa=2.0, gamma_perp=0.0, g_ens=2.0)
        root = gaussian_pole(
            params, SIGMA_UNIT, pole_seeds(params, SIGMA_UNIT)["slow"]
        ).lam
        assert rate == pytest.approx(root.real, rel=0.05)

    @pytest.mark.parametrize(
        "family, m, width",
        [("gaussian", 201, SIGMA_UNIT), ("lorentzian", 101, 1.6)],
    )
    def test_residue_path_matches_expm_oracle(self, tmp_path, family, m,
                                              width):
        out = tmp_path / "decay.csv"
        code = run_cli([
            "decay", "--family", family, "--width", width, "--gamma-perp",
            "0", "--kappa", "3", "--g-ens", "2", "--delta-cs", "0.4",
            "--m", m, "--t-max", "2", "--t-samples", "21", "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "decay.csv.manifest.json").read_text())
        assert manifest["kick_response_fallbacks"] == 0
        _, _, rows, _ = read_table(out)
        times = np.array([cell(row[0]) for row in rows])
        sim = np.array([cell(row[1]) for row in rows])
        params = SystemParams(kappa=3.0, gamma_perp=0.0, g_ens=2.0,
                              delta_cs=0.4)
        grid = discretize(BroadeningSpec(family, width), m, 2.0, 1e6)
        model = build_drift_matrix(params, grid, 1)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        reference = expm_mean(model.drift, y0, times)[:, 0]
        assert np.abs(sim - reference).max() <= 1e-10 * np.abs(reference).max()

    def test_records_the_kick_response_fallback(self, tmp_path, monkeypatch,
                                                secular_solves):
        # a zero residue bound refuses the residues of the secular roots
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        out = tmp_path / "decay.csv"
        assert run_cli(LOR_DECAY + ["--out", out]) == 0
        meta, _, _, _ = read_table(out)
        assert meta["kick_response_fallbacks"] == "1"
        # the fallback's means read the one spectrum
        assert len(secular_solves) == 1

    def test_iteration_cap_is_a_numerical_failure(self, tmp_path, monkeypatch,
                                                  capsys):
        # no other root finder remains: both layouts of the collective
        # pair stop at the cap, and the run exits 3 naming it
        monkeypatch.setattr(dynamics, "_ABERTH_MAX_ITER", 0)
        out = tmp_path / "decay.csv"
        assert run_cli(SMALL["decay"] + ["--out", out]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: secular roots still moving at the "
                       "cap of 0 iterations\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment", ["decay", "stability-sweep"],
    )
    def test_revival_guard_maps_to_exit_2(self, tmp_path, experiment):
        # the sweep grid sets kappa and g_ens, so it has no such flags
        rates = ["--kappa", "8", "--g-ens", "2"] if experiment == "decay" else []
        code = run_cli([
            experiment, "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", *rates,
            "--m", "25", "--t-max", "5", "--out", tmp_path / "x.csv",
        ])
        assert code == 2


STABLE_MOMENTS = [
    "moments", "--family", "gaussian", "--normalize-gamma", "--gamma-perp",
    "0.2", "--kappa", "8", "--g-ens", "1.9",
]


class TestMoments:
    def test_schema_and_panel_ratios(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = run_cli([
            "moments", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0.02", "--kappa", "8", "--g-ens", "2",
            "--t-max", "1", "--t-samples", "3", "--out", out,
        ])
        assert code == 0
        meta, columns, rows, trailing = read_table(out)
        assert columns == [
            "t", "Sx_over_Sx0", "Pc", "VarSx_over_N_minus_1",
            "twoVarPc_minus_1", "R",
        ]
        assert cell(rows[0][1]) == 1.0
        assert cell(rows[0][5]) == 1.0
        assert set(trailing) == {"panel_f_ratio_sx", "panel_f_ratio_pc"}
        assert float(trailing["panel_f_ratio_sx"]) > 1.0
        manifest = json.loads(
            (tmp_path / "moments.csv.manifest.json").read_text()
        )
        assert manifest["panel_f_ratio_sx"] == pytest.approx(
            float(trailing["panel_f_ratio_sx"]), rel=1e-15
        )

    def test_uncoupled_reference_leaves_out_panel_ratios(self, tmp_path):
        # at g_ens = 1e-200 both reference excesses are 0: the ratios
        # would be 0/0 and x/0, so the run writes neither, and no warning
        out = tmp_path / "moments.csv"
        code = run_cli([
            "moments", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0.02", "--kappa", "8", "--g-ens", "1e-200",
            "--m", "21", "--t-max", "1", "--t-samples", "5", "--out", out,
        ])
        assert code == 0
        assert read_table(out)[3] == {}

        def reject(constant):
            raise ValueError(f"manifest holds {constant}")

        manifest = json.loads(
            (tmp_path / "moments.csv.manifest.json").read_text(),
            parse_constant=reject,
        )
        assert not {"panel_f_ratio_sx", "panel_f_ratio_pc"} & set(manifest)

    def test_gaussian_variance_columns_match_dp45_oracle(self, tmp_path):
        out = tmp_path / "moments.csv"
        # C = 0.45; at M = 41 a dephasing of 0.02 would leave the
        # discretized model unstable
        code = run_cli(STABLE_MOMENTS + [
            "--m", "41", "--t-max", "3", "--t-samples", "13", "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "moments.csv.manifest.json").read_text())
        assert manifest["moment_fallbacks"] == 0
        _, columns, rows, _ = read_table(out)
        table = np.array([[cell(value) for value in row] for row in rows])
        params = SystemParams(kappa=8.0, gamma_perp=0.2, g_ens=1.9)
        n = manifest["n_spins"]
        grid = discretize(BroadeningSpec("gaussian", manifest["width"]), 41, 1.9, n)
        model = build_drift_matrix(params, grid, 1)
        _, gamma0 = initial_state("tilted-spin", grid, theta=manifest["theta"])
        times = table[:, columns.index("t")]
        gammas = dp45_covariance(model.drift, model.noise_diag, np.diag(gamma0), times)
        ix = 2 + 2 * np.arange(grid.size)
        var_sx = gammas[:, ix][:, :, ix].sum(axis=(1, 2)) / 2.0
        var_sx_inf = lyapunov_oracle(model)[np.ix_(ix, ix)].sum() / 2.0
        expected = {
            "VarSx_over_N_minus_1": var_sx / n - 1.0,
            "twoVarPc_minus_1": gammas[:, 1, 1] - 1.0,
            "R": (var_sx_inf - var_sx) / (var_sx_inf - var_sx[0]),
        }
        for name, want in expected.items():
            got = table[:, columns.index(name)]
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), name

    @pytest.mark.parametrize(
        "args",
        [STABLE_MOMENTS + ["--m", "21", "--t-max", "2", "--t-samples", "9"],
         ["moments", "--family", "homogeneous", "--gamma-perp", "1",
          "--kappa", "8", "--g-ens", "2", "--t-max", "2", "--t-samples", "9"]],
        ids=["gaussian", "homogeneous"],
    )
    def test_columns_are_the_library_reductions(self, tmp_path, args):
        out = tmp_path / "moments.csv"
        assert run_cli(args + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "moments.csv.manifest.json").read_text())
        _, columns, rows, _ = read_table(out)
        table = np.array([[cell(value) for value in row] for row in rows])
        names = ("kappa", "gamma_perp", "g_ens", "delta_cs")
        params = SystemParams(**{name: manifest[name] for name in names})
        n = manifest["n_spins"]
        spec = BroadeningSpec(manifest["family"], manifest["width"])
        grid = discretize(spec, manifest["m"], params.g_ens, n)
        model = build_drift_matrix(params, grid, manifest["p"])
        y0, gamma0 = initial_state("tilted-spin", grid, theta=manifest["theta"])
        times = table[:, columns.index("t")]
        mean = spincavity.evolve_mean(model, y0, times).reductions
        var = spincavity.evolve_covariance(model, gamma0, times).reductions
        expected = {
            "Sx_over_Sx0": mean["S_x"] / mean["S_x"][0],
            "Pc": mean["P_c"],
            "VarSx_over_N_minus_1": var["var_S_x"] / n - 1.0,
            "twoVarPc_minus_1": 2.0 * var["var_P_c"] - 1.0,
            "R": var["R"],
        }
        assert np.all(np.isfinite(var["R"]))
        for name, want in expected.items():
            # the writer prints 17 significant digits, which read back exactly
            assert np.array_equal(table[:, columns.index(name)], want), name

    def test_records_the_moment_fallbacks(self, tmp_path, monkeypatch):
        args = STABLE_MOMENTS + ["--m", "21", "--t-max", "1", "--t-samples", "5"]
        assert run_cli(args + ["--out", tmp_path / "spectral.csv"]) == 0
        # mean, covariance and steady state all take their dense paths
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        assert run_cli(args + ["--out", tmp_path / "dense.csv"]) == 0
        spectral, dense = (read_table(tmp_path / name)
                           for name in ("spectral.csv", "dense.csv"))
        assert spectral[0]["moment_fallbacks"] == "0"
        assert dense[0]["moment_fallbacks"] == "3"
        assert_columns_match(tmp_path / "spectral.csv", tmp_path / "dense.csv")

    def test_marginal_steady_state_warns_nothing(self):
        # gamma_perp = 0 and a weak absorbing line: the steady state takes
        # Bartels-Stewart, whose scipy solver warns of an eigenvalue pair
        # that nearly cancels; the residual check judges it instead
        result = subprocess.run(
            [sys.executable, "-m", "spincavity", "moments", "--family", "gaussian",
             "--normalize-gamma", "--gamma-perp", "0", "--p", "-1", "--kappa",
             "0.0943", "--g-ens", "0.014072313242676202", "--m", "101",
             "--t-max", "2", "--t-samples", "21", "--out", "-"],
            capture_output=True, text=True, env=source_env(),
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert "# moment_fallbacks=2\n" in result.stdout

    def test_homogeneous_complex_pair_takes_no_fallback(self, tmp_path,
                                                        monkeypatch):
        # p = -1 at delta_cs = 0 with 4 g_ens^2 > (kappa - gamma_perp)^2:
        # the secular solver finds the complex pair, so the eigen-system
        # gives the means, the covariance and the steady state
        args = [
            "moments", "--family", "homogeneous", "--gamma-perp", "0.1",
            "--kappa", "2", "--g-ens", "3", "--p", "-1", "--t-max", "1",
            "--t-samples", "5",
        ]
        assert run_cli(args + ["--out", tmp_path / "spectral.csv"]) == 0
        meta, _, spectral, _ = read_table(tmp_path / "spectral.csv")
        assert meta["moment_fallbacks"] == "0"
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        assert run_cli(args + ["--out", tmp_path / "dense.csv"]) == 0
        meta, _, dense, _ = read_table(tmp_path / "dense.csv")
        assert meta["moment_fallbacks"] == "3"
        # the mean columns; the variances are rounding noise about zero
        for column in (1, 2):
            want = np.array([cell(row[column]) for row in dense])
            got = np.array([cell(row[column]) for row in spectral])
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
        # the run starts at its steady variance, so R is 0 / 0 on both
        # paths, although Bartels-Stewart leaves Var_inf - Var(0) 4 ulps
        # from zero
        assert all(row[5] == "" for row in spectral + dense)

    def test_strongly_coupled_absorbing_line_takes_no_fallback(self, tmp_path):
        # an absorbing Gaussian line at C ~ 450: from weak-coupling seeds
        # both secular iterations ran to their cap, and the means, the
        # covariance and the steady state took their dense paths
        out = tmp_path / "moments.csv"
        assert run_cli([
            "moments", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0.02", "--p", "-1", "--kappa", "0.689",
            "--g-ens", "17.7", "--m", "401", "--out", out,
        ]) == 0
        assert read_table(out)[0]["moment_fallbacks"] == "0"

    def test_near_threshold_steady_state_matches_oracle(self, tmp_path):
        # C = 1 - 1e-6 with N = 1: the steady variances are ~1e6 times
        # the noise, and the Lyapunov residual of any solver is too
        kappa = gamma_perp = 0.01
        g_ens = math.sqrt((1.0 - 1e-6) * kappa * gamma_perp)
        out = tmp_path / "moments.csv"
        code = run_cli([
            "moments", "--family", "homogeneous", "--gamma-perp", gamma_perp,
            "--kappa", kappa, "--g-ens", repr(g_ens), "--n-spins", "1",
            "--out", out,
        ])
        assert code == 0
        _, columns, rows, _ = read_table(out)
        table = np.array([[cell(value) for value in row] for row in rows])
        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
        grid = discretize(BroadeningSpec("homogeneous", 0.0), 1, g_ens, 1.0)
        model = build_drift_matrix(params, grid, 1)
        reference = lyapunov_oracle(model)
        gamma = spincavity.steady_state_covariance(model)
        assert np.abs(gamma - reference).max() <= 1e-8 * np.abs(reference).max()
        # 1 - R = (Var(t) - Var(0)) / (Var_inf - Var(0)) measures Var_inf;
        # R is printed to 17 digits and is within 5e-9 of 1 here
        var_sx = table[:, columns.index("VarSx_over_N_minus_1")] + 1.0
        var_sx_inf = reference[2:, 2:][::2, ::2].sum() / 2.0
        want = (var_sx - var_sx[0]) / (var_sx_inf - var_sx[0])
        got = 1.0 - table[:, columns.index("R")]
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_one_secular_solve_per_run(self, tmp_path, secular_solves):
        # the means and the covariance share the model's eigen-system
        assert run_cli(SMALL["moments"] + ["--out", tmp_path / "m.csv"]) == 0
        assert len(secular_solves) == 1

    def test_unstable_leaves_r_empty(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = run_cli([
            "moments", "--family", "homogeneous", "--gamma-perp", "1",
            "--kappa", "1", "--g-ens", "2", "--t-max", "1",
            "--t-samples", "3", "--out", out,
        ])
        assert code == 0
        _, _, rows, trailing = read_table(out)
        assert all(row[5] == "" for row in rows)
        assert trailing == {}

    @pytest.mark.parametrize("coupling, n_spins", [
        ([], 1e-300),
        # on the Van Loan fallback, which steps the balanced arrowhead
        (["--g-ens", "4"], 1e-307),
        (["--g-ens", "4"], 2.3e-308),
    ], ids=["1e-300", "van-loan-1e-307", "van-loan-2.3e-308"])
    def test_tiny_spin_counts_match_a_large_one(self, tmp_path, coupling, n_spins):
        # the columns do not depend on N but for P_c, which scales as
        # sqrt(N); at N = 1e-300 the balance scales of the subnormal tail
        # N_m overflow as products, so each is applied in turn
        tables = {}
        for n in (n_spins, 1e6):
            out = tmp_path / f"{n}.csv"
            assert run_cli(TINY_SPINS[:-1] + coupling + ["--n-spins", repr(n),
                                                         "--out", out]) == 0
            _, columns, rows, _ = read_table(out)
            tables[n] = np.array([[float(x or "nan") for x in row] for row in rows])
        got, want = tables[n_spins], tables[1e6]
        # R is empty on an unstable line, at both spin counts
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = np.nan_to_num(got), np.nan_to_num(want)
        # each count on its own: n_spins / 1e6 is subnormal below 2.2e-302
        got[:, columns.index("Pc")] /= math.sqrt(n_spins) / math.sqrt(1e6)
        for name in ("Sx_over_Sx0", "Pc", "VarSx_over_N_minus_1",
                     "twoVarPc_minus_1", "R"):
            k = columns.index(name)
            assert np.abs(got[:, k] - want[:, k]).max() <= 1e-12 * np.abs(want[:, k]).max()

    @pytest.mark.parametrize("n_spins", [1e-307, 1e-300, 1e-250, 1e250, 1e300])
    def test_dense_means_at_extreme_spin_counts_match_a_large_one(self, tmp_path,
                                                                   n_spins):
        # at g_ens = 1e-9 the means take the dense steps e^{H h}, on the
        # balanced amplitudes as the Van Loan and Bartels-Stewart paths;
        # the variances at this coupling are rounding noise and left out
        tables = {}
        for n in (n_spins, 1e6):
            out = tmp_path / f"{n}.csv"
            assert run_cli(TINY_SPINS[:-1] + ["--g-ens", "1e-9", "--n-spins", repr(n),
                                              "--out", out]) == 0
            meta, columns, rows, _ = read_table(out)
            assert meta["moment_fallbacks"] == "3"
            tables[n] = np.array([[float(x or "nan") for x in row] for row in rows])
        got, want = tables[n_spins], tables[1e6]
        got[:, columns.index("Pc")] /= math.sqrt(n_spins) / math.sqrt(1e6)
        for name in ("Sx_over_Sx0", "Pc"):
            k = columns.index(name)
            assert np.abs(got[:, k] - want[:, k]).max() <= 1e-12 * np.abs(want[:, k]).max()

    @pytest.mark.parametrize("theta", [1e-310, 1e-315, 1e-320])
    def test_subnormal_tilts_match_a_normal_one(self, tmp_path, theta):
        # the means are linear in theta: below the normal floats, where
        # theta N_m keeps few bits, the start is evolved scaled by a power
        # of two, so S_x / S_x(0) is that of theta = 1e-3 and P_c scales
        tables = {}
        for tilt in (theta, 1e-3):
            out = tmp_path / f"{tilt}.csv"
            assert run_cli(TINY_SPINS[:-1] + ["--theta", repr(tilt), "--out", out]) == 0
            _, columns, rows, _ = read_table(out)
            tables[tilt] = np.array([[float(x) for x in row] for row in rows])
        got, want = tables[theta], tables[1e-3]
        k = columns.index("Sx_over_Sx0")
        assert np.abs(got[:, k] - want[:, k]).max() <= 1e-15
        k = columns.index("Pc")
        scaled = want[:, k] / 1e-3 * theta  # one rounding, to the subnormal grain
        assert np.abs(got[:, k] - scaled).max() <= 1e-13 * np.abs(scaled).max() + 5e-324
        others = [columns.index(name) for name in ("t", "VarSx_over_N_minus_1",
                                                   "twoVarPc_minus_1", "R")]
        assert np.array_equal(got[:, others], want[:, others])

    def test_steady_state_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "_LYAPUNOV_RTOL", 0.0)
        assert run_cli(SMALL["moments"] + ["--out", tmp_path / "m.csv"]) == 3
        assert "Lyapunov residual" in capsys.readouterr().err


class TestSpectrum:
    def test_schema_and_flux(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = run_cli([
            "spectrum", "--family", "lorentzian", "--width", "1.6",
            "--gamma-perp", "0.2", "--kappa", "2", "--g-ens", "1",
            "--p", "-1", "--delta-e-min", "-5", "--delta-e-max", "5",
            "--delta-e-samples", "11", "--out", out,
        ])
        assert code == 0
        meta, columns, rows, _ = read_table(out)
        assert columns == ["delta_e", "re_t", "im_t", "re_r", "im_r"]
        assert meta["invalid_rows"] == "0"
        for row in rows:
            re_t, im_t, re_r, im_r = map(cell, row[1:])
            assert re_t**2 + im_t**2 + re_r**2 + im_r**2 <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "extra",
        [["--p", "1", "--kappa", "1", "--g-ens", "2"], ["--delta-cs", "0.5"]],
        ids=["inverted-above-threshold", "detuned-cavity"],
    )
    def test_failed_preconditions_leave_every_row_empty(self, tmp_path, extra):
        out = tmp_path / "spectrum.csv"
        assert run_cli(SMALL["spectrum"] + extra + ["--out", out]) == 0
        meta, _, rows, _ = read_table(out)
        assert meta["invalid_rows"] == "11"
        assert len(rows) == 11
        assert all(value == "" for row in rows for value in row[1:])

    def test_singular_rows_left_empty(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = run_cli([
            "spectrum", "--family", "homogeneous", "--gamma-perp", "0",
            "--kappa", "2", "--g-ens", "1", "--p", "-1",
            "--delta-e-min", "-1", "--delta-e-max", "1",
            "--delta-e-samples", "3", "--out", out,
        ])
        assert code == 0
        meta, _, rows, _ = read_table(out)
        assert meta["invalid_rows"] == "1"
        assert rows[1][0] == "0"
        assert all(value == "" for value in rows[1][1:])
        assert all(value != "" for value in rows[0][1:])


    def test_a_grid_whose_span_leaves_the_float_range(self, capsys):
        # delta_e_max - delta_e_min = 2e308 is infinite: the grid is
        # formed from the halved ends
        assert run_cli(["spectrum", "--family", "lorentzian", "--width", "1",
                        "--delta-e-min", "-1e308", "--delta-e-max", "1e308",
                        "--delta-e-samples", "3", "--out", "-"]) == 0
        rows = capsys.readouterr().out.splitlines()[-3:]
        assert [row.split(",")[0] for row in rows] == ["-1e+308", "0", "1e+308"]


class TestStabilitySweep:
    def test_a_grid_whose_span_leaves_the_float_range(self, capsys):
        # the grid starts at the negative rate, which is named: no NaN
        # from an infinite span
        assert run_cli(["stability-sweep", "--family", "gaussian",
                        "--normalize-gamma", "--gamma-perp", "0.5",
                        "--g-min", "-1e308", "--g-max", "1e308", "--g-samples", "3",
                        "--kappa-samples", "2", "--out", "-"]) == 2
        assert capsys.readouterr().err == (
            "error: g_ens must be finite and >= 0, got -1e+308\n")

    def test_verdicts_agree_off_threshold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "stability-sweep", "--family", "homogeneous", "--gamma-perp",
            "1", "--g-min", "0.5", "--g-max", "2.5", "--g-samples", "5",
            "--kappa-min", "1", "--kappa-max", "4", "--kappa-samples", "4",
            "--out", out,
        ])
        assert code == 0
        _, columns, rows, _ = read_table(out)
        assert columns == [
            "g_ens", "kappa", "Gamma", "C", "spectral_abscissa_discrete",
            "stable_analytic", "stable_numeric",
        ]
        assert len(rows) == 20
        for row in rows:
            c = cell(row[3])
            if abs(c - 1.0) < 0.01:
                continue
            assert row[5] == row[6]
            assert (cell(row[4]) < 0) == (row[5] == "true")


    WINDOWED = [
        "stability-sweep", "--family", "gaussian", "--normalize-gamma",
        "--gamma-perp", "0", "--m", "41", "--t-max", "2",
        "--g-min", "0.5", "--g-max", "3", "--g-samples", "4",
        "--kappa-min", "0.5", "--kappa-max", "8", "--kappa-samples", "4",
    ]

    def test_windowed_verdicts_match_expm_envelopes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(self.WINDOWED + ["--out", out]) == 0
        _, columns, rows, _ = read_table(out)
        manifest = json.loads(
            (tmp_path / "sweep.csv.manifest.json").read_text()
        )
        assert manifest["windowed_verdict"] is True
        assert manifest["kick_response_fallbacks"] == 0
        spec = BroadeningSpec("gaussian", manifest["width"])
        times = np.linspace(0.0, 2.0, 101)
        fifth = times.size // 5
        for row in rows:
            g, kappa = cell(row[0]), cell(row[1])
            # the kicked field reads the spins only through g_m^2 N_m,
            # so any spin count gives the verdict
            grid = discretize(spec, 41, g, 1e6)
            params = SystemParams(kappa=kappa, gamma_perp=0.0, g_ens=g)
            model = build_drift_matrix(params, grid, 1)
            y0, _ = initial_state("field-kick", grid, alpha=1.0)
            means = expm_mean(model.drift, y0, times)
            envelope = np.hypot(means[:, 0], means[:, 1])
            stable = envelope[-fifth:].max() < envelope[:fifth].max()
            assert row[6] == ("true" if stable else "false")
        # the grid spans both verdicts
        assert {row[6] for row in rows} == {"true", "false"}

    def test_windowed_reruns_byte_identical(self, tmp_path):
        small = self.WINDOWED + ["--g-samples", "2", "--kappa-samples", "2"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli(small + ["--out", path]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        first = (tmp_path / "a.csv.manifest.json").read_bytes()
        assert first == (tmp_path / "b.csv.manifest.json").read_bytes()

    def test_kick_fallback_solves_each_point_once(self, tmp_path, monkeypatch,
                                                  secular_solves):
        # the abscissa, the refused residues and the fallback's means of
        # a point all read one spectrum
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        assert run_cli(self.WINDOWED + ["--out", tmp_path / "sweep.csv"]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["kick_response_fallbacks"] == 16
        assert len(secular_solves) == len({id(m) for m in secular_solves}) == 16
        # no path of a sweep reads a model's noise diagonal
        assert not any("noise_diag" in vars(model) for model in secular_solves)

    def test_one_batched_solve_for_all_points(self, tmp_path, monkeypatch,
                                              secular_solves):
        batches, run = [], dynamics._aberth_roots

        def counted(shifts, *args, **kwargs):
            batches.append(shifts.size)
            return run(shifts, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_aberth_roots", counted)
        assert run_cli(self.WINDOWED + ["--out", tmp_path / "sweep.csv"]) == 0
        assert batches == [16]
        # the points were solved and kicked with no noise diagonal built
        assert len(secular_solves) == 16
        assert not any("noise_diag" in vars(model) for model in secular_solves)

    def test_memory_of_a_large_sweep_stays_per_point(self, tmp_path):
        # every point holds its spectrum and its CSV row until the sweep
        # is written (the sample budget counts these), and no noise row;
        # the batch adds stacked rows and work arrays, not a dense array
        # or a work set per point
        m, points = 201, 16 * 16
        argv = [
            "stability-sweep", "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", "--m", m, "--g-samples", "16",
            "--kappa-samples", "16", "--out", tmp_path / "sweep.csv",
        ]
        assert run_cli(argv) == 0  # lazy imports and caches first
        per_point = cli._ROW_BYTES + 32 * (m + 1)
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * points * per_point + 4 * dynamics._CHUNK_BYTES

    def test_fallbacks_counted_with_unchanged_verdicts(self, tmp_path, monkeypatch):
        # a zero residue bound rejects the residues of every point
        out = tmp_path / "sweep.csv"
        assert run_cli(self.WINDOWED + ["--out", out]) == 0
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        forced = tmp_path / "forced.csv"
        assert run_cli(self.WINDOWED + ["--out", forced]) == 0
        manifest = json.loads(
            (tmp_path / "forced.csv.manifest.json").read_text()
        )
        assert manifest["kick_response_fallbacks"] == 16
        verdicts = [row[6] for row in read_table(out)[2]]
        assert [row[6] for row in read_table(forced)[2]] == verdicts


class TestPole:
    def test_console_script_emits_converged_roots(self, tmp_path):
        # run cli.main as a process via ``-m``, which also works from an
        # uninstalled source tree, then check that the console script
        # is wired to the same entry point
        out = tmp_path / "pole.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "spincavity", "pole", "--family",
                "gaussian", "--normalize-gamma", "--gamma-perp", "0",
                "--kappa", "8", "--g-ens", "2", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert result.returncode == 0, result.stderr
        _, columns, rows, _ = read_table(out)
        assert columns == [
            "seed_label", "seed_re", "seed_im", "lambda_re", "lambda_im",
            "abs_residual",
        ]
        assert [row[0] for row in rows] == ["slow", "fast"]
        for row in rows:
            assert cell(row[5]) <= 1e-10 * 8.0

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["spincavity"] == "spincavity.cli:main"

    def test_requires_gaussian_family(self, tmp_path):
        code = run_cli([
            "pole", "--family", "lorentzian", "--width", "2",
            "--gamma-perp", "0", "--kappa", "8", "--g-ens", "2",
            "--out", tmp_path / "x.csv",
        ])
        assert code == 2


# runs [forced, argv] pairs through cli.main in one fresh interpreter,
# forced ones with every eigen-system gate closed, and prints each run's
# exit code and the scipy modules loaded after it
FRESH_RUNS = """
import json, sys
import spincavity, spincavity.cli
from spincavity import cli, dynamics

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

report = [[None, scipy_modules()]]
for forced, argv in json.loads(sys.argv[1]):
    if forced:
        dynamics._RESIDUE_BOUND = 0.0
    report.append([cli.main(argv), scipy_modules()])
print(json.dumps(report))
"""


def run_fresh(runs):
    """``[exit code, scipy modules]`` after the import and after each run."""
    runs = [[forced, [str(a) for a in argv]] for forced, argv in runs]
    result = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, json.dumps(runs)],
        capture_output=True, text=True, env=source_env(),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestImportHygiene:
    # scipy serves only the dense fallbacks, which it loads on first use;
    # pytest and conftest import scipy, so each check is a fresh process

    def test_import_loads_no_scipy(self):
        assert run_fresh([]) == [[None, []]]

    def test_small_runs_load_no_scipy(self, tmp_path):
        runs = [[False, argv + ["--out", tmp_path / f"{name}.csv"]]
                for name, argv in SMALL.items()]
        runs.append([False, LOR_DECAY + ["--out", tmp_path / "lor.csv"]])
        assert run_fresh(runs) == [[None, []]] + [[0, []]] * len(runs)

    def test_forced_fallbacks_load_scipy_and_agree(self, tmp_path):
        args = STABLE_MOMENTS + ["--m", "21", "--t-max", "1", "--t-samples", "5"]
        spectral, dense = tmp_path / "spectral.csv", tmp_path / "dense.csv"
        report = run_fresh([[False, args + ["--out", spectral]],
                            [True, args + ["--out", dense]]])
        assert report[1] == [0, []]
        code, modules = report[2]
        assert code == 0
        # the dense exponential is scipy.linalg's, so scipy.sparse stays out
        assert "scipy.linalg" in modules and "scipy.sparse" not in modules
        assert read_table(spectral)[0]["moment_fallbacks"] == "0"
        assert read_table(dense)[0]["moment_fallbacks"] == "3"
        assert_columns_match(spectral, dense)


def reference_cell(value) -> str:
    """One CSV cell, written cell by cell for comparison with the writer."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else "%.17g" % value
    return str(value)


def reference_csv(header, columns, rows, trailer) -> str:
    lines = [f"# {key}={reference_cell(header[key])}" for key in sorted(header)]
    lines.append(",".join(columns))
    lines.extend(",".join(reference_cell(value) for value in row) for row in rows)
    lines.extend(f"# {key}={reference_cell(trailer[key])}" for key in sorted(trailer))
    return "".join(line + "\n" for line in lines)


def written(header, columns, rows, trailer) -> str:
    """What the writer sends to standard output for ``--out -``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._write("-", header, columns, rows, trailer)
    return buffer.getvalue()


EDGE_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, -1.0 / 3.0,
]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
HEADER = {"experiment": "decay", "Gamma": 0.5, "invalid_rows": 3,
          "windowed_verdict": True, "width": None}


def assert_kernel_matches_reference(values):
    """The writer's float table against :func:`reference_cell`, with the
    values one to a row and then five to a row (repeated to fill it)."""
    values = np.asarray(values, dtype=float)
    for width in (1, 5):
        rows = np.resize(values, (-(-values.size // width), width))
        columns = [f"c{k}" for k in range(width)]
        want = reference_csv({}, columns, rows.tolist(), {})
        assert cli._csv_text({}, columns, rows, {}) == want


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        table=st.integers(1, 7).flatmap(
            lambda width: st.lists(st.lists(FLOATS, min_size=width,
                                            max_size=width), max_size=40)
        ),
        trailer=st.dictionaries(st.sampled_from(["pole_rate_re", "ratio"]), FLOATS),
    )
    def test_float_table_matches_cell_by_cell_reference(self, table, trailer):
        width = len(table[0]) if table else 3
        rows = np.array(table, dtype=float).reshape(len(table), width)
        columns = [f"c{k}" for k in range(width)]
        want = reference_csv(HEADER, columns, table, trailer)
        assert written(HEADER, columns, rows, trailer) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda width: st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=width, max_size=width),
        min_size=1, max_size=40)))
    def test_float_bit_patterns_match_the_reference(self, bits):
        # every float64: NaNs of any payload, subnormals, both zeros, and
        # normals of every exponent, in and out of the kernel's range
        rows = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_kernel_matches_reference(rows.ravel())

    def test_exact_ties_at_the_seventeenth_digit(self):
        # x = m 2**(k - 17) with m odd and 10**k <= x < 10**(k + 1) puts x
        # 10**(16 - k) = m 5**(16 - k) / 2 half-way between two 17-digit
        # integers; such doubles exist for k = -8 .. 15
        ties = []
        for k in range(-8, 16):
            scale = Fraction(2) ** (17 - k)
            low = math.ceil(Fraction(10) ** k * scale)
            high = min(math.ceil(Fraction(10) ** (k + 1) * scale), 2**53)
            odd = [m for m in (low, low + 1, (low + high) // 2, high - 2, high - 1)
                   if m % 2 and low <= m < high]
            assert odd
            for m in odd:
                x = math.ldexp(m, k - 17)
                assert Fraction(x) * Fraction(10) ** (16 - k) % 1 == Fraction(1, 2)
                ties.append(x)
        assert_kernel_matches_reference(ties + [-x for x in ties])

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-25, 26):
            x = float(f"1e{k}")
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        assert_kernel_matches_reference(values + [-x for x in values])

    def test_values_that_carry_to_the_next_power_of_ten(self):
        # below 10**j, yet 17 digits round them up to 10**j; 1e-14 is the
        # one in the kernel's range
        carries = [1e-14, 1e-70, 1e-73, 1e98, 1e129]
        for x in carries:
            j = round(math.log10(x))
            assert Fraction(x) < Fraction(10) ** j and "%.17g" % x == f"1e{j:+03d}"
        assert_kernel_matches_reference(carries + [-x for x in carries])

    def test_both_ends_of_the_tabulated_range(self):
        values = []
        for edge in cli._FAST_RANGE:
            values += [math.nextafter(math.nextafter(edge, 0.0), 0.0),
                       math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        assert_kernel_matches_reference(values + [-x for x in values])

    def test_scales_are_exact(self):
        # each 10**(16 - k) is hi + lo exactly, and hi the sum of halves of
        # at most 26 significant bits, whose products Dekker's sum keeps
        def significant_bits(value):
            numerator = abs(Fraction(value).numerator)
            return (numerator // (numerator & -numerator or 1)).bit_length()

        for k, (hi, high, low, lo) in enumerate(cli._SCALES.T, start=cli._K_MIN):
            assert int(hi) + int(lo) == 10 ** (16 - k)
            assert high + low == hi
            assert max(significant_bits(high), significant_bits(low)) <= 26

    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("count", [
        0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 3001,
    ])
    def test_blocks_match_the_mixed_row_path(self, count, width):
        # block joints and the last, short block against the cell-by-cell
        # path of mixed rows, with the edge floats and whole NaN rows
        # placed all over the table
        rng = np.random.default_rng(count + width)
        edges = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        rows = rng.standard_normal((count, width)) * 10.0 ** rng.integers(-300, 300, (count, width))
        picks = rng.random((count, width)) < 0.3
        rows[picks] = rng.choice(edges, picks.sum())
        rows[rng.random(count) < 0.1] = math.nan
        if count:
            rows[-1] = math.nan
        columns = [f"c{k}" for k in range(width)]
        want = [",".join(columns)]
        want.extend(",".join(map(cli._format_cell, row)) for row in rows.tolist())
        assert cli._csv_text({}, columns, rows, {}) == "\n".join(want) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        FLOATS, st.booleans(), st.none(), st.integers(),
        st.text(st.characters(blacklist_characters=",\n\r"), max_size=8),
        FLOATS.map(np.float64),
    ), min_size=3, max_size=3), max_size=20))
    def test_mixed_rows_match_cell_by_cell_reference(self, rows):
        columns = ["a", "b", "c"]
        want = reference_csv(HEADER, columns, rows, {})
        assert written(HEADER, columns, rows, {}) == want

    def test_peak_memory_per_row(self, tmp_path):
        samples = 20001
        options = cli._resolve("spectrum", {
            "family": "lorentzian", "width": 1.6, "gamma_perp": 0.2,
            "kappa": 2.0, "g_ens": 1.0, "p": -1, "delta_e_samples": samples,
        })
        columns, rows, header, trailer = cli._EXPERIMENTS["spectrum"].compute(options)
        assert rows.shape == (samples, 5)
        tracemalloc.start()
        try:
            cli._write(str(tmp_path / "spectrum.csv"), header, columns, rows, trailer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._ROW_BYTES * samples

    def test_in_process_runs_match_a_fresh_process(self, tmp_path):
        # main() reuses one parser per process, as the figure bundle and
        # the benchmark client do when they call it many times
        assert cli._build_parser() is cli._build_parser()
        runs = {name: SMALL[name] for name in ("decay", "spectrum")}
        for name, args in runs.items():
            assert run_cli(args + ["--out", tmp_path / f"{name}-main.csv"]) == 0
        for name, args in runs.items():
            result = subprocess.run(
                [sys.executable, "-m", "spincavity", *args,
                 "--out", str(tmp_path / f"{name}-fresh.csv")],
                capture_output=True, text=True, env=source_env(),
            )
            assert result.returncode == 0, result.stderr
        for name in runs:
            for suffix in (".csv", ".csv.manifest.json"):
                main_bytes = (tmp_path / f"{name}-main{suffix}").read_bytes()
                assert main_bytes == (tmp_path / f"{name}-fresh{suffix}").read_bytes()


class TestConfigResolution:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "family = lorentzian\nwidth = 1.6\ngamma-perp = 0.2\n"
            "kappa = 8\ng_ens = 2\nm = 41\nt_max = 2\nt_samples = 5\n"
            "# comment line\n"
        )
        out = tmp_path / "out.csv"
        code = run_cli([
            "decay", "--config", config, "--kappa", "4", "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["kappa"] == 4.0
        assert manifest["g_ens"] == 2.0
        assert manifest["m"] == 41

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        # as Windows editors write it: the mark is no part of the first key
        text = "kappa = 4\ngamma_perp = 0.5\ng_ens = 2\nm = 21\nt_samples = 5\n"
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(text, encoding=encoding)
            argv = ["decay", "--family", "gaussian", "--width", "1",
                    "--config", config, "--out", tmp_path / f"{name}.csv"]
            assert run_cli(argv) == 0
        assert (tmp_path / "marked.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        for suffix in ("", ".manifest.json"):
            assert ((tmp_path / f"plain.csv{suffix}").read_bytes()
                    == (tmp_path / f"marked.csv{suffix}").read_bytes())

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("kapa = 8\n")
        code = run_cli([
            "decay", "--config", config, "--out", tmp_path / "x.csv",
        ])
        assert code == 2

    def test_normalize_gamma_solves_width(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run_cli(LOR_DECAY[:1] + [
            "--family", "lorentzian", "--normalize-gamma", "--gamma-perp",
            "0.25", "--kappa", "8", "--g-ens", "2", "--m", "41",
            "--t-max", "1", "--t-samples", "3", "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["width"] == pytest.approx(2 * (1 - 0.25), rel=1e-12)
        meta, _, _, _ = read_table(out)
        assert meta["Gamma"] == "1"

    def test_manifest_records_resolved_defaults(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(LOR_DECAY + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        for key in (
            "experiment", "family", "width", "m", "kappa", "gamma_perp",
            "g_ens", "delta_cs", "p", "normalize_gamma", "alpha", "t_max",
            "t_samples", "columns", "package_version",
        ):
            assert key in manifest
        assert manifest["p"] == 1
        assert "timestamp" not in manifest
        # only spectrum reads the mirror rates, resolved to kappa / 2 each
        assert run_cli(SMALL["spectrum"] + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["kappa1"] == manifest["kappa2"] == 1.0

    @pytest.mark.parametrize(
        "experiment, line",
        [
            ("decay", "experiment = moments"),
            ("decay", "t_samples = 2.5"),
            ("decay", "family = triangle"),
            ("decay", "p = 2"),
            ("decay", "normalize_gamma = yes"),
            ("decay", "alpha = nan"),
            ("stability-sweep", "g_samples = 0"),
            ("spectrum", "m = 41"),
            # a width the run would replace, with the flag or as a key
            ("pole", "width = 3"),
            ("spectrum", "normalize_gamma = true"),
            ("stability-sweep", "width = 1.6"),
        ],
    )
    def test_bad_config_value_is_precondition_failure(
        self, tmp_path, experiment, line
    ):
        # values go through the flag parsers; a key the experiment does
        # not read is an unknown key
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        argv = SMALL[experiment] + ["--config", config, "--out", tmp_path / "x.csv"]
        assert run_cli(argv) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_may_name_the_output(self, tmp_path):
        out = tmp_path / "from_config.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"out = {out}\nnormalize_gamma = true\n")
        argv = ["pole", "--family", "gaussian", "--config", config]
        assert run_cli(argv) == 0
        manifest = json.loads((tmp_path / "from_config.csv.manifest.json").read_text())
        assert manifest["normalize_gamma"] is True

    @pytest.mark.parametrize("experiment", list(SMALL))
    def test_manifest_keys_are_the_table_options(self, tmp_path, experiment):
        out = tmp_path / "x.csv"
        assert run_cli(SMALL[experiment] + ["--out", out]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        expected = (
            set(cli._EXPERIMENTS[experiment].options)
            | {"experiment", "package_version", "columns"}
            | ADDED_KEYS[experiment]
        )
        assert set(manifest) == expected
        # the CSV carries every manifest key except the column list
        meta, columns, _, trailing = read_table(out)
        assert set(meta) | set(trailing) == expected - {"columns"}
        assert manifest["columns"] == columns

    def test_stdout_output(self, capsys):
        assert run_cli(LOR_DECAY + ["--out", "-"]) == 0
        captured = capsys.readouterr()
        assert "X_c_sim" in captured.out


class TestExitCodes:
    def test_missing_width_is_precondition_failure(self, tmp_path):
        code = run_cli([
            "decay", "--family", "gaussian", "--gamma-perp", "0",
            "--kappa", "8", "--g-ens", "2", "--out", tmp_path / "x.csv",
        ])
        assert code == 2

    def test_numerical_failure_maps_to_3(self, tmp_path, monkeypatch):
        def explode(options):
            raise NumericalError("synthetic failure")

        entry = cli._EXPERIMENTS["decay"]._replace(compute=explode)
        monkeypatch.setitem(cli._EXPERIMENTS, "decay", entry)
        code = run_cli(LOR_DECAY + ["--out", tmp_path / "x.csv"])
        assert code == 3

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [
            ("pole", "--p", "-1"),
            ("pole", "--delta-cs", "3"),
            ("pole", "--m", "41"),
            ("pole", "--n-spins", "1e6"),
            ("spectrum", "--m", "1001"),
            ("spectrum", "--n-spins", "1e6"),
            ("stability-sweep", "--t-samples", "9"),
            ("stability-sweep", "--kappa", "8"),
            ("stability-sweep", "--g-ens", "2"),
            ("stability-sweep", "--kappa1", "4"),
            ("stability-sweep", "--kappa2", "4"),
            # the mirror split enters only the probe's input-output relations
            ("decay", "--kappa1", "4"),
            ("decay", "--kappa2", "4"),
            ("moments", "--kappa1", "4"),
            ("moments", "--kappa2", "4"),
            ("pole", "--kappa1", "4"),
            ("pole", "--kappa2", "4"),
            # the kicked field and the spectrum read g_m^2 N_m alone
            ("decay", "--n-spins", "1e6"),
            ("stability-sweep", "--n-spins", "1e6"),
            # the windowed verdict compares the envelope early against late
            ("stability-sweep", "--alpha", "0"),
        ],
    )
    def test_flag_the_run_does_not_read_is_rejected(
        self, tmp_path, capsys, experiment, flag, value
    ):
        with pytest.raises(SystemExit) as info:
            run_cli(SMALL[experiment] + [flag, value, "--out", tmp_path / "x.csv"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (LOR_DECAY + ["--alpha", "nan"], "--alpha"),
            (SMALL["decay"] + ["--alpha", "inf"], "--alpha"),
            (SMALL["moments"] + ["--theta", "nan"], "--theta"),
            (SMALL["moments"] + ["--theta", "inf"], "--theta"),
            (SMALL["spectrum"] + ["--delta-e-min", "nan"], "--delta-e-min"),
            (LOR_DECAY + ["--t-max", "inf"], "--t-max"),
            (SMALL["stability-sweep"] + ["--g-samples", "-1"], "--g-samples"),
            (SMALL["stability-sweep"] + ["--g-samples", "0"], "--g-samples"),
            (SMALL["stability-sweep"] + ["--kappa-samples", "0"],
             "--kappa-samples"),
            (SMALL["moments"] + ["--n-spins", "inf"], "--n-spins"),
            (SMALL["moments"] + ["--n-spins", "nan"], "--n-spins"),
            (SMALL["pole"] + ["--kappa", "1.4e154"], "kappa=1.4e+154"),
            # --normalize-gamma solves the width, a homogeneous line has none
            (SMALL["pole"] + ["--width", "3"],
             "--width conflicts with --normalize-gamma"),
            (SMALL["stability-sweep"] + ["--width", "0"],
             "--width conflicts with --family homogeneous"),
            # a homogeneous line is one sub-ensemble, whatever --m says
            *(([name, "--family", "homogeneous", "--gamma-perp", "1", "--m", m],
               f"--m {m} conflicts with --family homogeneous")
              for name in ("decay", "moments") for m in ("7", "-4")),
            # a value that reads as a negative number, not as an option
            (SMALL["spectrum"] + ["--delta-e-min", "-inf"],
             "argument --delta-e-min: expected a finite number, got '-inf'"),
        ],
    )
    def test_bad_value_exits_2_and_names_it(self, tmp_path, capsys, argv, name):
        # argparse exits 2 itself; a failed precondition returns 2
        try:
            code = run_cli(argv + ["--out", tmp_path / "x.csv"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_exponent_notation_is_a_value(self, tmp_path):
        # argparse reads "-5e-1" as an option unless told otherwise
        outs = [tmp_path / "exponent.csv", tmp_path / "decimal.csv"]
        for value, out in zip(("-5e-1", "-0.5"), outs):
            assert run_cli(LOR_DECAY + ["--delta-cs", value, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_argparse_rejects_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli([
                "decay", "--family", "triangle", "--out", tmp_path / "x.csv",
            ])
        assert info.value.code == 2

    def test_missing_out_is_precondition_failure(self):
        assert run_cli(LOR_DECAY) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["decay", "--family", "lorentzian", "--width", "1",
              "--t-samples", "100000000"], "--t-samples"),
            (["moments", "--family", "homogeneous", "--gamma-perp", "1",
              "--t-samples", "100000000"], "--t-samples"),
            (SMALL["spectrum"] + ["--delta-e-samples", "1000000000"],
             "--delta-e-samples"),
            (["stability-sweep", "--family", "homogeneous", "--gamma-perp", "1",
              "--g-samples", "10000000", "--kappa-samples", "10000000"],
             "--g-samples x --kappa-samples"),
        ],
        ids=["decay", "moments", "spectrum", "stability-sweep"],
    )
    def test_oversized_sample_grid_names_the_budget(
        self, tmp_path, capsys, monkeypatch, argv, flag
    ):
        linspace = np.linspace

        def bounded(start, stop, num=50, **kwargs):
            assert num <= 10**6, "the budget check must run first"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", bounded)
        assert run_cli(argv + ["--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert "256 MiB sample budget" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("experiment, flags, line", [
        *[(experiment, ["--" + key.replace("_", "-"), value], None)
          for experiment, key, value in REJECTED],
        *[(experiment, [], f"{key} = {value}")
          for experiment, key, value in REJECTED],
        ("pole", [], "kappa 8"),  # a config line with no '='
    ])
    def test_rejected_value_exits_2(self, tmp_path, capsys, experiment, flags, line):
        argv = BARE[experiment] + flags + ["--out", tmp_path / "x.csv"]
        if line is not None:
            config = tmp_path / "run.cfg"
            config.write_text(line + "\n")
            argv += ["--config", config]
        if flags and flags[1] == "abc":
            # a flag value its parser rejects: argparse's own exit 2
            with pytest.raises(SystemExit) as info:
                run_cli(argv)
            assert info.value.code == 2
            assert flags[0] in capsys.readouterr().err
        else:
            assert run_cli(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_unreadable_config_is_precondition_failure(self, tmp_path, capsys):
        for config in (tmp_path / "missing.cfg", tmp_path):
            code = run_cli(SMALL["pole"] + [
                "--config", config, "--out", tmp_path / "x.csv",
            ])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: cannot read --config")
        assert not (tmp_path / "x.csv").exists()

    def test_out_in_missing_directory_is_precondition_failure(
        self, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(SMALL["pole"] + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out")

    @pytest.mark.parametrize("argv", [
        ["moments", "--gamma-perp", "0.2"],
        ["stability-sweep", "--gamma-perp", "0"],
    ], ids=["moments", "stability-sweep"])
    def test_oversized_grid_names_the_budget(self, tmp_path, capsys,
                                             monkeypatch, argv):
        # the budget bounds one dense (M+1)^2 complex array; every M that
        # builds one in the tests, scripts and benchmark fits it.  Both
        # experiments build one only when the residues fail their gate
        limit = math.isqrt(dynamics._DENSE_BYTE_BUDGET // 16) - 1
        assert limit >= 801
        m = limit + 2
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        tracemalloc.start()
        try:
            code = run_cli(argv + [
                "--family", "gaussian", "--normalize-gamma", "--m", m,
                "--out", tmp_path / "x.csv",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "16 MiB budget" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        # refused before the dense fallback: nothing as large as one
        # (M+1)^2 complex array
        assert peak < 16 * (m + 1) ** 2

    def test_moments_take_a_grid_over_the_dense_budget(self, tmp_path):
        # the means, the folded steady state, its O(M^2) check and the
        # track build no (M+1)^2 array: at M = 2001 one would take 64 MB
        m = 2001
        assert 16 * (m + 1) ** 2 > dynamics._DENSE_BYTE_BUDGET
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli([
                "moments", "--family", "gaussian", "--normalize-gamma",
                "--gamma-perp", "0.02", "--m", m, "--t-samples", "201",
                "--out", out,
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        meta, _, rows, _ = read_table(out)
        assert meta["moment_fallbacks"] == "0"
        assert len(rows) == 201 and all(cell != "" for cell in rows[-1][:5])
        assert peak < 16 * (m + 1) ** 2

    def test_decay_is_charged_only_for_what_it_stores(self, tmp_path, capsys):
        # the residue expansion stores no per-site mean series: at M =
        # 100001 one of 201 samples would take 306.8 MiB, over the sample
        # budget, which moments, storing it, still refuses
        argv = ["--family", "lorentzian", "--width", "2", "--gamma-perp", "0",
                "--kappa", "2", "--g-ens", "1", "--m", "100001", "--t-max", "5",
                "--t-samples", "201", "--out", tmp_path / "out.csv"]
        assert run_cli(["decay", *argv]) == 0
        meta, _, rows, _ = read_table(tmp_path / "out.csv")
        assert meta["kick_response_fallbacks"] == "0" and len(rows) == 201
        assert run_cli(["moments", *argv]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --t-samples 201 needs 306.8 MiB at 1600544 bytes per sample")

    @pytest.mark.parametrize(
        "argv, fallbacks",
        [
            (["decay"], ["kick_response_fallbacks"]),
            (["stability-sweep", "--g-samples", "3", "--kappa-samples", "3"],
             ["kick_response_fallbacks"]),
        ],
        ids=["decay", "stability-sweep"],
    )
    def test_kicked_field_takes_a_grid_over_the_dense_budget(
        self, tmp_path, argv, fallbacks
    ):
        # the secular solve and the residue expansion build no (M+1)^2
        # array: at M = 2001 one would take 64 MB
        m = 2001
        assert 16 * (m + 1) ** 2 > dynamics._DENSE_BYTE_BUDGET
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli(argv + [
                "--family", "gaussian", "--normalize-gamma", "--gamma-perp",
                "0", "--m", m, "--out", out,
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        meta = read_table(out)[0]
        assert [meta[key] for key in fallbacks] == ["0"] * len(fallbacks)
        assert peak < (m + 1) ** 2


class TestFigureBundle:
    def test_fast_bundle_writes_a_manifest_beside_every_csv(
        self, tmp_path, monkeypatch
    ):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        monkeypatch.setattr(
            sys, "argv", [str(script), "--outdir", str(tmp_path), "--fast"]
        )
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:  # the script exits only on a failed run
            pytest.fail(f"bundle exited: {exc.code}")
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 17
        for path in csvs:
            assert Path(str(path) + ".manifest.json").is_file()
