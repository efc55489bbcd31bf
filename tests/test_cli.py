"""End-to-end checks of the command line: schemas, determinism, codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spincavity
import spincavity.dynamics as dynamics
from spincavity import (
    BroadeningSpec,
    NumericalError,
    SystemParams,
    build_drift_matrix,
    discretize,
    gaussian_pole,
    initial_state,
    pole_seeds,
)
from spincavity import cli

from conftest import expm_mean, fit_exponential_rate

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


LOR_DECAY = [
    "decay", "--family", "lorentzian", "--width", "1.6", "--gamma-perp",
    "0.2", "--kappa", "8", "--g-ens", "2", "--m", "41", "--t-max", "4",
    "--t-samples", "9",
]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli(LOR_DECAY + ["--out", path]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        first = (tmp_path / "a.csv.manifest.json").read_bytes()
        second = (tmp_path / "b.csv.manifest.json").read_bytes()
        assert first == second


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
        )
        assert rate == pytest.approx(root.real, rel=0.05)

    @pytest.mark.parametrize(
        "experiment", ["decay", "stability-sweep"],
    )
    def test_revival_guard_maps_to_exit_2(self, tmp_path, experiment):
        code = run_cli([
            experiment, "--family", "gaussian", "--normalize-gamma",
            "--gamma-perp", "0", "--kappa", "8", "--g-ens", "2",
            "--m", "25", "--t-max", "5", "--out", tmp_path / "x.csv",
        ])
        assert code == 2


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
        assert columns == [
            "delta_e", "re_t", "im_t", "abs_t2", "re_r", "im_r", "abs_r2",
        ]
        assert meta["invalid_rows"] == "0"
        for row in rows:
            re_t, im_t, abs_t2 = cell(row[1]), cell(row[2]), cell(row[3])
            assert abs_t2 == pytest.approx(re_t**2 + im_t**2, rel=1e-12)
            assert cell(row[3]) + cell(row[6]) <= 1.0 + 1e-9

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


class TestStabilitySweep:
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
            grid = discretize(spec, 41, g, manifest["n_spins"])
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

    def test_zero_kick_gives_no_stable_verdict(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(self.WINDOWED + ["--alpha", "0", "--out", out]) == 0
        _, _, rows, _ = read_table(out)
        assert [row[6] for row in rows] == ["false"] * 16

    def test_fallbacks_counted_with_unchanged_verdicts(self, tmp_path,
                                                       monkeypatch):
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
        package_root = str(Path(spincavity.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        out = tmp_path / "pole.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "spincavity", "pole", "--family",
                "gaussian", "--normalize-gamma", "--gamma-perp", "0",
                "--kappa", "8", "--g-ens", "2", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
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
            "experiment", "family", "width", "m", "kappa", "kappa1",
            "kappa2", "gamma_perp", "g_ens", "delta_cs", "p", "n_spins",
            "normalize_gamma", "alpha", "t_max", "t_samples", "columns",
            "package_version",
        ):
            assert key in manifest
        assert manifest["kappa1"] == 4.0
        assert manifest["p"] == 1
        assert "timestamp" not in manifest

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
        def explode(config):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "decay", explode)
        code = run_cli(LOR_DECAY + ["--out", tmp_path / "x.csv"])
        assert code == 3

    def test_argparse_rejects_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli([
                "decay", "--family", "triangle", "--out", tmp_path / "x.csv",
            ])
        assert info.value.code == 2

    def test_missing_out_is_precondition_failure(self):
        assert run_cli(LOR_DECAY) == 2

    def test_oversized_grid_names_the_budget(self, tmp_path, capsys):
        # every M the tests, scripts and benchmark use fits the budget
        assert cli._M_LIMIT >= 601
        too_big = str(cli._M_LIMIT + 2)
        code = run_cli([
            "decay", "--family", "lorentzian", "--width", "2",
            "--gamma-perp", "0", "--m", too_big, "--out", tmp_path / "x.csv",
        ])
        assert code == 2
        assert "16 MiB budget" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
