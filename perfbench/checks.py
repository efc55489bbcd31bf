"""Output checks: each experiment's CSV against an oracle off its code path.

* ``decay-lorentzian``: the DP45 cavity trace against the two-pole closed
  form in the same file, peak-normalized error <= 1e-3 (the tolerance
  of acceptance test 1).
* ``decay-gaussian``: the DP45 trace against the Newton pole tail of the
  continuum pole condition, on the rows where the tail is defined.
* ``moments``: the mean columns against ``expm`` of the drift on the
  output grid; for the homogeneous line also the variance and ``R``
  columns against ``steady_state_moments_hom`` plus ``expm`` of the
  six-moment system.
* ``spectrum``: every row against the transfer function evaluated with
  ``scipy.special.wofz``, and the resonant transmission fed to
  ``estimate_pC`` must give back ``p * C``.
* ``stability-sweep``: ``Gamma`` and ``C`` recomputed with ``wofz``,
  ``stable_analytic == (C < 1)``, and ``stable_analytic ==
  stable_numeric`` outside the band ``1/1.5 <= C <= 1.5``; inside the
  band a disagreement is counted, not failed.
* ``pole``: ``abs_residual <= 1e-10 kappa`` as printed, and the pole
  condition re-evaluated with ``wofz`` at the printed root.

Every check returns ``(ok, detail, band_mismatches)``.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
from scipy.linalg import expm
from scipy.special import wofz

from spincavity.analytics import steady_state_moments_hom
from spincavity.broadening import BroadeningSpec, discretize
from spincavity.model import SystemParams, build_drift_matrix, build_homogeneous_Q, initial_state
from spincavity.probing import estimate_pC

SQRT2 = math.sqrt(2.0)
BAND = (1.0 / 1.5, 1.5)


def read_csv(path):
    """(columns, rows) of a CLI CSV, skipping ``#`` lines; rows hold strings."""
    with open(path, encoding="utf-8") as fh:
        table = [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]
    return table[0], table[1:]


def _column(columns, rows, name) -> np.ndarray:
    k = columns.index(name)
    return np.array([float(row[k]) if row[k] else np.nan for row in rows])


def _gamma(manifest) -> float:
    """Characteristic width from ``wofz``, independent of the package."""
    family, width, gp = manifest["family"], manifest["width"], manifest["gamma_perp"]
    if family == "homogeneous":
        return gp
    if family == "lorentzian":
        return width / 2.0 + gp
    return math.sqrt(2.0 / math.pi) * width / wofz(1j * gp / (SQRT2 * width)).real


def _overlap(manifest, delta):
    family, width, gp = manifest["family"], manifest["width"], manifest["gamma_perp"]
    if family == "gaussian":
        z = (delta + 1j * gp) / (SQRT2 * width)
        return math.sqrt(math.pi / 2.0) * wofz(z) / width
    if family == "lorentzian":
        return 1.0 / (width / 2.0 + gp - 1j * delta)
    return 1.0 / (gp - 1j * delta)


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _decay_lorentzian(manifest, columns, rows):
    err = _rel_err(
        _column(columns, rows, "X_c_sim"), _column(columns, rows, "X_c_lorentzian_analytic")
    )
    return err <= 1e-3, f"peak-normalized error {err:.2e} (<= 1e-3)", 0


def _decay_gaussian(manifest, columns, rows):
    sim = _column(columns, rows, "X_c_sim")
    tail = _column(columns, rows, "X_c_pole_tail")
    start = SQRT2 * manifest["alpha"]
    if not np.all(np.isfinite(sim)) or abs(sim[0] - start) > 1e-12 * abs(start):
        return False, "trace not finite or X_c(0) != sqrt(2) alpha", 0
    window = np.isfinite(tail)
    if not window.any():
        return False, "pole tail missing (pole search unconverged)", 0
    err = float(np.max(np.abs(sim[window] - tail[window])) / np.max(np.abs(sim)))
    return err <= 1e-2, f"pole-tail error {err:.2e} of the trace peak (<= 1e-2)", 0


def _moments(manifest, columns, rows):
    times = _column(columns, rows, "t")
    spec = BroadeningSpec(manifest["family"], manifest["width"])
    params = SystemParams(
        kappa=manifest["kappa"], gamma_perp=manifest["gamma_perp"],
        g_ens=manifest["g_ens"], delta_cs=manifest["delta_cs"],
    )
    n_spins = manifest["n_spins"]
    grid = discretize(spec, manifest["m"], params.g_ens, n_spins)
    drift = build_drift_matrix(params, grid, manifest["p"]).drift
    y0, _ = initial_state("tilted-spin", grid, theta=manifest["theta"])
    step = expm(drift * (times[1] - times[0]))
    means = [y0]
    for _ in range(times.size - 1):
        means.append(step @ means[-1])
    means = np.array(means)
    ix = 2 + 2 * np.arange(grid.size)
    sx = means[:, ix].sum(axis=1)
    worst = max(
        _rel_err(_column(columns, rows, "Sx_over_Sx0"), sx / sx[0]),
        _rel_err(_column(columns, rows, "Pc"), means[:, 1]),
    )
    detail = f"means vs expm {worst:.2e} (<= 1e-6)"
    ok = worst <= 1e-6
    if manifest["family"] == "homogeneous":
        # six-moment system x' = Q x + r relaxing to the closed-form
        # steady state; variances in units of the CSV columns
        q, _ = build_homogeneous_Q(params, n_spins)
        x_ss = np.array(steady_state_moments_hom(
            params.kappa, params.gamma_perp, params.g_ens, n_spins
        ))
        x0 = np.array([0.5, 0.5, n_spins, n_spins, 0.0, 0.0])
        xs = np.array([x_ss + expm(q * t) @ (x0 - x_ss) for t in times])
        var_err = max(
            float(np.max(np.abs(_column(columns, rows, "VarSx_over_N_minus_1")
                                - (xs[:, 2] / n_spins - 1.0)))),
            float(np.max(np.abs(_column(columns, rows, "twoVarPc_minus_1")
                                - (2.0 * xs[:, 1] - 1.0)))),
            float(np.max(np.abs(_column(columns, rows, "R")
                                - (x_ss[2] - xs[:, 2]) / (x_ss[2] - x0[2])))),
        )
        ok = ok and var_err <= 1e-6
        detail += f"; variances vs steady_state_moments_hom {var_err:.2e} (<= 1e-6)"
    return ok, detail, 0


def _spectrum(manifest, columns, rows):
    if manifest["invalid_rows"]:
        return False, f"{manifest['invalid_rows']} invalid rows", 0
    delta = _column(columns, rows, "delta_e")
    k1, k2, kappa = manifest["kappa1"], manifest["kappa2"], manifest["kappa"]
    p, g = manifest["p"], manifest["g_ens"]
    den = kappa - 1j * delta - p * g * g * _overlap(manifest, delta)
    t_want = 2.0 * math.sqrt(k1 * k2) / den
    r_want = 2.0 * k1 / den - 1.0
    t_got = _column(columns, rows, "re_t") + 1j * _column(columns, rows, "im_t")
    r_got = _column(columns, rows, "re_r") + 1j * _column(columns, rows, "im_r")
    err = max(_rel_err(t_got, t_want), _rel_err(r_got, r_want))
    res = int(np.argmin(np.abs(delta)))
    pc_want = p * g * g / (kappa * _gamma(manifest))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pc_got = estimate_pC(t_got[res], "transmission", k1, k2)
    pc_err = abs(pc_got - pc_want) / max(1.0, abs(pc_want))
    ok = err <= 1e-8 and pc_err <= 1e-8 and abs(delta[res]) <= 1e-9 * np.ptp(delta)
    return ok, f"rows vs wofz {err:.2e}, resonant pC error {pc_err:.2e} (<= 1e-8)", 0


def _stability_sweep(manifest, columns, rows):
    g = _column(columns, rows, "g_ens")
    kappa = _column(columns, rows, "kappa")
    gamma = _gamma(manifest)
    c_want = g * g / (kappa * gamma)
    err = max(
        _rel_err(_column(columns, rows, "Gamma"), np.full(g.shape, gamma)),
        _rel_err(_column(columns, rows, "C"), c_want),
    )
    k_an, k_num = columns.index("stable_analytic"), columns.index("stable_numeric")
    analytic = np.array([row[k_an] == "true" for row in rows])
    numeric = np.array([row[k_num] == "true" for row in rows])
    in_band = (c_want >= BAND[0]) & (c_want <= BAND[1])
    disagree = analytic != numeric
    outside = int(np.sum(disagree & ~in_band))
    inside = int(np.sum(disagree & in_band))
    ok = err <= 1e-12 and np.array_equal(analytic, c_want < 1.0) and outside == 0
    detail = (
        f"Gamma/C error {err:.2e}; {outside} verdict mismatches outside "
        f"{BAND[0]:.3f} <= C <= {BAND[1]:.3f}, {inside} inside"
    )
    return ok, detail, inside


def _pole(manifest, columns, rows):
    kappa, gp, g = manifest["kappa"], manifest["gamma_perp"], manifest["g_ens"]
    sigma = manifest["width"]
    worst_printed = worst_oracle = 0.0
    k_re, k_im, k_res = (columns.index(n) for n in ("lambda_re", "lambda_im", "abs_residual"))
    for row in rows:
        lam = complex(float(row[k_re]), float(row[k_im]))
        z = 1j * (lam + gp) / (SQRT2 * sigma)
        residual = lam + kappa - math.sqrt(math.pi / 2.0) * g * g / sigma * wofz(z)
        worst_printed = max(worst_printed, float(row[k_res]) / kappa)
        worst_oracle = max(worst_oracle, abs(residual) / kappa)
    ok = len(rows) == 2 and worst_printed <= 1e-10 and worst_oracle <= 1e-9
    return ok, f"|F|/kappa printed {worst_printed:.1e} (<= 1e-10), wofz {worst_oracle:.1e} (<= 1e-9)", 0


CHECKS = {
    "decay-lorentzian": _decay_lorentzian,
    "decay-gaussian": _decay_gaussian,
    "moments": _moments,
    "spectrum": _spectrum,
    "stability-sweep": _stability_sweep,
    "pole": _pole,
}


def check(kind: str, csv_path: str):
    """Run the named check on one CLI output and its manifest."""
    try:
        with open(csv_path + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        columns, rows = read_csv(csv_path)
        ok, detail, band = CHECKS[kind](manifest, columns, rows)
        return bool(ok), detail, int(band)
    except Exception as exc:  # an output the oracle cannot digest fails its check
        return False, f"check raised {type(exc).__name__}: {exc}", 0


# the program output each check judges; the smoke test damages it
PRIMARY = {
    "decay-lorentzian": "X_c_sim",
    "decay-gaussian": "X_c_sim",
    "moments": "Sx_over_Sx0",
    "spectrum": "re_t",
    "stability-sweep": "C",
    "pole": "lambda_re",
}


def corrupt(kind: str, csv_path: str) -> None:
    """Damage the judged cell of the middle data row (smoke test only)."""
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    column = lines[data[0]].split(",").index(PRIMARY[kind])
    target = data[1:][len(data[1:]) // 2]
    cells = lines[target].split(",")
    cells[column] = repr(float(cells[column]) * 1.5 + 1.0)
    lines[target] = ",".join(cells)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
