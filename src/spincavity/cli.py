"""Command-line front end.

Five deterministic experiments, each emitting a CSV table plus a JSON
manifest sidecar recording every resolved parameter:

* ``decay``           kicked-cavity mean-field decay curves
* ``moments``         tilted-spin variance dynamics and relaxation ratio
* ``spectrum``        probe reflection/transmission scan
* ``stability-sweep`` analytic vs discretized stability verdicts
* ``pole``            decay-rate roots of the Gaussian pole condition

CSV format: a ``#``-prefixed ``key=value`` header block (sorted keys),
one column-name row, comma-separated data rows with floats printed at
17 significant digits; undefined cells are empty.  Exit codes:
0 success, 2 precondition failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .analytics import (
    gaussian_pole,
    lorentzian_kick_response,
    pole_seeds,
    stability_report,
    steady_state_moments_hom,
    weak_coupling_response,
    _pole_function,
)
from .broadening import (
    BroadeningFamily,
    BroadeningSpec,
    characteristic_width,
    discretize,
    solve_width_for_gamma,
)
from .dynamics import (
    collective_reduce,
    drift_eigenvalues,
    evolve_covariance,
    evolve_mean,
    field_kick_response,
)
from .errors import (
    ConvergenceError,
    NumericalError,
    PreconditionError,
    UnstableModelError,
)
from .model import SystemParams, build_drift_matrix, initial_state
from .probing import spectrum_scan

__all__ = ["RunConfig", "main"]

_SQRT2 = math.sqrt(2.0)

_FAMILY_CHOICES = tuple(f.value for f in BroadeningFamily)

# per-experiment defaults for fields left unset by flags and config
_GRID_DEFAULTS = {
    "decay": {"gaussian": 601, "lorentzian": 401, "homogeneous": 1},
    "moments": {"gaussian": 201, "lorentzian": 201, "homogeneous": 1},
    "spectrum": {"gaussian": 601, "lorentzian": 401, "homogeneous": 1},
    "stability-sweep": {"gaussian": 101, "lorentzian": 101, "homogeneous": 1},
    "pole": {"gaussian": 1, "lorentzian": 1, "homogeneous": 1},
}

# the dense float64 drift has (2M + 2)^2 entries; covariance runs hold
# several arrays four times its size
_DRIFT_BYTE_BUDGET = 16 * 2**20
_M_LIMIT = (math.isqrt(_DRIFT_BYTE_BUDGET // 8) - 2) // 2


@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI run."""

    experiment: str
    out: str
    family: str = "gaussian"
    width: float | None = None
    m: int | None = None
    kappa: float = 8.0
    kappa1: float | None = None
    kappa2: float | None = None
    gamma_perp: float = 0.0
    g_ens: float = 2.0
    delta_cs: float = 0.0
    p: int = 1
    alpha: float = 1.0
    theta: float = 1e-3
    n_spins: float = 1e6
    t_max: float = 5.0
    t_samples: int = 201
    delta_e_min: float = -20.0
    delta_e_max: float = 20.0
    delta_e_samples: int = 401
    g_min: float = 0.5
    g_max: float = 5.0
    g_samples: int = 8
    kappa_min: float = 0.5
    kappa_max: float = 10.0
    kappa_samples: int = 8
    normalize_gamma: bool = False


def _parse_config_file(path: str) -> dict:
    values = {}
    valid = {f.name for f in fields(RunConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(
                    f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in valid:
                raise PreconditionError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_scalar(value.strip())
    return values


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return ""
        return "%.17g" % value
    return str(value)


def _write_csv(path, meta: dict, columns, rows, trailing: dict | None = None):
    meta = {k: v for k, v in meta.items() if not isinstance(v, (list, tuple))}
    lines = [f"# {key}={_format_cell(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    if trailing:
        lines.extend(f"# {key}={_format_cell(trailing[key])}" for key in sorted(trailing))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_manifest(out_path: str, manifest: dict):
    if out_path == "-":
        return
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve(config: RunConfig):
    """Turn a RunConfig into (params, spec, grid-M, manifest dict)."""
    family = BroadeningFamily(config.family)
    width = config.width
    if config.normalize_gamma:
        # interpret all rates in units of the characteristic width:
        # recompute the distribution width so that Gamma == 1 exactly
        width = solve_width_for_gamma(family, 1.0, config.gamma_perp)
    if family is BroadeningFamily.HOMOGENEOUS:
        width = 0.0
    if width is None:
        raise PreconditionError(
            "--width is required for broadened families unless "
            "--normalize-gamma is given"
        )
    spec = BroadeningSpec(family, width)
    params = SystemParams(
        kappa=config.kappa,
        gamma_perp=config.gamma_perp,
        g_ens=config.g_ens,
        delta_cs=config.delta_cs,
        kappa1=config.kappa1,
        kappa2=config.kappa2,
    )
    m = config.m
    if m is None:
        m = _GRID_DEFAULTS[config.experiment][family.value]
    drift_bytes = 8 * (2 * m + 2) ** 2
    if drift_bytes > _DRIFT_BYTE_BUDGET:
        raise PreconditionError(
            f"--m {m} needs a dense drift of {drift_bytes / 2**20:.1f} MiB, "
            f"over the {_DRIFT_BYTE_BUDGET // 2**20} MiB budget "
            f"(M <= {_M_LIMIT})"
        )
    manifest = {
        "experiment": config.experiment,
        "package_version": __version__,
        "family": family.value,
        "width": width,
        "m": m,
        "kappa": params.kappa,
        "kappa1": params.kappa1,
        "kappa2": params.kappa2,
        "gamma_perp": params.gamma_perp,
        "g_ens": params.g_ens,
        "delta_cs": params.delta_cs,
        "p": config.p,
        "n_spins": config.n_spins,
        "normalize_gamma": config.normalize_gamma,
    }
    return params, spec, m, manifest


def _time_grid(config: RunConfig) -> np.ndarray:
    if config.t_max <= 0 or config.t_samples < 2:
        raise PreconditionError("need t_max > 0 and t_samples >= 2")
    return np.linspace(0.0, config.t_max, config.t_samples)


def _run_decay(config: RunConfig) -> None:
    params, spec, m, manifest = _resolve(config)
    times = _time_grid(config)
    grid = discretize(spec, m, params.g_ens, config.n_spins)
    model = build_drift_matrix(params, grid, config.p)
    y0, _ = initial_state("field-kick", grid, alpha=config.alpha)
    series = evolve_mean(model, y0, times)
    x_sim = series.means[:, 0]

    Gamma = characteristic_width(spec, params.gamma_perp)
    x_lor = [None] * times.size
    x_weak = [None] * times.size
    x_pole = [None] * times.size
    trailing: dict = {}
    if spec.family in (BroadeningFamily.LORENTZIAN, BroadeningFamily.HOMOGENEOUS):
        response = lorentzian_kick_response(
            config.alpha, params.kappa, Gamma, params.g_ens, times
        )
        x_lor = list(_SQRT2 * response.real)
    if spec.family is BroadeningFamily.GAUSSIAN:
        x_weak = list(
            _SQRT2 * weak_coupling_response(config.alpha, params, spec.width, times)
        )
        seeds = pole_seeds(params, spec.width)
        try:
            lam = gaussian_pole(params, spec.width, seeds["slow"])
        except ConvergenceError:
            trailing["pole_tail"] = "unconverged"
        else:
            anchor = int(np.argmin(np.abs(times - 0.5 * config.t_max)))
            tail = x_sim[anchor] * np.exp(lam * (times - times[anchor]))
            x_pole = [
                float(tail[k].real) if k >= anchor else None
                for k in range(times.size)
            ]
            trailing["pole_rate_re"] = lam.real
            trailing["pole_rate_im"] = lam.imag
    manifest.update(
        alpha=config.alpha, t_max=config.t_max, t_samples=config.t_samples,
        Gamma=Gamma,
    )
    columns = [
        "t",
        "X_c_sim",
        "X_c_lorentzian_analytic",
        "X_c_weak_coupling",
        "X_c_pole_tail",
    ]
    rows = [
        [times[k], x_sim[k], x_lor[k], x_weak[k], x_pole[k]]
        for k in range(times.size)
    ]
    manifest["columns"] = columns
    _write_csv(config.out, manifest, columns, rows, trailing)
    _write_manifest(config.out, manifest)


def _run_moments(config: RunConfig) -> None:
    params, spec, m, manifest = _resolve(config)
    if config.theta == 0.0:
        raise PreconditionError("moments needs a nonzero tilt angle theta")
    times = _time_grid(config)
    grid = discretize(spec, m, params.g_ens, config.n_spins)
    model = build_drift_matrix(params, grid, config.p)
    y0, gamma0 = initial_state("tilted-spin", grid, theta=config.theta)
    mean_series = evolve_mean(model, y0, times)
    cov_series = evolve_covariance(model, gamma0, times, store_full=False)
    cov_series = collective_reduce(cov_series, grid)
    red = cov_series.reductions

    N = config.n_spins
    sx = mean_series.means[:, 2::2].sum(axis=1)
    pc = mean_series.means[:, 1]
    var_sx = red["var_S_x"]
    var_pc = red["var_P_c"]
    r_curve = red["R"]

    trailing: dict = {}
    var_sx_inf = red["var_S_x_inf"]
    var_pc_inf = red["var_P_c_inf"]
    if spec.family is BroadeningFamily.GAUSSIAN and not math.isnan(var_sx_inf):
        Gamma = characteristic_width(spec, params.gamma_perp)
        try:
            reference = steady_state_moments_hom(
                params.kappa, Gamma, params.g_ens, N
            )
        except UnstableModelError:
            pass
        else:
            trailing["panel_f_ratio_sx"] = (var_sx_inf / N - 1.0) / (
                reference.var_S_x / N - 1.0
            )
            trailing["panel_f_ratio_pc"] = (2.0 * var_pc_inf - 1.0) / (
                2.0 * reference.var_P_c - 1.0
            )
    manifest.update(
        theta=config.theta, t_max=config.t_max, t_samples=config.t_samples
    )
    columns = [
        "t",
        "Sx_over_Sx0",
        "Pc",
        "VarSx_over_N_minus_1",
        "twoVarPc_minus_1",
        "R",
    ]
    rows = [
        [
            times[k],
            sx[k] / sx[0],
            pc[k],
            var_sx[k] / N - 1.0,
            2.0 * var_pc[k] - 1.0,
            r_curve[k],
        ]
        for k in range(times.size)
    ]
    manifest["columns"] = columns
    manifest.update({k: v for k, v in trailing.items()})
    _write_csv(config.out, manifest, columns, rows, trailing)
    _write_manifest(config.out, manifest)


def _run_spectrum(config: RunConfig) -> None:
    params, spec, _, manifest = _resolve(config)
    if config.delta_e_samples < 2 or config.delta_e_max <= config.delta_e_min:
        raise PreconditionError("need delta_e_max > delta_e_min and >= 2 samples")
    delta_grid = np.linspace(
        config.delta_e_min, config.delta_e_max, config.delta_e_samples
    )
    table = spectrum_scan(params, spec, config.p, delta_grid)
    manifest.update(
        delta_e_min=config.delta_e_min,
        delta_e_max=config.delta_e_max,
        delta_e_samples=config.delta_e_samples,
        invalid_rows=int((~table.valid).sum()),
    )
    columns = ["delta_e", "re_t", "im_t", "abs_t2", "re_r", "im_r", "abs_r2"]
    rows = []
    for k in range(delta_grid.size):
        if table.valid[k]:
            rows.append(
                [
                    delta_grid[k],
                    table.t[k].real,
                    table.t[k].imag,
                    abs(table.t[k]) ** 2,
                    table.r[k].real,
                    table.r[k].imag,
                    abs(table.r[k]) ** 2,
                ]
            )
        else:
            rows.append([delta_grid[k], None, None, None, None, None, None])
    manifest["columns"] = columns
    _write_csv(config.out, manifest, columns, rows)
    _write_manifest(config.out, manifest)


def _run_stability_sweep(config: RunConfig) -> None:
    params, spec, m, manifest = _resolve(config)
    g_values = np.linspace(config.g_min, config.g_max, config.g_samples)
    kappa_values = np.linspace(
        config.kappa_min, config.kappa_max, config.kappa_samples
    )
    columns = [
        "g_ens",
        "kappa",
        "Gamma",
        "C",
        "spectral_abscissa_discrete",
        "stable_analytic",
        "stable_numeric",
    ]
    windowed = (
        spec.family is BroadeningFamily.GAUSSIAN and params.gamma_perp == 0.0
    )
    # eigenvalues of the undamped uniform grid carry a small positive
    # artifact; the windowed verdict judges by the kicked cavity
    # envelope instead (spin coherences never decay at gamma_perp = 0)
    times = np.linspace(0.0, config.t_max, 101)
    fifth = max(2, times.size // 5)
    kick = _SQRT2 * config.alpha  # X_c(0) of the field-kick state
    fallbacks = 0
    rows = []
    for g in g_values:
        grid = discretize(spec, m, g, config.n_spins)
        for kappa in kappa_values:
            point = SystemParams(
                kappa=kappa,
                gamma_perp=params.gamma_perp,
                g_ens=g,
                delta_cs=params.delta_cs,
            )
            report = stability_report(point, spec)
            model = build_drift_matrix(point, grid, config.p)
            eigenvalues = drift_eigenvalues(model)
            abscissa = float(eigenvalues.real.max())
            if windowed:
                response, fallback = field_kick_response(
                    model, eigenvalues, times
                )
                fallbacks += fallback
                envelope = np.abs(kick * response)
                numeric = bool(envelope[-fifth:].max() < envelope[:fifth].max())
            else:
                numeric = bool(abscissa < 0.0)
            rows.append(
                [
                    g,
                    kappa,
                    report.Gamma,
                    report.C,
                    abscissa,
                    bool(report.stable),
                    numeric,
                ]
            )
    manifest.update(
        g_min=config.g_min,
        g_max=config.g_max,
        g_samples=config.g_samples,
        kappa_min=config.kappa_min,
        kappa_max=config.kappa_max,
        kappa_samples=config.kappa_samples,
        t_max=config.t_max,
        windowed_verdict=windowed,
        kick_response_fallbacks=fallbacks,
        columns=columns,
    )
    _write_csv(config.out, manifest, columns, rows)
    _write_manifest(config.out, manifest)


def _run_pole(config: RunConfig) -> None:
    params, spec, _, manifest = _resolve(config)
    if spec.family is not BroadeningFamily.GAUSSIAN:
        raise PreconditionError("the pole experiment requires the gaussian family")
    seeds = pole_seeds(params, spec.width)
    columns = [
        "seed_label",
        "seed_re",
        "seed_im",
        "lambda_re",
        "lambda_im",
        "abs_residual",
    ]
    rows = []
    for label in ("slow", "fast"):
        seed = seeds[label]
        root = gaussian_pole(params, spec.width, seed)
        residual, _ = _pole_function(
            root, params.kappa, params.gamma_perp, params.g_ens, spec.width
        )
        rows.append([label, seed.real, seed.imag, root.real, root.imag, abs(residual)])
    manifest["columns"] = columns
    _write_csv(config.out, manifest, columns, rows)
    _write_manifest(config.out, manifest)


_RUNNERS = {
    "decay": _run_decay,
    "moments": _run_moments,
    "spectrum": _run_spectrum,
    "stability-sweep": _run_stability_sweep,
    "pole": _run_pole,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config file")
    shared.add_argument("--out", help="output CSV path ('-' for stdout)")
    shared.add_argument("--m", type=int, help="number of sub-ensembles")
    shared.add_argument("--family", choices=_FAMILY_CHOICES)
    shared.add_argument("--width", type=float, help="FWHM (lorentzian) or std dev (gaussian)")
    shared.add_argument("--kappa", type=float)
    shared.add_argument("--kappa1", type=float)
    shared.add_argument("--kappa2", type=float)
    shared.add_argument("--gamma-perp", type=float)
    shared.add_argument("--g-ens", type=float)
    shared.add_argument("--delta-cs", type=float)
    shared.add_argument("--p", type=int, choices=(1, -1))
    shared.add_argument("--n-spins", type=float)
    shared.add_argument(
        "--normalize-gamma",
        action="store_const",
        const=True,
        help="interpret rates in units of the characteristic width "
        "(the distribution width is recomputed so Gamma = 1)",
    )
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--t-max", type=float)
    timing.add_argument("--t-samples", type=int)

    parser = argparse.ArgumentParser(
        prog="spincavity",
        description="spin-ensemble cavity dynamics experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    decay = sub.add_parser("decay", parents=[shared, timing])
    decay.add_argument("--alpha", type=float, help="kick amplitude")
    moments = sub.add_parser("moments", parents=[shared, timing])
    moments.add_argument("--theta", type=float, help="tilt angle")
    spectrum = sub.add_parser("spectrum", parents=[shared])
    spectrum.add_argument("--delta-e-min", type=float)
    spectrum.add_argument("--delta-e-max", type=float)
    spectrum.add_argument("--delta-e-samples", type=int)
    sweep = sub.add_parser("stability-sweep", parents=[shared, timing])
    sweep.add_argument("--alpha", type=float, help="kick amplitude")
    sweep.add_argument("--g-min", type=float)
    sweep.add_argument("--g-max", type=float)
    sweep.add_argument("--g-samples", type=int)
    sweep.add_argument("--kappa-min", type=float)
    sweep.add_argument("--kappa-max", type=float)
    sweep.add_argument("--kappa-samples", type=int)
    sub.add_parser("pole", parents=[shared])
    return parser


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    for f in fields(RunConfig):
        if f.name in ("experiment",):
            continue
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    if "out" not in values or values["out"] is None:
        raise PreconditionError("--out is required (use '-' for stdout)")
    return RunConfig(experiment=args.experiment, **values)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _assemble_config(args)
        _RUNNERS[config.experiment](config)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
