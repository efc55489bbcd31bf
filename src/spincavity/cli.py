"""Command-line front end.

Five deterministic experiments, each emitting a CSV table plus a JSON
manifest sidecar:

* ``decay``           kicked-cavity mean-field decay curves
* ``moments``         tilted-spin variance dynamics and relaxation ratio
* ``spectrum``        probe reflection/transmission scan
* ``stability-sweep`` analytic vs discretized stability verdicts
* ``pole``            decay-rate roots of the Gaussian pole condition

``_EXPERIMENTS`` lists, per experiment, the options that can change its
data rows (the mirror rates only in ``spectrum``; the spin count only in
``moments``, as the kicked field and the spectrum read ``g_m^2 N_m``
alone), its default ``M`` per family and a compute returning
``(columns, rows, header, trailer)``; ``rows`` is one float ``ndarray``
(NaN in an undefined cell) or, for ``stability-sweep`` and ``pole``, a
short list of mixed-type rows.  Each option of ``_OPTIONS`` has one
parser, for its flag and for its key in a ``--config`` file; flags win
over the file, the file over the default.  The argument parser is built
once per process, so callers that run ``main`` many times in one
process (the figure bundle, the benchmark) pay for it once.

One writer (:func:`_csv_text`) emits every output.  The CSV opens with
``# key=value`` lines (sorted keys): experiment, package version, the
resolved options and the run-level ``header`` values (``Gamma``,
``invalid_rows``, ``windowed_verdict`` and the deterministic counts of
dense solver paths taken, ``*_fallbacks``).  The column names and the
data rows follow, floats at 17 significant digits and undefined cells
empty; closing ``#`` lines hold the fitted or reference values of
``trailer`` (``pole_*``, ``panel_f_ratio_*``).  The manifest holds both
blocks and ``columns``.

Exit codes (the README lists every case): 0 success; 2 precondition
failure, such as a non-finite float option, a ``--width`` next to
``--normalize-gamma`` or ``--family homogeneous`` (which set it), an
``--m`` other than 1 next to ``--family homogeneous``, a sample grid
over its byte budget or a dense fallback over the library's budget; 3
numerical failure, a secular iteration that does not settle and a NaN
from a propagation included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytics import (
    gaussian_pole, lorentzian_kick_response, pole_seeds, stability_report,
    steady_state_moments_hom, weak_coupling_response,
)
from .broadening import (
    BroadeningFamily, BroadeningSpec, characteristic_width, discretize,
    solve_width_for_gamma,
)
from .dynamics import (
    arrowhead_spectra, check_revival_window, evolve_covariance, evolve_mean,
    field_kick_response,
)
from .dynamics import _finite as _finite_column  # names a column's first overflow
from .errors import (
    ConvergenceError, DomainError, NumericalError, PreconditionError,
    UnstableModelError,
)
from .model import SystemParams, build_drift_matrix, initial_state
from .probing import spectrum_scan

__all__ = ["main"]

_SQRT2 = math.sqrt(2.0)
_GAUSSIAN = BroadeningFamily.GAUSSIAN
_HOMOGENEOUS = BroadeningFamily.HOMOGENEOUS
_FAMILIES = tuple(f.value for f in BroadeningFamily)

# time and detuning grids: each sample holds one float64 row of the
# table a compute returns and, on a time grid, one float64 state row.
# The writer then holds, per row, one CSV line of up to seven 17-digit
# cells as a Python string and its share of the joined text, then that
# text and its UTF-8 encoding: about 340 bytes a row at its peak
_SAMPLE_BYTE_BUDGET = 256 * 2**20
_ROW_BYTES = 512

# rows of a float table turned into Python floats at a time by the writer
_BLOCK_ROWS = 1024

# the tokens that argparse reads as a value, not an option, after a flag:
# its own negative numbers, and those with an exponent or inf or nan
_NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
                              re.IGNORECASE)


def _choice(kind, values):
    """Parser for a ``kind`` value restricted to ``values``."""

    def parse(text):
        if kind(text) not in values:
            choices = ", ".join(map(str, values))
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {choices}")
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names the type on errors
    return parse


def _finite(text: str) -> float:
    """A finite float; ``float`` alone lets ``nan`` and ``inf`` through."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    """A sample count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


class _Option(NamedTuple):
    """One parser for the flag and the config key, and the default."""

    parse: Callable[[str], object]
    default: object = None
    help: str | None = None


_OPTIONS = {
    "family": _Option(_choice(str, _FAMILIES), "gaussian", ", ".join(_FAMILIES)),
    "width": _Option(_finite, help="FWHM (lorentzian) or std dev (gaussian)"),
    "normalize_gamma": _Option(
        _boolean, False,
        "interpret rates in units of the characteristic width "
        "(the distribution width is recomputed so Gamma = 1)",
    ),
    "gamma_perp": _Option(_finite, 0.0),
    "m": _Option(int, help="number of sub-ensembles"),
    "kappa": _Option(_finite, 8.0),
    "kappa1": _Option(_finite),
    "kappa2": _Option(_finite),
    "g_ens": _Option(_finite, 2.0),
    "delta_cs": _Option(_finite, 0.0),
    "p": _Option(_choice(int, (1, -1)), 1),
    "n_spins": _Option(_finite, 1e6),
    "alpha": _Option(_finite, 1.0, "kick amplitude"),
    "theta": _Option(_finite, 1e-3, "tilt angle"),
    "t_max": _Option(_finite, 5.0),
    "t_samples": _Option(int, 201),
    "delta_e_min": _Option(_finite, -20.0),
    "delta_e_max": _Option(_finite, 20.0),
    "delta_e_samples": _Option(int, 401),
    "g_min": _Option(_finite, 0.5),
    "g_max": _Option(_finite, 5.0),
    "g_samples": _Option(_count, 8),
    "kappa_min": _Option(_finite, 0.5),
    "kappa_max": _Option(_finite, 10.0),
    "kappa_samples": _Option(_count, 8),
}


def _spec(o: dict) -> BroadeningSpec:
    return BroadeningSpec(BroadeningFamily(o["family"]), o["width"])


def _params(o: dict, **point) -> SystemParams:
    names = ("kappa", "kappa1", "kappa2", "gamma_perp", "g_ens", "delta_cs")
    return SystemParams(**{k: o[k] for k in names if k in o}, **point)


def _check_samples(flag: str, samples: int, row_bytes: int) -> None:
    """Reject a sample count whose rows would exceed the byte budget."""
    need = samples * row_bytes
    if need > _SAMPLE_BYTE_BUDGET:
        raise PreconditionError(
            f"{flag} {samples} needs {need / 2**20:.1f} MiB at "
            f"{row_bytes} bytes per sample, over the "
            f"{_SAMPLE_BYTE_BUDGET // 2**20} MiB sample budget"
        )


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``, also where ``hi - lo`` leaves the float
    range: halving and doubling are exact, so a grid whose ends and step
    are normal floats keeps its bits."""
    return 2.0 * np.linspace(lo / 2.0, hi / 2.0, n)


def _time_grid(o: dict, state_bytes: int = 0) -> np.ndarray:
    """The output times, each sample charged a CSV row and ``state_bytes``
    of what the experiment stores per time."""
    if o["t_max"] <= 0 or o["t_samples"] < 2:
        raise PreconditionError("need t_max > 0 and t_samples >= 2")
    _check_samples("--t-samples", o["t_samples"], state_bytes + _ROW_BYTES)
    return np.linspace(0.0, o["t_max"], o["t_samples"])


def _decay(o: dict):
    spec, params = _spec(o), _params(o)
    times = _time_grid(o)
    # the kicked field reads the spins only through g_m^2 N_m = g_ens^2 w_m
    grid = discretize(spec, o["m"], params.g_ens, 1.0)
    model = build_drift_matrix(params, grid, o["p"])
    x0 = initial_state("field-kick", grid, alpha=o["alpha"])[0][0]
    response, fallback = field_kick_response(model, times)

    Gamma = characteristic_width(spec, params.gamma_perp)
    columns = [
        "t", "X_c_sim", "X_c_lorentzian_analytic", "X_c_weak_coupling",
        "X_c_pole_tail",
    ]
    # t, X_c_sim and the three reference columns; a reference the family
    # does not define stays NaN, which the writer leaves empty
    rows = np.full((times.size, 5), np.nan)
    rows[:, 0] = times
    trailer: dict = {}
    # every other column scales with alpha: a cell past the float range is
    # named with its column and first time, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, 1] = x_sim = _finite_column((x0 * response).real, columns[1], times)
        if spec.family is not _GAUSSIAN:
            response = lorentzian_kick_response(
                o["alpha"], params.kappa, Gamma, params.g_ens, times, o["p"],
                params.delta_cs,
            )
            rows[:, 2] = _finite_column(_SQRT2 * response.real, columns[2], times)
        elif o["p"] != 1 or params.delta_cs != 0.0:
            trailer["pole_tail"] = "derived only for p +1 at delta_cs 0"
        else:
            rows[:, 3] = _finite_column(_SQRT2 * weak_coupling_response(
                o["alpha"], params, spec.width, times), columns[3], times)
            try:
                seed = pole_seeds(params, spec.width)["slow"]
                lam = gaussian_pole(params, spec.width, seed).lam
            except (ConvergenceError, DomainError):
                trailer["pole_tail"] = "unconverged"
            except PreconditionError:  # gaussian_pole refused the seed
                trailer["pole_tail"] = "seed outside the Faddeeva strip"
            else:
                anchor = int(np.argmin(np.abs(times - 0.5 * o["t_max"])))
                tail = x_sim[anchor] * np.exp(lam * (times - times[anchor]))
                rows[anchor:, 4] = _finite_column(tail[anchor:].real, columns[4],
                                                  times[anchor:])
                trailer.update(pole_rate_re=lam.real, pole_rate_im=lam.imag)
    header = {"Gamma": Gamma, "kick_response_fallbacks": int(fallback)}
    return columns, rows, header, trailer


def _moments(o: dict):
    if o["theta"] == 0.0:
        raise PreconditionError("moments needs a nonzero tilt angle theta")
    spec, params = _spec(o), _params(o)
    times = _time_grid(o, 8 * (2 * o["m"] + 2))  # the (T, 2M + 2) mean series
    grid = discretize(spec, o["m"], params.g_ens, o["n_spins"])
    model = build_drift_matrix(params, grid, o["p"])
    y0, gamma0 = initial_state("tilted-spin", grid, theta=o["theta"])
    mean_series = evolve_mean(model, y0, times)
    cov_series = evolve_covariance(model, gamma0, times)
    mean, red = mean_series.reductions, cov_series.reductions

    N = o["n_spins"]
    sx = mean["S_x"]
    trailer: dict = {}
    var_sx_inf = red["var_S_x_inf"]
    if spec.family is _GAUSSIAN and not math.isnan(var_sx_inf):
        Gamma = characteristic_width(spec, params.gamma_perp)
        try:
            reference = steady_state_moments_hom(params.kappa, Gamma, params.g_ens, N)
        except UnstableModelError:
            pass
        else:
            # a reference excess of zero (uncoupled spins) has no ratio
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratios = {
                    "panel_f_ratio_sx": (var_sx_inf / N - 1.0)
                    / (reference.var_S_x / N - 1.0),
                    "panel_f_ratio_pc": (2.0 * red["var_P_c_inf"] - 1.0)
                    / (2.0 * reference.var_P_c - 1.0),
                }
            if all(map(math.isfinite, ratios.values())):
                trailer.update(ratios)
    columns = [
        "t", "Sx_over_Sx0", "Pc", "VarSx_over_N_minus_1", "twoVarPc_minus_1",
        "R",
    ]
    rows = np.column_stack([
        times, sx / sx[0], mean["P_c"], red["var_S_x"] / N - 1.0,
        2.0 * red["var_P_c"] - 1.0, red["R"],
    ])
    header = {"moment_fallbacks": mean_series.fallbacks + cov_series.fallbacks}
    return columns, rows, header, trailer


def _spectrum(o: dict):
    if o["delta_e_samples"] < 2 or o["delta_e_max"] <= o["delta_e_min"]:
        raise PreconditionError("need delta_e_max > delta_e_min and >= 2 samples")
    _check_samples("--delta-e-samples", o["delta_e_samples"], _ROW_BYTES)
    delta_grid = _linspace(o["delta_e_min"], o["delta_e_max"], o["delta_e_samples"])
    table = spectrum_scan(_params(o), _spec(o), o["p"], delta_grid)
    columns = ["delta_e", "re_t", "im_t", "re_r", "im_r"]
    # undefined rows carry NaN, which the writer leaves empty
    rows = np.column_stack([
        delta_grid, table.t.real, table.t.imag, table.r.real, table.r.imag,
    ])
    return columns, rows, {"invalid_rows": int((~table.valid).sum())}, {}


def _stability_sweep(o: dict):
    if o["t_max"] <= 0:
        raise PreconditionError("need t_max > 0")
    spec = _spec(o)
    columns = [
        "g_ens", "kappa", "Gamma", "C", "spectral_abscissa_discrete",
        "stable_analytic", "stable_numeric",
    ]
    # all points are solved at once: each holds a row and the roots and
    # residues of its spectrum (a sweep never reads a model's noise)
    m = o["m"]
    _check_samples("--g-samples x --kappa-samples", o["g_samples"] * o["kappa_samples"],
                   _ROW_BYTES + 32 * (m + 1))
    windowed = spec.family is _GAUSSIAN and o["gamma_perp"] == 0.0
    # eigenvalues of the undamped uniform grid carry a small positive
    # artifact; the windowed verdict judges by the kicked cavity
    # envelope instead (spin coherences never decay at gamma_perp = 0),
    # early against late, so the kick scale cancels
    times = np.linspace(0.0, o["t_max"], 101)
    fifth = max(2, times.size // 5)
    points = []
    for g in _linspace(o["g_min"], o["g_max"], o["g_samples"]):
        # the spectrum reads the spins only through g_m^2 N_m = g^2 w_m
        grid = discretize(spec, m, g, 1.0)
        for kappa in _linspace(o["kappa_min"], o["kappa_max"], o["kappa_samples"]):
            point = _params(o, kappa=kappa, g_ens=g)
            report = stability_report(point, spec)
            points.append((g, kappa, report, build_drift_matrix(point, grid, o["p"])))
    # the window reads only the grid spacing, which g leaves alone
    check_revival_window(grid, o["gamma_perp"], o["t_max"])
    spectra = arrowhead_spectra([model for *_, model in points])
    fallbacks = 0
    rows = []
    for (g, kappa, report, model), eigenvalues in zip(points, spectra):
        abscissa = float(eigenvalues.real.max())
        if windowed:
            response, fallback = field_kick_response(model, times)
            fallbacks += fallback
            envelope = np.abs(response)
            numeric = bool(envelope[-fifth:].max() < envelope[:fifth].max())
        else:
            numeric = bool(abscissa < 0.0)
        rows.append([g, kappa, report.Gamma, report.C, abscissa,
                     bool(report.stable), numeric])
    header = {"windowed_verdict": windowed, "kick_response_fallbacks": fallbacks}
    return columns, rows, header, {}


def _pole(o: dict):
    spec, params = _spec(o), _params(o)
    if spec.family is not _GAUSSIAN:
        raise PreconditionError("the pole experiment requires the gaussian family")
    seeds = pole_seeds(params, spec.width)
    columns = [
        "seed_label", "seed_re", "seed_im", "lambda_re", "lambda_im",
        "abs_residual",
    ]
    rows = []
    for label in ("slow", "fast"):
        seed = seeds[label]
        root, residual = gaussian_pole(params, spec.width, seed)
        rows.append([label, seed.real, seed.imag, root.real, root.imag, abs(residual)])
    return columns, rows, {}, {}


class _Experiment(NamedTuple):
    """The options a run reads, its default ``M`` per family, its compute."""

    compute: Callable[[dict], tuple]
    options: tuple
    m_default: dict | None = None


_BROADENING = ("family", "width", "normalize_gamma", "gamma_perp")
_CAVITY = ("kappa", "g_ens")
_ENSEMBLE = ("m", "delta_cs", "p")

_EXPERIMENTS = {
    "decay": _Experiment(
        _decay,
        _BROADENING + _CAVITY + _ENSEMBLE + ("alpha", "t_max", "t_samples"),
        {"gaussian": 601, "lorentzian": 401, "homogeneous": 1},
    ),
    "moments": _Experiment(
        _moments,
        _BROADENING + _CAVITY + _ENSEMBLE + ("n_spins", "theta", "t_max", "t_samples"),
        {"gaussian": 201, "lorentzian": 201, "homogeneous": 1},
    ),
    # only the probe's input-output relations read the mirror split
    "spectrum": _Experiment(_spectrum, _BROADENING + (
        "kappa", "kappa1", "kappa2", "g_ens", "delta_cs", "p",
        "delta_e_min", "delta_e_max", "delta_e_samples",
    )),
    # the (g_ens, kappa) grid sets those rates, so their options are absent
    "stability-sweep": _Experiment(
        _stability_sweep,
        _BROADENING + _ENSEMBLE + (
            "t_max", "g_min", "g_max", "g_samples",
            "kappa_min", "kappa_max", "kappa_samples",
        ),
        {"gaussian": 101, "lorentzian": 101, "homogeneous": 1},
    ),
    "pole": _Experiment(_pole, _BROADENING + _CAVITY),
}


def _resolve(name: str, values: dict) -> dict:
    """The experiment's options with width, ``M`` and mirror rates resolved."""
    experiment = _EXPERIMENTS[name]
    o = {key: values.get(key, _OPTIONS[key].default) for key in experiment.options}
    family = BroadeningFamily(o["family"])
    if o["width"] is not None and (o["normalize_gamma"] or family is _HOMOGENEOUS):
        other = "--normalize-gamma" if o["normalize_gamma"] else "--family homogeneous"
        raise PreconditionError(f"--width conflicts with {other}, which sets the width")
    if family is _HOMOGENEOUS and o.get("m") not in (None, 1):
        raise PreconditionError(f"--m {o['m']} conflicts with --family homogeneous, "
                                "which is one sub-ensemble")
    if o["normalize_gamma"]:
        # interpret all rates in units of the characteristic width:
        # recompute the distribution width so that Gamma == 1 exactly
        o["width"] = solve_width_for_gamma(family, 1.0, o["gamma_perp"])
    if family is _HOMOGENEOUS:
        o["width"] = 0.0
    if o["width"] is None:
        raise PreconditionError(
            "--width is required for broadened families unless "
            "--normalize-gamma is given"
        )
    if "kappa1" in o:
        params = _params(o)
        o["kappa1"], o["kappa2"] = params.kappa1, params.kappa2
    if experiment.m_default is not None and o["m"] is None:
        o["m"] = experiment.m_default[family.value]
    return o


def _read_config(path: str, name: str) -> dict:
    """``key = value`` lines, each value through its option's parser."""
    parsers = {key: _OPTIONS[key].parse for key in _EXPERIMENTS[name].options}
    parsers["out"] = str
    try:
        # a byte-order mark, as Windows editors write one, is no key
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read --config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        key = key.strip().replace("-", "_")
        where = f"{path}:{lineno}"
        if not sep:
            raise PreconditionError(
                f"{where}: expected key=value, got {raw.rstrip()!r}"
            )
        if key not in parsers:
            raise PreconditionError(f"{where}: unknown key {key!r} for {name}")
        try:
            values[key] = parsers[key](text.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise PreconditionError(f"{where}: {key}: {exc}") from None
    return values


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else "%.17g" % value
    return "" if value is None else str(value)


def _csv_text(header: dict, columns, rows, trailer: dict) -> str:
    """The CSV: ``header`` lines, the column names, the rows, ``trailer``.

    ``rows`` is a float table or a list of mixed rows, the latter cell
    by cell through :func:`_format_cell`.  A float table is formatted in
    blocks of ``_BLOCK_ROWS`` rows, each with one ``%`` of its rows'
    formats joined by newlines, and then its NaN cells are emptied:
    ``"%.17g"`` prints every NaN as ``nan``, and no other float's digits,
    sign, ``.``, ``e`` or ``inf`` hold that substring, nor can it span the
    ``,`` or newline between two cells, so the bytes are those of
    :func:`_format_cell`.  The Python floats of a long table never exist
    all at once, and the blocks are freed on return, before the text is
    encoded and written.
    """
    lines = [f"# {key}={_format_cell(header[key])}" for key in sorted(header)]
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray):
        row_format = ",".join(["%.17g"] * rows.shape[1])
        for start in range(0, rows.shape[0], _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            block_format = "\n".join([row_format] * block.shape[0])
            text = block_format % tuple(block.ravel().tolist())
            lines.append(text.replace("nan", ""))
    else:
        lines.extend(",".join(map(_format_cell, row)) for row in rows)
    lines.extend(f"# {key}={_format_cell(trailer[key])}" for key in sorted(trailer))
    lines.append("")  # the closing newline
    return "\n".join(lines)


def _write(out: str, header: dict, columns, rows, trailer: dict) -> None:
    """The CSV (or stdout for ``-``) and, for a file, its manifest."""
    text = _csv_text(header, columns, rows, trailer)
    if out == "-":
        sys.stdout.write(text)
        return
    manifest = {**header, **trailer, "columns": list(columns)}
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write --out {out}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every experiment, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spincavity", description="spin-ensemble cavity dynamics experiments"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in _EXPERIMENTS.items():
        command = sub.add_parser(name)
        command._negative_number_matcher = _NEGATIVE_NUMBER
        command.add_argument("--config", help="flat key=value config file")
        command.add_argument("--out", help="output CSV path ('-' for stdout)")
        for key in experiment.options:
            option = _OPTIONS[key]
            # a switch takes no value on the command line
            kind = (
                {"action": "store_const", "const": True}
                if option.parse is _boolean else {"type": option.parse}
            )
            command.add_argument("--" + key.replace("_", "-"), help=option.help, **kind)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    name = args.pop("experiment")
    config = args.pop("config")
    try:
        values = _read_config(config, name) if config else {}
        values.update({k: v for k, v in args.items() if v is not None})
        out = values.pop("out", None)
        if out is None:
            raise PreconditionError("--out is required (use '-' for stdout)")
        options = _resolve(name, values)
        columns, rows, header, trailer = _EXPERIMENTS[name].compute(options)
        run = {"experiment": name, "package_version": __version__, **options}
        _write(out, {**run, **header}, columns, rows, trailer)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
