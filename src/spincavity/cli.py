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

One writer (:func:`_csv_bytes`) emits every output.  The CSV opens with
``# key=value`` lines (sorted keys): experiment, package version, the
resolved options and the run-level ``header`` values (``Gamma``,
``invalid_rows``, ``windowed_verdict`` and the deterministic counts of
dense solver paths taken, ``*_fallbacks``).  The column names and the
data rows follow; closing ``#`` lines hold the fitted or reference
values of ``trailer`` (``pole_*``, ``panel_f_ratio_*``).  The manifest
holds both blocks and ``columns``.

Every float cell is ``"%.17g" % x``: 17 significant digits, enough to
read back the same double, with ``inf`` and ``-inf`` as such and NaN
(an undefined cell) empty.  A float table's cells come from a numpy
kernel (:func:`_float_rows`) rather than from Python's correctly rounded
``%`` one cell at a time, whose 17-digit path is its slow one.  The
kernel forms each cell's 17 digits from an error-free product, exact
to about 1e-14 of a unit in the last digit, and hands every cell whose
rounding that error could move, and every cell outside its range, to
``%`` itself, so the bytes are those of ``%`` by construction.

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
# The writer then holds, per row, its bytes twice, in its block (or its
# own line, for a row of mixed cells) and in their join: at most 25
# bytes a cell and seven cells a row, about 340 bytes a row at its peak
_SAMPLE_BYTE_BUDGET = 256 * 2**20
_ROW_BYTES = 512

# rows of a float table formatted at a time by the writer's kernel
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
    # the means are linear in theta: a start with a per-site tilt theta N_m
    # below the normal floats, which keeps few bits, is evolved as the tilt
    # theta 2**shift, with theta 2**shift sqrt(N) in [1/4, 1) as at the
    # default theta and N, and P_c scaled back by an exact ldexp
    shift = 0
    if abs(o["theta"]) * grid.spins.min() < sys.float_info.min:
        shift = -math.frexp(o["theta"])[1] - math.frexp(math.sqrt(grid.total_spins))[1]
    y0, gamma0 = initial_state("tilted-spin", grid, theta=math.ldexp(o["theta"], shift))
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
        times, sx / sx[0], np.ldexp(mean["P_c"], -shift), red["var_S_x"] / N - 1.0,
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


def _csv_bytes(header: dict, columns, rows, trailer: dict) -> bytes:
    """The CSV in UTF-8: ``header`` lines, column names, rows, ``trailer``.

    ``rows`` is a float table or a list of mixed rows, the latter cell
    by cell through :func:`_format_cell`.  A float table goes through
    :func:`_float_rows` in blocks of ``_BLOCK_ROWS`` rows, which write
    the bytes of :func:`_format_cell` with no Python float per cell:
    each cell's 17 digits come from an error-free product, within about
    1e-14 of a unit in the 17th digit, and each cell whose bytes that
    error could change (a tie or near tie at the 17th digit, an exponent
    estimate off by one), like each zero, subnormal, non-finite or
    out-of-range one, takes ``"%.17g" %`` itself.  So the bytes are those
    of ``%`` by construction, a long table's cells never exist as Python
    objects, its transient arrays are bounded by one block, and its
    ASCII blocks are joined as they are, never decoded or encoded.
    """
    head = [f"# {key}={_format_cell(header[key])}\n" for key in sorted(header)]
    head.append(",".join(columns) + "\n")
    if isinstance(rows, np.ndarray):
        body = [_float_rows(rows[start:start + _BLOCK_ROWS])
                for start in range(0, rows.shape[0], _BLOCK_ROWS)]
    else:
        body = [(",".join(map(_format_cell, row)) + "\n").encode() for row in rows]
    tail = "".join(f"# {key}={_format_cell(trailer[key])}\n" for key in sorted(trailer))
    return b"".join(["".join(head).encode(), *body, tail.encode()])


def _csv_text(header: dict, columns, rows, trailer: dict) -> str:
    """The CSV of :func:`_csv_bytes` as text, for standard output."""
    return _csv_bytes(header, columns, rows, trailer).decode()


def _split(a):
    """Dekker's split of ``a`` into two halves of at most 26 bits, exact."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


def _scale(s: int) -> tuple:
    """``10**s`` as the exact sum ``hi + lo`` of doubles, with ``hi`` split."""
    hi = float(10**s)
    return (hi, *_split(hi), float(10**s - int(hi)))


# the decimal exponents k = floor(log10|x|) that _float_rows formats, and
# per k the scale 10**(16 - k): 5**45 has 105 bits, so up to 10**45 each
# scale is exactly hi + lo
_K_MIN, _K_MAX = -29, 15
_SCALES = np.array([_scale(16 - k) for k in range(_K_MIN, _K_MAX + 1)]).T
_FAST_RANGE = (10.0 ** _K_MIN, 10.0 ** (_K_MAX + 1))
# the digits of 0..9999, four ASCII bytes as one uint32 each
_DIGITS = np.arange(10000, dtype=np.int16) // np.array(
    [[1000], [100], [10], [1]], dtype=np.int16) % 10
_DIGITS = (_DIGITS.T + ord("0")).astype(np.uint8, order="C").view(np.uint32).ravel()
_SLOT = np.arange(18, dtype=np.int8)[:, None]
_ZEROS = np.frombuffer(b"0.000", np.uint8)[:, None]


def _float_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a float block: each cell ``"%.17g" % x``, NaN empty.

    The rule of ``%.17g``: with ``|x|`` correctly rounded to 17 digits
    ``D`` (``10**16 <= D < 10**17``) times ``10**(X - 16)``, the cell is
    fixed-point for ``-4 <= X < 17`` and ``d.ddde±XX`` otherwise (only
    ``e-`` in the range formatted here), with trailing zeros dropped,
    and the point too if no digit follows it.

    Digits.  For ``|x|`` in ``_FAST_RANGE``, ``k = floor(log10|x|)``
    estimates ``X``, and ``y = |x| 10**(16 - k)`` is formed as ``p + e``:
    ``p = |x| hi`` rounded, ``e`` its error by Dekker's exact product
    (each ufunc rounds on its own, so nothing contracts to an FMA) plus
    ``|x| lo``, so ``p + e`` is within about 1e-14 of ``y``.  As ``p >=
    2**53`` is an integer, ``floor(y) = p + floor(e)``, and ``D`` rounds
    on the fraction ``r = e - floor(e)``.  A cell takes ``"%.17g" % x``
    itself where that error could change its bytes: ``r`` within
    ``2**-30`` of 1/2 (an exact tie or a near one), ``floor(y)`` below
    ``10**16`` or ``D`` at ``10**17`` (``k`` off by one, or a carry into
    the next power of ten, which a correctly rounded ``log10`` already
    counts in ``k``), and every zero, subnormal, non-finite or
    out-of-range ``x``.  A ``floor(y)`` wrongly at ``10**16`` is harmless:
    ``y`` is then within 1e-14 of ``10**16``, which both exponents round
    to the same digits.

    Layout.  Each cell has a 29-byte slot, one row of ``out`` per slot
    byte so that every step works on whole rows: the sign, the ``0.000``
    before the digits of ``-4 <= X < 0``, 18 bytes of digits with the
    point after the ``ip`` integer digits, the exponent and the
    separator.  Unused bytes are NUL, which ``bytes.translate`` drops.
    """
    x = block.ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= _FAST_RANGE[0]) & (ax < _FAST_RANGE[1])
    a = np.where(fast, ax, 1.0)
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.intp)
    hi, hi_high, hi_low, lo = (row[k - _K_MIN] for row in _SCALES)
    p = a * hi
    a_high, a_low = _split(a)
    e = a_high * hi_high - p
    e += a_high * hi_low
    e += a_low * hi_high
    e += a_low * hi_low
    e += a * lo
    floor_e = np.floor(e)
    r = e - floor_e
    floor_y = p.astype(np.int64) + floor_e.astype(np.int64)
    d = floor_y + (r > 0.5)
    fast &= (floor_y >= 10**16) & (d < 10**17) & (np.abs(r - 0.5) >= 2.0**-30)
    exp10 = k.astype(np.int8)

    # the leading digit and four groups of four (remainders by product, as
    # integer % is slow), then one row of ASCII digits per digit
    top = d // 10**8
    first = top // 10**8
    halves = np.stack([top - first * 10**8, d - top * 10**8])
    high = halves // 10**4
    groups = np.stack([high, halves - high * 10**4], axis=1).reshape(4, n)
    digits = np.empty((19, n), np.uint8)  # rows 1..17, with a NUL row each side
    digits[0] = digits[18] = 0
    digits[1] = first + ord("0")
    words = _DIGITS.take(groups).view(np.uint8).reshape(4, n, 4)
    digits[2:18].reshape(4, 4, n)[...] = words.transpose(0, 2, 1)
    significant = ((digits[1:18] != ord("0")) * _SLOT[1:]).max(axis=0)

    sci = exp10 < -4
    ip = np.maximum(exp10 + 1, 0) + sci  # digits before the point
    nd = np.maximum(significant, ip)  # digits written
    out = np.empty((29, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    # "0." and -X - 1 zeros before the digits of -4 <= X < 0
    np.multiply(_ZEROS, _SLOT[:5] < (1 - exp10) * ((exp10 < 0) & ~sci), out=out[1:6])
    # digit j at slot j < ip, the point at ip, digit j - 1 after it: a
    # select between the digit rows and their shift, in wrapping uint8
    area = out[6:24]
    np.subtract(digits[1:], digits[:-1], out=area)
    area *= _SLOT < ip
    area += digits[:-1]
    area *= _SLOT <= nd
    point = (nd > ip) & (ip > 0)  # for -4 <= X < 0 the point is in the zeros
    area.reshape(-1)[ip.astype(np.intp) * n + np.arange(n)] = point * np.uint8(ord("."))
    exponent = -exp10 * sci  # 5 .. 29: every exponent in range has two digits
    tens = exponent // 10
    out[24] = sci * np.uint8(ord("e"))
    out[25] = sci * np.uint8(ord("-"))
    out[26] = (tens + ord("0")) * sci
    out[27] = (exponent - 10 * tens + ord("0")) * sci
    out[28] = ord(",")
    out[28, block.shape[1] - 1::block.shape[1]] = ord("\n")
    nan = np.isnan(x)
    out[:28, nan] = 0
    slow = np.flatnonzero(~fast & ~nan)
    if slow.size:
        text = np.array(["%.17g" % value for value in x[slow].tolist()], dtype="S28")
        out[:28, slow] = text.view(np.uint8).reshape(-1, 28).T
    return out.T.tobytes().translate(None, b"\0")


def _write(out: str, header: dict, columns, rows, trailer: dict) -> None:
    """The CSV (or stdout for ``-``) and, for a file, its manifest."""
    if out == "-":
        sys.stdout.write(_csv_text(header, columns, rows, trailer))
        return
    data = _csv_bytes(header, columns, rows, trailer)
    manifest = {**header, **trailer, "columns": list(columns)}
    try:
        with open(out, "wb") as fh:
            fh.write(data)
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
