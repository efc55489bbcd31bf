"""Seeded argv lists for the benchmark workloads.

Each workload is a list of ``spincavity`` command-line experiments. The
seed only draws physical parameter points inside fixed ranges; the
program receives nothing but the resulting argv. Sizes (sub-ensemble
counts, time grids, detuning rows) are fixed per workload so that the
cost of a pass barely depends on the seed.

Three sizes exist: ``full`` is what the benchmark times, ``warm`` runs
the same sub-ensemble counts on short windows to finish lazy set-up
before timing, and ``tiny`` is the smoke-test size.

This module imports nothing heavy: it runs inside the measured set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("moments", "decay", "stability-sweep", "probe")
SIZES = ("full", "warm", "tiny")


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation plus the name of the check for its output."""

    label: str
    check: str
    argv: tuple


def _fmt(value: float) -> str:
    return repr(float(value))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _moments(rng: random.Random, size: str):
    # C = g_ens^2 / (kappa Gamma) with kappa = 8 and Gamma = 1; drawing C
    # through g_ens keeps the cavity rate, and with it the DP45 step
    # count, fixed across seeds.
    c_hom = rng.uniform(0.3, 0.7)
    # the M=201 Gaussian line at gamma_perp = 0.02 loses stability near
    # C = 0.69 once discretized (abscissa +6e-4 at C = 0.7)
    c_gauss = rng.uniform(0.3, 0.6)
    m, t_max, samples = {
        "full": ("201", "6", "121"),
        "warm": ("201", "0.3", "7"),
        "tiny": ("21", "1", "11"),
    }[size]
    return [
        Experiment(
            f"moments homogeneous C={c_hom:.3f}",
            "moments",
            ("moments", "--family", "homogeneous", "--gamma-perp", "1",
             "--kappa", "8", "--g-ens", _fmt(math.sqrt(8.0 * c_hom)),
             "--t-max", t_max, "--t-samples", samples),
        ),
        Experiment(
            f"moments gaussian M={m} C={c_gauss:.3f}",
            "moments",
            ("moments", "--family", "gaussian", "--normalize-gamma",
             "--gamma-perp", "0.02", "--kappa", "8",
             "--g-ens", _fmt(math.sqrt(8.0 * c_gauss)), "--m", m,
             "--t-max", t_max, "--t-samples", samples),
        ),
    ]


def _decay(rng: random.Random, size: str):
    # one cooperativity per log-spaced stratum of [0.05, 2], g_ens = 2
    # and Gamma = 1 as in the figure bundle, so kappa = 4 / C
    lo, hi = math.log(0.05), math.log(2.0)
    edges = [lo + (hi - lo) * k / 5 for k in range(6)]
    coops = [math.exp(rng.uniform(edges[k], edges[k + 1])) for k in range(5)]
    # the Gaussian pole tail needs the whole window, the Lorentzian
    # closed form a fine grid: tiny runs shorten only the Lorentzian one
    m_gauss, t_gauss, m_lor, t_lor, samples = {
        "full": ("601", "5", "401", "5", "201"),
        "warm": ("601", "0.25", "401", "0.25", "11"),
        "tiny": ("201", "5", "401", "1", "51"),
    }[size]
    out = []
    for c in coops:
        kappa = _fmt(4.0 / c)
        out.append(Experiment(
            f"decay gaussian M={m_gauss} C={c:.3f}",
            "decay-gaussian",
            ("decay", "--family", "gaussian", "--normalize-gamma",
             "--gamma-perp", "0", "--kappa", kappa, "--g-ens", "2",
             "--m", m_gauss, "--t-max", t_gauss, "--t-samples", samples),
        ))
        out.append(Experiment(
            f"decay lorentzian M={m_lor} C={c:.3f}",
            "decay-lorentzian",
            ("decay", "--family", "lorentzian", "--width", "2",
             "--gamma-perp", "0", "--kappa", kappa, "--g-ens", "2",
             "--m", m_lor, "--t-max", t_lor, "--t-samples", samples),
        ))
    return out


def _stability_sweep(rng: random.Random, size: str):
    # the figure-bundle grid (g_ens in [0.5, 5], kappa in [0.5, 10]),
    # shifted by a seeded fraction of half a grid step on each axis
    m, samples, t_max = {
        "full": ("201", "8", "5"),
        "warm": ("201", "2", "1"),
        "tiny": ("41", "3", "4"),
    }[size]
    shift_g = rng.uniform(0.0, 0.5) * (5.0 - 0.5) / 7
    shift_k = rng.uniform(0.0, 0.5) * (10.0 - 0.5) / 7
    return [Experiment(
        f"stability-sweep gaussian M={m} {samples}x{samples}",
        "stability-sweep",
        ("stability-sweep", "--family", "gaussian", "--normalize-gamma",
         "--gamma-perp", "0", "--m", m,
         "--g-min", _fmt(0.5 + shift_g), "--g-max", _fmt(5.0 + shift_g),
         "--g-samples", samples,
         "--kappa-min", _fmt(0.5 + shift_k), "--kappa-max", _fmt(10.0 + shift_k),
         "--kappa-samples", samples, "--t-max", t_max),
    )]


# broadened families are normalized to Gamma = 1; the homogeneous line
# has Gamma = gamma_perp = 1, so C = g_ens^2 / kappa for all three
_PROBE_FAMILIES = (
    ("gaussian", ("--normalize-gamma", "--gamma-perp", "0")),
    ("lorentzian", ("--normalize-gamma", "--gamma-perp", "0.25")),
    ("homogeneous", ("--gamma-perp", "1")),
)


def _probe(rng: random.Random, size: str):
    rows, poles = {"full": ("3001", 4), "warm": ("101", 2), "tiny": ("101", 1)}[size]
    out = []
    for family, extra in _PROBE_FAMILIES:
        for p in (1, -1):
            # an inverted sample (p = +1) has a driven steady state only
            # below threshold
            c = rng.uniform(0.1, 0.8) if p == 1 else rng.uniform(0.5, 10.0)
            kappa = rng.uniform(2.0, 10.0)
            g = math.sqrt(kappa * c)
            # wide enough for the normal-mode doublet at +-g_ens
            half = 2.0 * g + kappa + 5.0
            out.append(Experiment(
                f"spectrum {family} p={p:+d} C={c:.3f}",
                "spectrum",
                ("spectrum", "--family", family, *extra,
                 "--kappa", _fmt(kappa), "--g-ens", _fmt(g), "--p", str(p),
                 "--delta-e-min", _fmt(-half), "--delta-e-max", _fmt(half),
                 "--delta-e-samples", rows),
            ))
    for _ in range(poles):
        c = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        g = rng.uniform(1.0, 4.0)
        out.append(Experiment(
            f"pole gaussian C={c:.3f}",
            "pole",
            ("pole", "--family", "gaussian", "--normalize-gamma",
             "--gamma-perp", "0", "--kappa", _fmt(g * g / c),
             "--g-ens", _fmt(g)),
        ))
    return out


_BUILDERS = {
    "moments": _moments,
    "decay": _decay,
    "stability-sweep": _stability_sweep,
    "probe": _probe,
}


def build(workload: str, seed: int, size: str = "full") -> list:
    """Experiments of one pass over ``workload`` for ``seed``."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](_rng(workload, seed), size)
