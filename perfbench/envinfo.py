"""Environment record stored with every run."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# read by OpenBLAS, OpenMP and MKL when numpy first loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one thread is faster than two at the dims the workloads reach (the
# Lyapunov solve at dim 404 took 0.26-0.35 s on one thread against
# 0.41-0.51 s on two) and keeps runs from competing for cores
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Pin the BLAS thread count for this process and its children.

    Takes effect only when called before numpy is first imported.
    """
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
            # a checkout without .git must not report an enclosing repo
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _blas_version(module) -> str:
    try:
        config = module.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def collect(root: Path, seed: int) -> dict:
    """Seed, commit, host and library versions of one run (worker side)."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
