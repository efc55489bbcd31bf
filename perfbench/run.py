#!/usr/bin/env python3
"""Benchmark of the spincavity CLI experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moments --seed 1 --seconds 15 --trace 0

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) is a list of
``spincavity`` experiments whose physical parameters are drawn from the
seed. One single-threaded closed-loop client calls
``spincavity.cli.main`` in-process, each experiment starting when the
previous one returns, the way ``scripts/reproduce_figures.py`` uses the
package. Every output is checked against an oracle (``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``run_s``: median over passes of the seconds one full pass over the
  workload takes, rescaled to a nominal host speed with the reference
  kernel timed before and after each pass (``reference.py``);
* ``setup_s``: median over fresh interpreters of the seconds to import
  ``spincavity.cli`` and build the workload's argv list, rescaled the
  same way;
* ``peak_rss_mb``: peak resident memory of the process that ran only
  this workload;
* ``pass_ratio``: experiments that passed their checks / attempted.

The table above the result also prints ``fail_ratio`` (1 -
``pass_ratio``) and the unscaled medians ``run_wall_s`` and
``setup_wall_s``. All four workloads in turn:

    for w in moments decay stability-sweep probe; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics: calls and self time of every public
function of the layers, counters, tracing overhead, and the M-scaling
exponents (``scaling.py``). Spans and a full run record go to
``perfbench/out/<workload>-seed<n>-trace<t>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

envinfo.pin_blas_threads()

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s
DEADLINE_S = 170.0  # the whole run, children included
COVERAGE_TOL = 0.02  # allowed gap between summed self times and pass time


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every experiment (smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output row (smoke test of the checks)")
    return parser.parse_args(argv)


def _spawn(argv: list, deadline: float):
    """Start a worker; returns (process, seconds until READY, watchdog)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "READY":
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not reach READY")
    return proc, ready, watchdog


def _finish(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "spincavity" / "cli.py").is_file():
        print(f"error: no spincavity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    deadline = perf_counter() + DEADLINE_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "out" / name
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    setup, setup_scaled = [], []
    try:
        before = reference.kernel()
        for _ in range(SETUP_SAMPLES):
            proc, ready, watchdog = _spawn([*common, "--setup-only"], deadline)
            _finish(proc, watchdog)
            after = reference.kernel()
            setup.append(ready)
            setup_scaled.append(reference.scale(ready, before, after))
            before = after
        worker_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--workdir", str(workdir)]
        if args.corrupt:
            worker_args.append("--corrupt")
        proc, _, watchdog = _spawn(worker_args, deadline)
        result = json.loads(_finish(proc, watchdog).strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    if args.trace:
        layers = result["layers"]
        if abs(layers["trace.coverage"] - 1.0) > COVERAGE_TOL:
            print(f"module self times cover {layers['trace.coverage']:.4f} of the "
                  "traced pass time", file=sys.stderr)
            correct = False
        values = {}
        for metric in spec["per_layer"]:
            if metric["name"] not in layers:
                print(f"note: {metric['name']} was not recorded; reported as 0",
                      file=sys.stderr)
            values[metric["name"]] = float(layers.get(metric["name"], 0.0))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "run_s": statistics.median(result["scaled_passes"]),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}

    record = {**result, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "setup_samples": setup,
              "setup_scaled": setup_scaled,
              "metrics": metrics, "correct": correct}
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = result["env"]
    print(f"# {args.workload} seed={args.seed} commit={env['git_commit']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r}")
    print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['numpy_blas']} threads {env['blas_threads']}")
    for experiment in result["experiments"]:
        mark = "ok  " if experiment["ok"] else "FAIL"
        print(f"{mark} {experiment['seconds']:8.3f} s  {experiment['label']}: "
              f"{experiment['detail']}")
    for failure in result["failures"]:
        print(f"failed: {failure['label']}: {failure['detail']}")
    print(f"{len(result['passes'])} untraced passes, {attempted} experiments attempted, "
          f"{failed} failed, {result['band_mismatches']} sweep verdicts differ inside "
          "the band around C = 1 per pass")
    if args.trace:
        for row in result["scaling"]:
            print(f"scaling {row['call']:34s} M={row['M']:<5d} {row['seconds']:.5f} s")
    for key, metric in metrics.items():
        print(f"{key:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} ratio")
    print(f"{'run_wall_s':44s} {statistics.median(result['passes']):14.6g} s")
    print(f"{'setup_wall_s':44s} {statistics.median(setup):14.6g} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
