"""One workload in a fresh interpreter; started by ``run.py``.

Prints ``READY`` once ``spincavity.cli`` is imported and the argv list is
built (the parent times set-up up to that line). With ``--setup-only``
it stops there. Otherwise it warms up, then drives ``spincavity.cli.main``
in-process from one closed loop, one experiment after the other, and
prints one JSON object with pass times, check results and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spincavity import cli  # noqa: E402

MIN_PASSES = 2  # untraced passes, so run_s is a median of at least two


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_pass(experiments, workdir: Path) -> list:
    """Run every experiment once; returns (experiment, out, code, seconds)."""
    import traceback

    results = []
    for index, experiment in enumerate(experiments):
        out = workdir / f"{index}.csv"
        argv = [*experiment.argv, "--out", str(out)]
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed experiment, not a failed run
            traceback.print_exc()
            code = None
        results.append((experiment, out, code, perf_counter() - start))
    return results


def check_pass(results, corrupt: bool = False) -> dict:
    """Check and delete the outputs of one pass."""
    import checks

    outcome = {"failed": 0, "bytes": 0, "band_mismatches": 0, "experiments": []}
    for index, (experiment, out, code, seconds) in enumerate(results):
        manifest = Path(str(out) + ".manifest.json")
        if code == 0:
            if corrupt and index == 0:
                checks.corrupt(experiment.check, str(out))
            outcome["bytes"] += out.stat().st_size + manifest.stat().st_size
            ok, detail, band = checks.check(experiment.check, str(out))
            outcome["band_mismatches"] += band
        else:
            ok, detail = False, f"exit code {code}"
        outcome["failed"] += not ok
        outcome["experiments"].append(
            {"label": experiment.label, "seconds": seconds, "ok": ok, "detail": detail}
        )
        out.unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)
    return outcome


def main(argv=None) -> int:
    args = _parse(argv)
    experiments = workloads.build(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import json
    import resource
    import statistics

    import envinfo
    import reference

    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    # finish lazy set-up (first-touch memory, scipy's lazy imports) at the
    # workload's own sizes before timing; the first DP45 covariance call
    # in a process otherwise runs about 30% slower than later ones
    warm = "warm" if args.size == "full" else args.size
    check_pass(run_pass(workloads.build(args.workload, args.seed, warm), workdir))

    passes, scaled, traced_passes, outcomes = [], [], [], []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    def account(results, outcome_list):
        outcome = check_pass(results, corrupt=args.corrupt and not outcomes)
        outcomes.append(outcome)
        outcome_list.append(sum(r[3] for r in results))

    budget_start = perf_counter()
    before = reference.kernel()
    while True:
        results = run_pass(experiments, workdir)
        after = reference.kernel()
        account(results, passes)
        scaled.append(reference.scale(passes[-1], before, after))
        before = after
        if tracer is not None:
            with tracer.installed():
                tracer.pass_index = len(traced_passes)
                results = run_pass(experiments, workdir)
            account(results, traced_passes)
            before = reference.kernel()
        elapsed = perf_counter() - budget_start
        per_round = elapsed / len(passes)
        enough = tracer is not None or len(passes) >= MIN_PASSES
        if enough and elapsed + per_round > args.seconds:
            break

    result = {
        "attempted": len(experiments) * len(outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "passes": passes,
        "scaled_passes": scaled,
        "experiments": outcomes[-1]["experiments"],
        "failures": [
            e for o in outcomes for e in o["experiments"] if not e["ok"]
        ][:20],
        "band_mismatches": outcomes[-1]["band_mismatches"],
        "bytes_written": outcomes[-1]["bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": envinfo.collect(ROOT, args.seed),
    }
    if tracer is not None:
        import scaling

        n = len(traced_passes)
        layers = tracer.metrics(n)
        traced_s = statistics.median(traced_passes)
        untraced_s = statistics.median(passes)
        layers.update({
            "cli.bytes_written": float(outcomes[-1]["bytes"]),
            "checks.band_mismatches": float(outcomes[-1]["band_mismatches"]),
            "trace.pass_s": traced_s,
            "trace.untraced_pass_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.coverage": layers["trace.self_sum_s"] * n / sum(traced_passes),
        })
        table, exponents = scaling.ladder()
        layers.update(exponents)
        result["layers"] = layers
        result["scaling"] = table
        spans_path = workdir / "spans.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
