#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny size.

    python3 perfbench/smoke.py

For every workload, untraced and traced: the run must pass its checks
and print every metric of BENCHMARK.json, by name and with its unit,
both in the table and in the final JSON line. With one output row
deliberately damaged, the damage must show up as a failed experiment
and as ``pass_ratio < 1``. Run without the package sources, the
benchmark must fail without printing a result. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300, check=False,
    )


def _check_output(proc, expected: list, problems: list, label: str) -> dict | None:
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{label}: nothing attempted")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], float):
            problems.append(f"{label}: metric {metric['name']} missing or malformed: {got}")
        table = [line.split() for line in lines[:-1]]
        if [metric["name"], metric["unit"]] not in [[row[0], row[-1]] for row in table if row]:
            problems.append(f"{label}: {metric['name']} not printed with unit {metric['unit']}")
    if sorted(result["metrics"]) != sorted(m["name"] for m in expected):
        problems.append(f"{label}: unexpected metric set")
    return result


def main() -> int:
    problems = []
    tiny = ["--seed", "0", "--seconds", "1", "--size", "tiny"]
    for workload in workloads.WORKLOADS:
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = f"{workload} trace={trace}"
            result = _check_output(
                _run(["--workload", workload, *tiny, "--trace", trace]),
                expected, problems, label,
            )
            if result is not None and (not result["correct"] or result["failed"]):
                problems.append(f"{label}: checks failed on clean outputs")
            print(f"{label}: done", flush=True)
        label = f"{workload} corrupted"
        result = _check_output(
            _run(["--workload", workload, *tiny, "--trace", "0", "--corrupt"]),
            SPEC["end_to_end"], problems, label,
        )
        if result is not None and (
            result["correct"] or result["failed"] < 1
            or result["metrics"]["pass_ratio"]["value"] >= 1.0
        ):
            problems.append(f"{label}: damaged row not counted as a failure")
        print(f"{label}: done", flush=True)

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "probe", *tiny, "--trace", "0"], cwd=bare,
                runner=bare / HERE.name / "run.py")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: the benchmark did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: done")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
