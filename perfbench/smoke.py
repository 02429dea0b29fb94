"""Smoke check of the benchmark itself, at small sample counts.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --smoke`` untraced and
traced and checks that each run exits 0, prints every metric line with its
unit, and ends with a result line that is correct, has exactly the declared
metrics with their declared units, and no failures. The traced run itself
fails an experiment whose child spans leave their parent, whose layer self
times do not add up to its traced wall time, or whose traced metrics differ
from the untraced ones, so a correct result covers those checks. Last, it
checks that run.py exits non-zero without a result in a copy of the
benchmark that has no statebody sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    declared = spec["per_layer" if trace else "end_to_end"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = run(cmd, ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        errors.append(f"{where}: not correct\n{proc.stdout}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"{where}: metrics {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} reads {got}")
        if not any(line.startswith(f"metric {m['name']} = ") and line.endswith(m["unit"])
                   for line in lines):
            errors.append(f"{where}: no printed line for {m['name']} with its unit")
    return errors


def check_bare_copy(spec: dict) -> list[str]:
    bare = HERE / "_out" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_out", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(spec["command"] + ["--workload", workload, "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
    errors += check_bare_copy(spec)
    for e in errors:
        print("FAIL", e)
    print("smoke check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
