#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Run it from the repository root.  It runs every workload of
BENCHMARK.json at reduced size, untraced and traced, and fails unless each
run prints a valid result line in which every check passed and every
end-to-end (untraced) or per-layer (traced) metric appears with its unit.
It also checks that a directory holding only the benchmark's own files
makes the benchmark fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{where}: last line is not JSON ({e})"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed: {lines[-1][:300]}\n{proc.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ: "
                      f"missing {sorted({m['name'] for m in wanted} - set(metrics))}, "
                      f"extra {sorted(set(metrics) - {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')}, want {m['unit']}")
        value = got.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {m['name']} value {value!r}")
    if trace and not os.path.isfile(f".perfbench_out/{workload}-seed7.trace.json"):
        errors.append(f"{where}: no span file")
    return errors


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the benchmark must fail cleanly."""
    bare = os.path.join(".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("fig4-sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark did not fail"]
    return []


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_result(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not errs else 'FAILED'}", flush=True)
            errors += errs
    errs = check_bare_directory()
    print(f"bare directory: {'ok' if not errs else 'FAILED'}", flush=True)
    errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
