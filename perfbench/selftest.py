#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly, plain and traced,
and checks that each run passes its output checks and prints exactly the
metric names and units that BENCHMARK.json declares.

Run from anywhere:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args):
    proc = subprocess.run(
        SPEC["command"] + args, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def check_run(workload, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    code, last, stderr = run(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    )
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr[-800:]}")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return problems + [f"last line is not JSON: {last[:200]!r}"]
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"output checks failed: {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, undeclared {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    if not trace:
        for name in expected:
            if metrics.get(name, {}).get("value") == 0:
                problems.append(f"{name} reads 0")
    return problems


def main():
    failures = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload:8s} trace {trace}: {status}", flush=True)
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    code, last, _ = run(["--workload", "no-such-workload"])
    bad_ok = code != 0 and not last.startswith("{")
    print(f"unknown workload rejected: {'ok' if bad_ok else 'FAIL'}")
    failures += not bad_ok
    print("self-test passed" if failures == 0 else f"self-test: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
