#!/usr/bin/env python3
"""Self-test of the repo benchmark.

Usage, from the root of a checkout:

    python3 bpbench/tests/selftest.py

For every workload in BENCHMARK.json, a tiny-size run must:
  - print a last line with exactly correct/attempted/failed/metrics;
  - report every end_to_end metric (untraced) or per_layer metric
    (traced), each finite and with the unit BENCHMARK.json gives it;
  - pass its answer check, once against the committed answers (seed 7,
    for workloads with an answer table) and once against answers
    recomputed through the direct path (seed 8, which no table holds);
  - fail, exiting 1 with correct=false, when a reference answer is
    deliberately altered, and (serve-mixed) when the served corpus holds
    a well-formed trace of the wrong input;
  - in the traced run, export a Chrome trace that passes
    scripts/check_trace.py.
Exits 1 on the first failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COMMITTED_SEED = 7
UNCOMMITTED_SEED = 8


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, "bpbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


def check(cond, what):
    if not cond:
        print("FAIL:", what)
        sys.exit(1)


def check_result(label, done, result, specs):
    check(result is not None,
          f"{label}: no result line (exit {done.returncode})\n{done.stderr}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    check(set(metrics) == {s["name"] for s in specs},
          f"{label}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for spec in specs:
        got = metrics[spec["name"]]
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]),
              f"{label}: {spec['name']} = {got['value']}")
        check(got["unit"] == spec["unit"],
              f"{label}: {spec['name']} unit {got['unit']} != {spec['unit']}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace_dir = ROOT / ".bench_build" / "selftest"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (COMMITTED_SEED, UNCOMMITTED_SEED):
            label = f"{workload} seed {seed}"
            done, result = run(workload, seed, 0)
            check_result(label, done, result, bench["end_to_end"])
            check(done.returncode == 0 and result["correct"] and
                  result["failed"] == 0,
                  f"{label}: answer check failed\n{done.stdout[-2000:]}")
            for value in result["metrics"].values():
                check(value["value"] > 0, f"{label}: zero end-to-end metric")
            committed = (seed == COMMITTED_SEED and
                         (ROOT / "bpbench" / "golden" /
                          f"{workload}.tsv").exists())
            source = "committed" if committed else "recomputed"
            check(f"reference {source}" in done.stdout,
                  f"{label}: expected {source} reference answers")

        trace_out = trace_dir / f"{workload}.json"
        done, result = run(workload, UNCOMMITTED_SEED, 1,
                           ["--trace-out", str(trace_out)])
        check_result(f"{workload} traced", done, result, bench["per_layer"])
        check(done.returncode == 0 and result["correct"],
              f"{workload} traced: answer check failed")
        checker = ROOT / "scripts" / "check_trace.py"
        if checker.exists():
            valid = subprocess.run([sys.executable, str(checker),
                                    str(trace_out)], capture_output=True,
                                   text=True, check=False)
            check(valid.returncode == 0,
                  f"{workload}: trace invalid: {valid.stdout}{valid.stderr}")

        done, result = run(workload, UNCOMMITTED_SEED, 0,
                           ["--corrupt-reference"])
        check(done.returncode == 1 and result is not None and
              not result["correct"] and result["failed"] >= 1,
              f"{workload}: altered reference not detected "
              f"(exit {done.returncode}, result {result})")
        if workload == "serve-mixed":
            done, result = run(workload, UNCOMMITTED_SEED, 0,
                               ["--corrupt-corpus"])
            check(done.returncode == 1 and result is not None and
                  not result["correct"] and result["failed"] >= 1,
                  f"{workload}: wrong corpus trace not detected "
                  f"(exit {done.returncode}, result {result})")
        print(f"ok: {workload}")
    print("bpbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
