#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at tiny scale, untraced and traced, through the command
in BENCHMARK.json, and checks that:

* the last stdout line is the result object with exactly the keys
  `correct`, `attempted`, `failed` and `metrics`;
* the metrics are exactly the `end_to_end` (untraced) or `per_layer`
  (traced) metrics of BENCHMARK.json, each with its unit, and every
  end-to-end value is above zero;
* every correctness check of the workload ran (the benchmark prints the
  kinds it ran on stderr) and, for the workloads BENCHMARK.json lists,
  nothing failed;
* a bad argument exits non-zero without printing a result.

Run from the repository root: `python3 perfbench/smoke_test.py`.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Correctness checks each workload must run, untraced and traced; the
# traced run also checks its per-layer probes against the oracle.
CHECKS = {
    "olap-serve": {"frozen_oracle", "warmup_oracle", "sim_repeat", "ycsb_sum"},
    "htap-fresh": {"snapshot_oracle", "same_snapshot", "warmup_oracle", "sim_repeat", "ycsb_sum"},
    "oltp-neworder": {"frozen_oracle", "warmup_oracle", "sim_repeat", "tpcc_rows"},
}
TRACED_CHECKS = {"probe_oracle"}


def run(args):
    return subprocess.run(SPEC["command"] + args, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, problems):
    out = run(["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"])
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        problems.append(f"{where}: exit {out.returncode}: {out.stderr[-2000:]}")
        return
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']}")
    listed = workload in {w["name"] for w in SPEC["workloads"]}
    if listed and (not result["correct"] or result["failed"] != 0):
        problems.append(f"{where}: correct {result['correct']}, {result['failed']} failed: {out.stderr[-2000:]}")
    elif not listed:
        print(f"  {where}: not in BENCHMARK.json; {result['failed']} of {result['attempted']} operations failed")

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(units) & set(got) if units[n] != got[n])
        problems.append(f"{where}: metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    if not trace:
        zero = sorted(n for n, m in result["metrics"].items() if not m["value"] > 0)
        if zero:
            problems.append(f"{where}: end-to-end metrics not above zero: {zero}")

    ran = re.search(r"^perfbench: checks (.*)$", out.stderr, re.MULTILINE)
    kinds = {kv.split("=")[0] for kv in ran.group(1).split()} if ran else set()
    needed = CHECKS[workload] | (TRACED_CHECKS if trace else set())
    if not needed <= kinds:
        problems.append(f"{where}: checks that did not run: {sorted(needed - kinds)}")
    print(f"  {where}: {len(result['metrics'])} metrics, checks {ran.group(1) if ran else '-'}")


def main():
    problems = []
    unknown = sorted({w["name"] for w in SPEC["workloads"]} - set(CHECKS))
    if unknown:
        problems.append(f"BENCHMARK.json workloads without a smoke test: {unknown}")
    for workload in CHECKS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    bad = run(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip():
        problems.append("a bad --workload did not fail cleanly")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
