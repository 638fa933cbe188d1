#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

  python3 perfbench/selftest.py

1. Runs the smoke mode (every workload, untraced and traced) twice with
   the same seed; every answer must check and every exact work counter
   must be identical across the two runs.
2. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/: it must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 7


def smoke_counters():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke",
                          "--seed", str(SEED)], capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or json.loads(lines[-1]) != {"smoke": "pass"}:
        sys.exit(f"selftest: smoke run failed\n{out.stdout}\n{out.stderr[-3000:]}")
    counters = {}
    for line in lines[:-1]:
        head, _, tail = line.partition(" counters=")
        counters[" ".join(head.split()[:2])] = json.loads(tail)
    return counters


def bare_directory_fails():
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "paper_ppgnn", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    return out.returncode != 0 and '"metrics"' not in out.stdout


def main():
    first = smoke_counters()
    second = smoke_counters()
    if first != second:
        for key in sorted(first):
            if first[key] != second.get(key):
                print(f"{key}: {first[key]} != {second.get(key)}")
        sys.exit("selftest: exact counters differ between same-seed runs")
    print(f"counters identical across two same-seed runs ({len(first)} runs each)")
    if not bare_directory_fails():
        sys.exit("selftest: a bare checkout did not fail cleanly")
    print("bare checkout fails without a result")
    print("selftest: pass")


if __name__ == "__main__":
    main()
