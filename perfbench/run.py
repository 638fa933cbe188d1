#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke [--seed <n>]

The first form builds perfbench (CMake, Release, into .bench_build/)
if needed, runs one workload and prints, as the last stdout line, one
JSON object with the keys correct, attempted, failed and metrics. The
line before it is the run stamp (commit, compiler, flags, build type,
nproc, seed and workload config). The full report, with sample counts
and the deterministic work counters, goes to .bench_build/results/.

--smoke runs every workload end to end, untraced and traced, on a small
database with 256-bit keys and a few queries; it takes seconds and is
what perfbench/selftest.py drives.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

WORKLOADS = ["paper_ppgnn", "paper_opt", "cluster_tcp_nas"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found; run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may
    not be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stamp(seed, workload, trace, config):
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    flags = None
    try:
        with open(os.path.join(BUILD_DIR, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith(os.path.join("perfbench", "main.cc")):
                    args = shlex.split(entry["command"])
                    flags = " ".join(a for a in args[1:]
                                     if a.startswith(("-O", "-g", "-W", "-D", "-std", "-f", "-m")))
    except (OSError, ValueError, KeyError):
        pass
    return {"commit": commit, "source_sha256": source_digest(),
            "compiler": version, "flags": flags,
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "nproc": os.cpu_count(),
            "seed": seed, "workload": workload, "trace": trace, "config": config}


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs the binary once; returns (result line dict, report dict)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    report_path = os.path.join(RESULTS_DIR, tag + ".json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", report_path]
    if trace:
        cmd += ["--spans", os.path.join(RESULTS_DIR, tag + "-spans.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with {proc.returncode}", 1)
    result = json.loads(lines[-1])
    with open(report_path) as f:
        report = json.load(f)
    report["stamp"] = stamp(seed, workload, trace, report["config"])
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2)
    return result, report


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(seed):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = run_one(workload, seed, 1, trace, smoke=True)
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"counters={json.dumps(report['counters'], sort_keys=True)}")
            ok = ok and result["correct"] and result["failed"] == 0
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    build()
    if args.smoke:
        return smoke(args.seed)
    result, report = run_one(args.workload, args.seed, args.seconds, args.trace)
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}", 1)
    print(json.dumps(report["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
