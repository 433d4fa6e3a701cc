#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the tawa library, the
tawa-serve daemon and the perfbench harness into .bench_build/ (an
optimized, non-instrumented build), runs one workload with every inherited
TAWA_* variable removed, checks the result against BENCHMARK.json, and
prints the result document as the last line of standard output.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD = os.path.join(".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170
WORKLOADS = ("sweep-timing", "verify-functional", "compile-grid", "serve-mixed",
             "known-failures")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and incrementally builds the harness."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DTAWA_ASAN=OFF",
             "-DTAWA_TSAN=OFF", "-DTAWA_COVERAGE=OFF"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def refuse_instrumented():
    """Refuses sanitizer, coverage and unoptimized builds."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    for opt in ("TAWA_ASAN", "TAWA_TSAN", "TAWA_COVERAGE"):
        if cache.get(opt, "OFF").upper() not in ("OFF", "0", "FALSE", "NO"):
            fail(f"refusing to measure a build with {opt}=ON", 3)
    if cache.get("CMAKE_BUILD_TYPE") not in ("Release", "RelWithDebInfo"):
        fail("refusing to measure a build that is not Release or "
             "RelWithDebInfo", 3)
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if "-fsanitize" in flags or "--coverage" in flags:
        fail("refusing to measure an instrumented build", 3)


def stop_group(proc):
    """Kills the harness's process group (the harness and the daemons it
    spawned, which a crashed harness leaves behind) and waits until the
    group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def fingerprint(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_counters(args, counters, notes):
    """Flags work counters that differ from an earlier run of the same code
    (same binaries, workload, seed, duration and mode)."""
    state_dir = os.path.join(".bench_build", "counters")
    os.makedirs(state_dir, exist_ok=True)
    state = os.path.join(
        state_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{args.seconds}.json")
    fp = fingerprint([os.path.join(BUILD, "perfbench"),
                      os.path.join(BUILD, "tawa", "tawa-serve")])
    if os.path.exists(state):
        with open(state) as f:
            prev = json.load(f)
        if prev.get("fingerprint") == fp and prev.get("counters") != counters:
            diff = sorted(k for k in set(counters) | set(prev["counters"])
                          if counters.get(k) != prev["counters"].get(k))
            notes.append("# INCORRECT: work counters differ from the previous "
                         f"run of the same code: {', '.join(diff)}")
            return False
    with open(state, "w") as f:
        json.dump({"fingerprint": fp, "counters": counters}, f)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "tests/corpus", "perfbench/CMakeLists.txt",
                 "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"run from the root of a tawa checkout ({need} is missing)", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}", 2)
    refuse_instrumented()

    env = {k: v for k, v in os.environ.items() if not k.startswith("TAWA_")}
    run_dir = os.path.join(".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("harness timed out", 4)
    finally:
        stop_group(proc)
        for sub, suffix in (("", ""), ("serve", "-serve")):
            spans = os.path.join(run_dir, sub, "spans.jsonl")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(
                    ".bench_build", f"spans-{args.workload}{suffix}.jsonl"))
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited {proc.returncode}", 4)

    result = json.loads(lines[-1])
    notes = lines[:-1]
    counters = {}
    for line in notes:
        if line.startswith("COUNTERS "):
            counters = json.loads(line[len("COUNTERS "):])
    if not check_counters(args, counters, notes):
        result["correct"] = False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed harness result", 4)
    if set(result["metrics"]) != expected:
        fail("harness metrics do not match BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}", 4)
    for line in notes:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
