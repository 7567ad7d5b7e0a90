#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

    python3 campaign_bench/run.py --workload national_scan --seed 1 \
        --seconds 20 --trace 0
    python3 campaign_bench/run.py --selftest

Run from anywhere; paths resolve against the checkout that holds this file.
The build goes to .bench_build/ at the checkout root, scratch files (the
checkpoint snapshots) to a per-run directory under it that is removed when
the run ends, and a traced run's spans to .bench_build/spans/. The last
line of stdout is the result JSON printed by the benchmark binary.

--selftest runs every workload at a tiny size, traced and untraced, on two
seeds, and checks that the result lines carry exactly the metrics, units and
verdicts BENCHMARK.json promises.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
WORKLOADS = ("national_scan", "domain_sweep")
# Every run must end within 180 s; the benchmark itself stops starting new
# repetitions once --seconds is used up, so this only catches a hang.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the benchmark target (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; cannot build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
            "-j", "4"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout text)."""
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-",
                                dir=os.path.join(BUILD_DIR, "tmp"))
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work_dir]
    if tiny:
        args.append("--tiny")
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        size = "tiny-" if tiny else ""
        args += ["--spans",
                 os.path.join(spans_dir, f"{workload}-{size}seed{seed}.jsonl")]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        print(out or "", end="")
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def selftest():
    """Tiny-size run of every workload; asserts names, units and checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's")
    failures = 0
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                code, out = run(workload, seed, 1, trace, tiny=True)
                problems = check_result(code, out, expected[trace])
                label = f"{workload} seed={seed} trace={trace}"
                print(f"selftest: {label}: {'; '.join(problems) or 'ok'}")
                if problems:
                    print(out)
                    failures += 1
    print("selftest:", f"{failures} FAILED" if failures else "ok")
    return 1 if failures else 0


def check_result(code, out, units_expected):
    """What is wrong with one tiny run's output (empty when nothing)."""
    res = result_line(out)
    if code != 0 or res is None:
        return [f"exit {code}, no result line"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append("result checks failed")
    if res.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    units = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if units != units_expected:
        problems.append(f"metrics {units}, expected {units_expected}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running child, and the scratch directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    build()
    if args.selftest:
        return selftest()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    print(out, end="")
    if code != 0 or result_line(out) is None:
        fail(f"{args.workload} exited with {code} and no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
