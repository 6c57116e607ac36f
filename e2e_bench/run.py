#!/usr/bin/env python3
"""End-to-end benchmark of pimecc.

Builds the e2e_bench program (and the pimecc library it measures) from the
source tree into .bench_build/e2e_bench, then runs one workload:

    python3 e2e_bench/run.py --workload run_n1020 --seed 1 --seconds 5 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every correctness check passed.

    python3 e2e_bench/run.py --smoke

is the benchmark's self-test: every workload briefly, untraced and traced,
with every correctness check on, plus one run with a deliberately corrupted
response that must be caught.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
EXE = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("run_n1020", "control_mix", "campaign")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Longest --seconds (kMaxSeconds in src/report.hpp): a traced run_n1020 run
# lasts up to about seven times --seconds and must end within RUN_TIMEOUT_S,
# and its ring holds 8192 distinct request seeds.
MAX_SECONDS = 15


def log(message):
    print("e2e_bench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp"))):
        log("no pimecc source tree at " + ROOT)
        sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed: %s" % error)
            sys.exit(1)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            sys.exit(1)


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "unknown"


def run_bench(args, describe):
    """Runs the e2e_bench program; returns (exit code, stdout text)."""
    command = [EXE] + args + ["--git-describe", describe, "--out-dir", BUILD_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2e_bench timed out after %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return done.returncode, done.stdout


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return None
    return result


def smoke(describe):
    """Self-test: short runs of every workload plus a gate check."""
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, stdout = run_bench(["--workload", workload, "--seed", "7",
                                       "--seconds", "0.5", "--trace", trace,
                                       "--warmup", "0.2", "--setup-reps", "2"],
                                      describe)
            result = result_line(stdout)
            label = "%s trace=%s" % (workload, trace)
            if code != 0 or result is None or result["correct"] is not True:
                problems.append(label + ": failed (exit %d)" % code)
                sys.stderr.write(stdout)
                continue
            if trace == "0":
                zero = [name for name, metric in result["metrics"].items()
                        if not metric["value"] > 0]
                if zero:
                    problems.append(label + ": zero metrics " + ", ".join(zero))
            log("smoke %s: ok (%d operations)" % (label, result["attempted"]))
    for workload in WORKLOADS:
        code, stdout = run_bench(["--workload", workload, "--seed", "7",
                                   "--seconds", "0.3", "--trace", "0", "--warmup", "0",
                                   "--setup-reps", "1", "--inject-mismatch"], describe)
        result = result_line(stdout)
        if code == 0 or result is None or result["correct"] is not False:
            problems.append(workload + ": a corrupted response went unnoticed")
        else:
            log("smoke %s: corrupted response caught" % workload)
    for problem in problems:
        log("smoke FAILED: " + problem)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description="pimecc end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test instead")
    options = parser.parse_args()
    if not options.smoke and options.workload is None:
        parser.error("--workload is required")
    if options.seed < 0 or not 0 < options.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in (0, %d]" % MAX_SECONDS)

    build()
    describe = git_describe()
    if options.smoke:
        return smoke(describe)
    code, stdout = run_bench(["--workload", options.workload,
                               "--seed", str(options.seed),
                               "--seconds", repr(options.seconds),
                               "--trace", options.trace], describe)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if result_line(stdout) is None:
        log("e2e_bench printed no result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
