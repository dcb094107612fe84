#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/bench.cpp together with the
library in src/ (Release, into .bench_build/perfbench; incremental after the
first run), runs one workload, checks that the result names exactly the
metrics BENCHMARK.json declares for that mode, and prints the benchmark's output.
The last line of stdout is the JSON result.  Exits non-zero without a result
when the build, the run or the result check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd: list[str], timeout: float | None = None, **kwargs) -> tuple[int, str]:
    """Runs cmd in its own process group and returns (exit code, stdout).

    If the timeout expires or this process is interrupted, the whole group
    (cmake's make and compilers included) is killed and reaped first.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out or ""


def build() -> None:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(SRC_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if run_child(cmd, stdout=log, stderr=subprocess.STDOUT)[0] != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        fail(f"build produced no binary at {BINARY}")


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line: str, trace: bool) -> None:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not correct/attempted/failed/metrics")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_child reaps whatever is running.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", str(BUILD_DIR)]
    try:
        code, stdout = run_child(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"benchmark exited with code {code}")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
