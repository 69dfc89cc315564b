#!/usr/bin/env python3
"""Build and run the simulator's host-throughput benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the simulator
libraries it links) into .bench_build/perfbench; later calls rebuild
only what changed. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("stream", "commercial", "tenants-os", "sweep")
BUILD_TYPE = "RelWithDebInfo"
# Slack for set-up and the traced run's replays beyond --seconds.
RUN_SLACK_S = 150


def whole(lo, hi):
    """argparse type: a whole decimal number in [lo, hi]."""
    def parse(text):
        if not re.fullmatch(r"[0-9]{1,19}", text):
            raise argparse.ArgumentTypeError(
                f"must be a whole number, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must be in [{lo}, {hi}], got {value}")
        return value
    return parse


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=whole(0, 2**63 - 1))
    p.add_argument("--seconds", type=whole(1, 600))
    p.add_argument("--trace", type=whole(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="check the benchmark's own probes and exit")
    args = p.parse_args()
    if not args.selftest:
        missing = [f"--{name}" for name in ("workload", "seed", "seconds",
                                            "trace")
                   if getattr(args, name) is None]
        if missing:
            p.error("the following arguments are required: " +
                    ", ".join(missing))
    return args


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the benchmark target."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "asdbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "asdbench"


def source_id():
    """The git commit, or a hash of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(line):
    """The last output line must be the result object the contract names."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    args = parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    # The binary reads perfbench/digests.json and writes sweep records
    # under .bench_build/perfbench-tmp, both relative to the root.
    cmd = [str(binary)]
    if args.selftest:
        cmd.append("--selftest")
        timeout = 600
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", source_id()]
        timeout = args.seconds + RUN_SLACK_S
    # Trace lengths are fixed by the benchmark; the figure benches'
    # scale knob must not shrink the sweep's jobs.
    env = {k: v for k, v in os.environ.items() if k != "ASD_BENCH_SCALE"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark did not finish within {timeout} s")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    if not args.selftest:
        lines = out.strip().splitlines()
        if not lines or not check_result(lines[-1]):
            log("benchmark printed no result object")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
