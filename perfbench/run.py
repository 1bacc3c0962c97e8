#!/usr/bin/env python3
"""Builds the xmap6 benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload census --seed 7 --seconds 12 --trace 0

    python3 perfbench/run.py --workload all --seed 7 --seconds 12 --trace 0

Run from the repository root. The harness is built with CMake into the
directory named by $CARGO_TARGET_DIR (default .bench_build), a no-op once
built; build output goes to stderr. The harness's stdout is passed through
unchanged, so the last line is the result JSON object. The exit status is
the harness's: 0 when every ground-truth check passed, 1 when one failed.
When the sources cannot be built the script exits non-zero without
printing a result.

Extra flags for the self-tests: --size tiny (small worlds) and
--inject drop_record|wrong_answer (a deliberate defect the checks must
report).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "lossy_fabric", "audit", "store_query")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no xmap6 sources next to the benchmark")
        return None
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", build_dir, "--target",
                  "perfbench_harness", "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "perfbench_harness")
    return binary if os.path.isfile(binary) else None


def git_head(root):
    """The commit sha from .git without a git binary, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_id():
    """Names the measured source: env, git, .git/HEAD, else a tree hash."""
    if os.environ.get("GITHUB_SHA"):
        return "git:" + os.environ["GITHUB_SHA"]
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return "git:" + done.stdout.strip()
    sha = git_head(ROOT)
    if sha:
        return "git:" + sha
    # No repository (an exported checkout): hash the sources instead.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", choices=("drop_record", "wrong_answer"))
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2
    out_dir = os.path.join(build_dir, "perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    # "all" runs every workload in turn and fails if any of them fails.
    status = 0
    source = source_id()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size, "--out-dir", out_dir,
               "--source-id", source]
        if args.inject:
            cmd += ["--inject", args.inject]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
