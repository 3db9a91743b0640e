#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ann_topk --seed 1 --seconds 20 --trace 0

The program (perfbench/src, built by perfbench/CMakeLists.txt against the
engine sources in src/) is compiled into .bench_build/ on first use; later
runs only re-check the build. Its output is passed through; its
last line is the JSON result. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ann_topk", "hybrid_rag")


def build_dir():
    # Build outputs go under CARGO_TARGET_DIR when it is set (relative to
    # the checkout root), else under .bench_build, so they stay in one place.
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_rev():
    """Commit id when the checkout is a git repository, else a digest of the
    sources the program is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if _have("ninja") else []
            rc = subprocess.call(["cmake", "-S", HERE, "-B", out_dir,
                                  "-DCMAKE_BUILD_TYPE=Release"] + generator,
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                return None, log_path
        rc = subprocess.call(["cmake", "--build", out_dir, "--target", "tvbench",
                              "-j", str(min(4, os.cpu_count() or 1))],
                             stdout=log, stderr=subprocess.STDOUT)
    binary = os.path.join(out_dir, "tvbench")
    return (binary if rc == 0 and os.path.exists(binary) else None), log_path


def _have(program):
    return any(os.access(os.path.join(p, program), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary, log_path = build(out_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        return 1

    # Let the build's dirty pages reach the disk first, so their writeback
    # does not compete with the measured run.
    os.sync()
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TVBENCH_SOURCE_REV=source_rev())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    sys.stdout.flush()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.stderr.write("perfbench: tvbench exited with %d\n" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
