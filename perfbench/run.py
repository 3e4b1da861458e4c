#!/usr/bin/env python3
"""Builds the perfbench package from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload census-dfs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr.  The benchmark's last line of standard output is
its JSON result.  Exits non-zero, without a result, when the library sources
are missing or the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                     "perfbench")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
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
    return "src-" + digest.hexdigest()[:12]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "verify", "run.hpp")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    answers = os.path.join(HERE, "known_answers.json")
    if argv[:1] == ["--selftest"]:
        cmd = [os.path.join(BUILD, "perfbench_selftest"), answers, os.path.join(BUILD, "out")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), *argv, "--answers", answers,
               "--out-dir", os.path.join(BUILD, "out"), "--rev", source_rev()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
