#!/usr/bin/env python3
"""Build and run the C2-Bound pipeline benchmark.

Run from the repository root:

    python3 pipeline_bench/run.py --workload paper_scale --seed 1 --seconds 20 --trace 0

Builds `c2bound-tool` (for the production-path check) and the benchmark
package with cargo into $CARGO_TARGET_DIR (default `.bench_build`), then
runs the benchmark binary with the given arguments. The last line of
stdout is the JSON result. Exits non-zero when the build, the run or a
correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tool_output(cmd):
    """First line of a command's stdout, or 'unknown'."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def build(manifest, extra):
    """cargo build --release; build output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, os.environ["CARGO_TARGET_DIR"])
    if not build(os.path.join(ROOT, "Cargo.toml"), ["--bin", "c2bound-tool"]):
        print("error: building c2bound-tool failed", file=sys.stderr)
        return 2
    if not build(os.path.join(HERE, "Cargo.toml"), []):
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    # A checkout that is not a git repository has no commit to record.
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = tool_output(["git", "rev-parse", "HEAD"])
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "c2-pipeline-bench"),
           "--cli", os.path.join(release, "c2bound-tool"),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--commit", commit,
           "--rustc", tool_output(["rustc", "--version"])] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
