#!/usr/bin/env python3
"""Builds and runs the selection-service benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the libraries from ./src and the
benchmark binary into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir(root: Path) -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def build(root: Path, out: Path) -> None:
    """Configures (once) and builds the benchmark; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The binary validates the values (workload names live there).
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    out = build_dir(root)
    try:
        build(root, out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", str(out / f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
