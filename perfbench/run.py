#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The repository root is the parent of this file's directory. The program
is built there with dune into .bench_build (dune's shared cache off), and
every output of the run stays under that root: the build in .bench_build,
span journals of traced runs in .bench_out. The build log goes to
standard error, so the last line of standard output is the benchmark's
JSON result. The exit code is the benchmark's: 0 when every correctness
gate passed, 1 when one failed, 2 when the library sources are missing,
the build fails or the arguments are bad.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["embed-grid", "embed-maxplanar", "churn-grid", "route-maxplanar"]


def revision():
    """The git revision of the checkout, or "unknown" outside a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "run from a full checkout of the repository",
                  file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--revision", revision()],
        cwd=ROOT,
        timeout=175,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
