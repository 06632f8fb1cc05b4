#!/usr/bin/env python3
"""Build and run the end-to-end reconfiguration benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload boot-torus16|faults-torus12|chaos-torus3 \\
        --seed N --seconds S --trace 0|1

Builds perfbench/e2e.exe from source with dune, then runs it with the
same arguments, which it checks.  The executable prints human-readable
tables followed by one JSON verdict line, which is the last line of
standard output.  Build output goes to standard error.  Exits non-zero,
without a verdict line, if the build or the run fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/e2e.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"run.py: build failed (exit {build.returncode})")
    exe = os.path.join(root, "_build", "default", "perfbench", "e2e.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=root)
    if run.returncode != 0:
        sys.exit(f"run.py: benchmark failed (exit {run.returncode})")


if __name__ == "__main__":
    main()
