#!/usr/bin/env python3
"""Build and run the verdict benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build/ (shared cache off,
so nothing is written outside the checkout), then runs it with the same
arguments.  Build output goes to stderr; the benchmark's own output,
ending with one JSON result line, goes to stdout.  Exits non-zero without
a result when the checkout lacks the library sources or the build fails.
"""

import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
# Address-space cap of the benchmark process: a runaway allocation ends the
# run with an error instead of exhausting a shared host's memory.
MEMORY_CAP = 4 << 30


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no dune-project and lib/ next to perfbench/; "
              "run it from a full source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--profile", "release", "-j", "2",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                          preexec_fn=cap_memory).returncode


if __name__ == "__main__":
    sys.exit(main())
