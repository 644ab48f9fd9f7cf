#!/usr/bin/env python3
"""Build the lastcpu emulator from source and run one benchmark workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Every argument is passed to perfbench/main.exe (see GLOSSARY.md). Build
output goes to stderr, so the last line of stdout is the result JSON.
Spans and scratch snapshots go to .perfbench-out/ in the tree.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print("perfbench: the lastcpu sources (dune-project, lib/) are missing",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
