#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_steady|serve_overload|signal_year \
        --seed N --seconds S --trace 0|1 [--tick-csv PATH]

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the fairco2 libraries it links) into .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. See README.md.
"""

import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"),
                            "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(3, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: no fairco2 sources under %s/src\n"
                         % ROOT)
        return 2
    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 2
    work = BUILD / ("work-%d" % os.getpid())
    try:
        return subprocess.run([str(BUILD / "perfbench")] + sys.argv[1:] +
                              ["--work-dir", str(work)]).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
