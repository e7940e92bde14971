#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sweep|single|serve --seed N \
        --seconds S --trace 0|1

Builds the simulator libraries, the ptb-serve daemon and the benchmark
driver from this checkout's sources (an optimised CMake build under
.bench_build/perfbench; incremental after the first run), then replaces
itself with the driver. The driver's last stdout line is the result JSON;
build output goes to stderr. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OPTIMISED = ("Release", "RelWithDebInfo", "MinSizeRel")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    for need in ("src/CMakeLists.txt", "tools/ptb_serve.cpp", "results"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("cannot build: %s is missing from %s" % (need, ROOT))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ptb-perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    if build_type() not in OPTIMISED:
        fail("refusing to report from a build without optimisation "
             "(CMAKE_BUILD_TYPE=%r)" % build_type())


def remove_stale_work_dirs():
    """Scratch left by runs that were killed (their pid is gone)."""
    top = os.path.dirname(BUILD)
    for name in os.listdir(top):
        if not name.startswith("work-"):
            continue
        try:
            os.kill(int(name[5:]), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(top, name), ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    loadavg = "%.2f" % os.getloadavg()[0]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep", "single", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    remove_stale_work_dirs()
    exe = os.path.join(BUILD, "ptb-perfbench")
    serve = os.path.join(BUILD, "ptb-serve")
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    sys.stdout.flush()
    os.execv(exe, [exe, "--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace),
                   "--root", ROOT, "--serve-bin", serve, "--work-dir", work,
                   "--commit", commit(), "--loadavg", loadavg])


if __name__ == "__main__":
    main()
