#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, and `single`, at minimum length
(--seconds 1), untraced and traced, and checks that each run exits 0, passes its
correctness checks, and prints exactly the metric names (with the units)
that BENCHMARK.json declares: the end-to-end metrics untraced, the
per-layer metrics traced. Exits 0 when every run passes.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # `single` is a supported workload that BENCHMARK.json leaves out (see
    # README.md); it must still print the same metrics.
    workloads = [w["name"] for w in spec["workloads"]] + ["single"]
    failures = 0
    for name in workloads:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", name, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no result line (exit %d)" % p.returncode)
            if p.returncode != 0:
                problems.append("exit code %d" % p.returncode)
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("attempted", 0) < 1:
                    problems.append("checks failed: %s" % [
                        l for l in lines if l.startswith("FAILED")])
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    units = sorted(k for k in set(got) & set(expected[trace])
                                   if got[k] != expected[trace][k])
                    problems.append("metric mismatch: missing %s, extra %s, "
                                    "unit differs %s" % (missing, extra, units))
            status = "ok  " if not problems else "FAIL"
            print("%s %s --trace %d %s" % (status, name, trace,
                                          "; ".join(problems)))
            if problems:
                failures += 1
                sys.stderr.write(p.stderr[-2000:])
    print("smoke: %s" % ("OK" if failures == 0 else "%d FAILED" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
