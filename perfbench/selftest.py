#!/usr/bin/env python3
"""Self-test for the repo benchmark.

Runs every workload named in BENCHMARK.json once at a tiny size, traced
and untraced, and checks that the result line parses, that no simulation
failed, and that every metric BENCHMARK.json names is printed with its
unit and a finite value:

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return ["exit code %d" % proc.returncode]
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys " + ", ".join(sorted(result)))
    if result.get("correct") is not True:
        errors.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append("attempted %r" % attempted)
    if failed != 0:
        errors.append("failed %r" % failed)
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                      % (sorted(set(expected) - set(metrics)),
                         sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append("%s: %r, expected unit %s" % (name, m, unit))
        elif not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s: value %r" % (name, m["value"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = [{m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")]
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(w["name"], trace, units[trace])
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print("%-16s trace %d  %s" % (w["name"], trace, status))
            bad += bool(errors)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
