#!/usr/bin/env python3
"""perfbench self-test: a short run of every workload, then the gate.

    python3 perfbench/selftest.py [--seconds 3]

1. Runs each workload with --trace 0 and --trace 1 for a few seconds and
   checks the result line: exit status 0, "correct": true, at least one
   attempted operation, and exactly the end-to-end (trace 0) or
   per-layer (trace 1) metrics of BENCHMARK.json, by name and unit.
2. Runs each workload with one reference byte corrupted and checks that
   the output gate trips: "correct": false and exit status 3.

Exits 0 when every check passes; prints one line per check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seconds, trace, corrupt=False):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", str(seconds),
               "--trace", str(trace)]
    if corrupt:
        command.append("--corrupt-reference")
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return done.returncode, result, done.stderr


def check_metrics(result, expected):
    problems = []
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"missing {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    problems += [f"unexpected {name}" for name in got if name not in expected]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            status, result, stderr = run(workload, args.seconds, trace)
            problems = []
            if status != 0:
                problems.append(f"exit status {status}")
            if result is None:
                problems.append("no result line")
            else:
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                    problems.append("attempted < 1")
                if not isinstance(result.get("failed"), int):
                    problems.append("failed is not a whole number")
                problems += check_metrics(result, expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}"
                  + (": " + "; ".join(problems) if problems else ""))
            if problems:
                print(stderr[-2000:], file=sys.stderr)

        status, result, _ = run(workload, args.seconds, 0, corrupt=True)
        tripped = status == 3 and result is not None and result.get("correct") is False
        failures += not tripped
        print(f"{'ok  ' if tripped else 'FAIL'} {workload} gate trips on one corrupted "
              f"reference byte (exit {status})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
