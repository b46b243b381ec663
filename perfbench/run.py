#!/usr/bin/env python3
"""Runs one perfbench workload; see perfbench/README.md.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 50 --trace 0

Builds the benchmark binary (cqbench) and the cq_serve daemon from this checkout's
sources into .bench_build/perfbench (Release; later runs rebuild only what
changed), then runs cqbench. It prints a run record, one line per
phase, and, as the last line of standard output, the result JSON. Build
output goes to standard error.

Exit status: 0 on success, 3 when an output differs from the scalar
reference, anything else on other failures (2: the build failed).
"""

import argparse
import ctypes
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve", "session")
# Sources the build reads, hashed into the run record.
SOURCES = ("CMakeLists.txt", "src", "tools", "tests", "bench", "examples", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "cqbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "cqbench")


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def die_with_parent():
    """Child setup: cqbench is killed if this script is."""
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGKILL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one byte of one reference output (self-test of the gate)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--out_dir={os.path.join(BUILD, 'out')}",
               f"--git_rev={git_revision()}", f"--source_digest={source_digest()}"]
    if args.corrupt_reference:
        command.append("--corrupt_reference")
    sys.stdout.flush()
    return subprocess.run(command, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
