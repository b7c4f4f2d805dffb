#!/usr/bin/env python3
"""Campaign benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; working files (journals) go to a
per-process directory inside it and are removed afterwards.  The last stdout
line of a single-workload run is the result JSON printed by perfbench.
`--workload all` runs every workload untraced, one process each, prints
every end-to-end metric by name and unit, and exits nonzero if any output
check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["catalog_sa", "journal_resume", "fleet_3w"]
RUN_TIMEOUT_S = 175
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    """Configure and build perfbench; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, work_root, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    work_dir = os.path.join(work_root, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    if args.workload != "all":
        code, out = run_one(binary, build_root, args.workload, args.seed,
                            args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    failed = False
    for workload in WORKLOADS:
        code, out = run_one(binary, build_root, workload, args.seed,
                            args.seconds, 0)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        ok = code == 0 and result is not None and result["correct"]
        failed |= not ok
        print("%s: %s" % (workload, "ok" if ok else "CHECK FAILED"))
        for name, m in (result or {}).get("metrics", {}).items():
            print("  %-22s %16.6g %s" % (name, m["value"], m["unit"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
