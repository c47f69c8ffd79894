#!/usr/bin/env python3
"""Build and run the Triple-C end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload roi_1024 --seed 1 --seconds 54 --trace 0
    python3 e2ebench/run.py --self-test

--seconds defaults to run_seconds in BENCHMARK.json.

The first call configures and builds the libraries in ../src and the
tcbench harness, in Release mode, under .bench_build/e2ebench.  Every run
prints host facts, the workload constants, every metric with its unit and
sample count and the output check; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  Exits non-zero, without
a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
TRACE_DIR = os.path.join(os.getcwd(), ".bench_build", "traces")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise SystemExit("build step failed: " + " ".join(cmd))


def build(target):
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
              BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def source_id():
    """Commit id when the tree is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_spec():
    """BENCHMARK.json at the repository root, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]) if spec else 54.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("tcbench_test")
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S, check=False).returncode
    if not args.workload:
        ap.error("--workload is required")

    binary = build("tcbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]

    # Forward the harness's output line by line, holding back the last line
    # until it is known to be a well-formed result.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or last is None:
        if last is not None:
            print(last, flush=True)
        log("tcbench exited with code %d" % code)
        return code or 1
    try:
        result = json.loads(last)
    except ValueError:
        print(last, flush=True)
        log("tcbench printed no result line")
        return 1
    want = None
    if spec is not None:
        want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("metric names differ from BENCHMARK.json: %s" %
            sorted(set(want) ^ set(result["metrics"])))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
