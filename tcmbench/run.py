#!/usr/bin/env python3
"""Build and run the tcm repository benchmark.

    python3 tcmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
the library, tcm_serve and the tcmbench driver (Release) into
$CARGO_TARGET_DIR/tcmbench, or .bench_build/tcmbench when that variable is
unset; later calls only re-check the build. The driver's human-readable
lines and, last, its result object go to standard output; build logs go
to standard error. The exit code is non-zero when the build fails, a
correctness check fails, or the result does not carry exactly the metrics
BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcmb_stream_merge", "csv_inmem_tclose_first", "serve_small_jobs")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "tcmbench")


def build(out):
    """Configures (once) and builds; returns the binary paths or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "tcmbench", "tcm_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("tcmbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "tcmbench")
    serve = os.path.join(out, "tcm", "tools", "tcm_serve")
    if not (os.path.isfile(binary) and os.path.isfile(serve)):
        print("tcmbench: build produced no binaries", file=sys.stderr)
        return None
    return binary, serve


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    # Keep compiler and driver temporaries inside the checkout too.
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    built = build(out)
    if built is None:
        return 1
    binary, serve = built

    work = os.path.join(out, "work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--serve-binary", serve]
    # Own process group, so a timeout also stops the tcm_serve child.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("tcmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sys.stdout.write(stdout)
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print("tcmbench: driver failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        print("tcmbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(result["metrics"]) ^ declared), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
