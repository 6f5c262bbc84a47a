#!/usr/bin/env python3
"""Build and run the repository benchmark (tcells_bench).

One run, as BENCHMARK.json's command:

    python3 bench/suite/run_bench.py --workload sagg_fleet50k --seed 1 \
        --seconds 20 --trace 0

builds bench/suite into .bench_build/suite (a no-op when up to date), runs the
workload in its own process, checks that the result names exactly the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1),
and prints that result as the last line of stdout:

    {"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}

Build output and progress go to stderr. Traced runs also write their spans to
.bench_build/spans/<workload>-seed<N>.jsonl.

    python3 bench/suite/run_bench.py --smoke

runs every workload at two measured queries over a tenth of its fleet, traced
and untraced, and exits non-zero on any failure or oracle mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "suite")
BINARY = os.path.join(BUILD_DIR, "tcells_bench")
# One run must end within 180 s; the binary's own set-up, warm-up and
# measured phases take about --seconds plus a few seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds tcells_bench incrementally."""
    # The Makefile appears only after a configure succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "tcells_bench",
         "-j", "2"],
        stdout=sys.stderr, check=True)


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns the parsed result or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    elif trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    if proc.returncode != 0:
        log("%s: exit code %d" % (workload, proc.returncode))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s: no result line" % workload)
        return None


def check_result(result, spec, trace):
    """Errors in the result's shape against BENCHMARK.json (empty = ok)."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append("%s is not an integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("nothing attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                      % (sorted(set(wanted) - set(got)),
                         sorted(set(got) - set(wanted))))
    for name, entry in got.items():
        if name in wanted and entry.get("unit") != wanted[name]:
            errors.append("%s unit %s, expected %s"
                          % (name, entry.get("unit"), wanted[name]))
        if not isinstance(entry.get("value"), (int, float)):
            errors.append("%s has no numeric value" % name)
    return errors


def smoke(binary, spec):
    ok = True
    t0 = time.time()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_binary(binary, workload, 1, 1, trace, smoke=True)
            errors = (["no result"] if result is None
                      else check_result(result, spec, trace))
            if not errors and not result["correct"]:
                errors.append("incorrect: %d of %d queries failed"
                              % (result["failed"], result["attempted"]))
            log("%-22s trace %d: %s" % (workload, trace,
                                        "; ".join(errors) or "ok"))
            ok = ok and not errors
    log("smoke %s in %.1f s" % ("passed" if ok else "FAILED", time.time() - t0))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 2 queries over 1/10 fleet")
    parser.add_argument("--binary",
                        help="use this tcells_bench instead of building one")
    args = parser.parse_args()

    spec = load_spec()
    binary = args.binary
    if binary is None:
        try:
            build()
        except (OSError, subprocess.CalledProcessError) as e:
            log("build failed: %s" % e)
            return 1
        binary = BINARY
    if args.smoke:
        return smoke(binary, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("--workload must be one of %s" % ", ".join(names))
        return 2
    result = run_binary(binary, args.workload, args.seed,
                        args.seconds or spec["run_seconds"], args.trace)
    if result is None:
        return 1
    errors = check_result(result, spec, args.trace)
    if errors:
        for e in errors:
            log("result: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
