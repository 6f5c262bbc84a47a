#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark.

    python3 bench/suite/compare.py --parent ../parent --change . --runs 10

runs the benchmark of each checkout (its own bench/suite/run_bench.py, built
in its own .bench_build) on every workload, for run_seconds, in alternating
pairs: pair i runs both sides with seed SEED_BASE + i, parent first on even
pairs and change first on odd ones. For every (workload, metric) it prints
each side's median and quartiles and a verdict, using the bounds from the
change's BENCHMARK.json:

  improved    the change wins at least 9 in 10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  unresolved  the parent's quartile spread exceeds the bound, unless every
              change run reads better than every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

setup_s may also worsen by SETUP_FLOOR_S before it counts as regressed: a
set-up of a few milliseconds moves by more than its bound from noise alone.
Per-layer metrics (--trace) carry no bound; they get improved / worse /
unchanged by the pair rule alone.

    python3 bench/suite/compare.py --self-check --change . --runs 10

runs two sets of the same checkout and passes only if, on every workload,
each end-to-end metric's medians agree within its bound, each set's quartile
spread stays within the bound (setup_s excepted), and the counts that must
repeat exactly do. --save FILE keeps the raw runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 1000
SETUP_FLOOR_S = 0.05

# Per-layer counts that depend only on the seed on the one-client workloads.
# (Under sagg_conc4_10k and the rollover schedule of sagg_tcp_dynkeys_10k the
# queries a run completes depend on timing, so only medians are compared.)
EXACT_METRICS = (
    "protocol.collection_ticks",
    "protocol.rounds",
    "protocol.contributions_rejected",
    "tds.items_per_query",
    "ssi.control.calls",
    "ssi.round.calls",
    "sim.p_tds",
    "sim.load_q_mb",
    "net.retries",
)
EXACT_WORKLOADS = ("sagg_fleet50k", "cnoise_g32")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "suite", "run_bench.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("  %s seed %d: run failed (exit %d)" % (workload, seed,
                                                    proc.returncode))
        return None
    return json.loads(lines[-1])


def collect(sides, workloads, runs, seconds, trace):
    """Alternating pairs: every side runs every workload once per pair."""
    records = []
    for i in range(runs):
        seed = SEED_BASE + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for label, root in order:
            for w in workloads:
                log("pair %d/%d  %-6s %-22s seed %d" % (i + 1, runs, label, w,
                                                      seed))
                result = run_one(root, w, seed, seconds, trace)
                records.append({"side": label, "workload": w, "seed": seed,
                                "pair": i, "result": result})
    return records


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, side, workload, metric):
    """Values by pair index for one side/workload/metric."""
    out = {}
    for r in records:
        res = r["result"]
        if (r["side"] == side and r["workload"] == workload and res
                and metric in res["metrics"]):
            out[r["pair"]] = res["metrics"][metric]["value"]
    return out


def allowed_worsening(metric, median):
    """How far a median may worsen before it counts as regressed."""
    slack = metric["bound"] * abs(median)
    if metric["name"] == "setup_s":
        slack = max(slack, SETUP_FLOOR_S)
    return slack


def verdict(parent, change, metric):
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        return "missing", 0
    sign = 1 if metric["better"] == "lower" else -1
    p = [parent[i] for i in pairs]
    c = [change[i] for i in pairs]
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    q1, mp, q3 = quartiles(p)
    mc = statistics.median(c)
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and sign * (mp - mc) > spread:
        return "improved", wins
    if "bound" not in metric:
        if losses >= 0.9 * len(pairs) and sign * (mc - mp) > spread:
            return "worse", wins
        return "unchanged", wins
    all_better = max(sign * x for x in c) < min(sign * x for x in p)
    if spread > allowed_worsening(metric, mp) and not all_better:
        return "unresolved", wins
    if sign * (mc - mp) > allowed_worsening(metric, mp):
        return "regressed", wins
    return "unchanged", wins


def fmt(v):
    return "%.4g" % v


def report(records, spec, labels, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    header = "%-22s %-30s" % ("workload", "metric")
    for label in labels:
        header += " %-30s" % ("%s median [q1, q3]" % label)
    header += " %8s %5s  verdict" % ("delta", "wins")
    print(header)
    for w in [w["name"] for w in spec["workloads"]]:
        for m in metrics:
            row = "%-22s %-30s" % (w, m["name"])
            data = [series(records, label, w, m["name"]) for label in labels]
            for d in data:
                q1, med, q3 = quartiles(list(d.values()))
                row += " %-30s" % ("%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)))
            v, wins = verdict(data[0], data[1], m)
            mp = statistics.median(data[0].values()) if data[0] else 0
            mc = statistics.median(data[1].values()) if data[1] else 0
            delta = (mc - mp) / abs(mp) * 100 if mp else 0.0
            row += " %+7.1f%% %2d/%-2d  %s" % (delta, wins, len(data[0]), v)
            print(row)


def self_check(records, spec, trace):
    """Two sets of one commit: agreement within bounds, exact counts."""
    problems = []
    for r in records:
        if r["result"] is None or not r["result"]["correct"]:
            problems.append("%s seed %d (set %s): run failed or incorrect"
                            % (r["workload"], r["seed"], r["side"]))
    if trace:
        for w in EXACT_WORKLOADS:
            for name in EXACT_METRICS:
                a = series(records, "A", w, name)
                b = series(records, "B", w, name)
                for i in sorted(set(a) & set(b)):
                    if a[i] != b[i]:
                        problems.append("%s %s pair %d: %r != %r"
                                        % (w, name, i, a[i], b[i]))
        return problems
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = list(series(records, "A", w, m["name"]).values())
            b = list(series(records, "B", w, m["name"]).values())
            if not a or not b:
                problems.append("%s %s: no values" % (w, m["name"]))
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            if abs(mb - ma) > allowed_worsening(m, ma):
                problems.append("%s %s: medians differ by %.1f%% (bound %.0f%%)"
                                % (w, m["name"], abs(mb - ma) / abs(ma) * 100,
                                   m["bound"] * 100))
            if m["name"] == "setup_s":
                continue
            for label, vals in (("A", a), ("B", b)):
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else 0.0
                if spread > m["bound"]:
                    problems.append("%s %s: set %s spread %.1f%% (bound %.0f%%)"
                                    % (w, m["name"], label, spread * 100,
                                       m["bound"] * 100))
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout root of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout root of the change")
    parser.add_argument("--self-check", action="store_true",
                        help="two sets of --change, checked against bounds")
    parser.add_argument("--runs", type=int, default=10,
                        help="pairs (or runs per set); at least 10 to claim")
    parser.add_argument("--trace", action="store_true",
                        help="compare per-layer metrics from traced runs")
    parser.add_argument("--save", help="write the raw runs to this file")
    args = parser.parse_args()
    if args.self_check == bool(args.parent):
        parser.error("give exactly one of --parent and --self-check")

    change = os.path.abspath(args.change)
    if args.self_check:
        sides = [["A", change], ["B", change]]
    else:
        sides = [["parent", os.path.abspath(args.parent)], ["change", change]]
    trace = 1 if args.trace else 0
    spec = load_spec(change)
    records = collect(sides, [w["name"] for w in spec["workloads"]], args.runs,
                      spec["run_seconds"], trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"sides": sides, "trace": trace, "records": records}, f,
                      indent=1)

    report(records, spec, [label for label, _ in sides], trace)
    if not args.self_check:
        return 0
    problems = self_check(records, spec, trace)
    for p in problems:
        print("SELF-CHECK: " + p)
    print("self-check %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
