#!/usr/bin/env bash
# Reach census: the src/ functions that no non-test entry point executes.
#
#   scripts/reach_census.sh [BUILD_DIR]
#
# Builds the examples, the benches and the repository benchmark with
# --coverage (Debug, -O0) in BUILD_DIR (default build-census/, git-ignored),
# deletes every .gcda, then runs the entry points a user runs:
#   - the five demo examples (quickstart, smart_metering, health_survey,
#     protocol_advisor, stream_metering);
#   - run_query for each protocol, on the loopback and on the TCP transport,
#     with an ORDER BY and the trace and metrics exports;
#   - run_campaign (the full manifest) on both backends;
#   - every bench under bench/ except bench_fleet_scale, whose grid does not
#     finish within 20 min under coverage, and bench_crypto_json, whose every
#     row calls a crypto kernel directly instead of running a query;
#   - bench/suite/run_bench.py --smoke.
# Tests, fuzzers and make_corpus are not run: a function only they reach is
# what the census is for. A gcov --json-format pass then merges each
# function's execution count across translation units and prints the
# functions defined in src/**/*.cc whose count is 0 (lambdas and static
# initializers left out), and the src/ units that were compiled but have no
# .gcda because no entry point links them. Functions defined in headers are
# not listed: an inline function nobody instantiates leaves no record.
#
# Needs cmake, a GCC toolchain with gcov, GTest (for the top-level
# configure) and python3. On a 2-vCPU x86-64 host a cold build takes about
# 4 min and the runs under 2 min. The census is a report, not a CI gate.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-$root/build-census}")"
jobs="${JOBS:-2}"

benches=()
for f in "$root"/bench/bench_*.cc; do
  b="$(basename "$f" .cc)"
  [[ "$b" == bench_fleet_scale || "$b" == bench_crypto_json ]] && continue
  benches+=("$b")
done
examples=(quickstart smart_metering health_survey protocol_advisor
          stream_metering)

echo "reach census: building with --coverage in $build" >&2
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$build" -j"$jobs" --target "${examples[@]}" run_query \
  run_campaign "${benches[@]}" tcells_bench >/dev/null

find "$build" -name '*.gcda' -delete
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Runs one entry point in the scratch directory (benches write their
# BENCH_*.json there). A non-zero exit is reported, not fatal: the census
# counts what ran either way.
run() {
  echo "  run: ${*#"$build/"}" >&2
  local rc=0
  (cd "$work" && "$@") >/dev/null 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then echo "    exit $rc" >&2; fi
}

echo "reach census: running entry points" >&2
for e in "${examples[@]}"; do run "$build/examples/$e"; done
agg="SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp ORDER BY grp"
for transport in loopback tcp; do
  for p in s_agg r_noise c_noise ed_hist basic; do
    q="$agg"
    [[ $p == basic ]] && q="SELECT grp, cat FROM T WHERE cat < 4 ORDER BY grp"
    run "$build/examples/run_query" "$q" --protocol=$p --threads=1 \
      --transport=$transport --trace-json=trace.json \
      --metrics-json=metrics.json
  done
done
for backend in loopback tcp; do
  run "$build/examples/run_campaign" --backend=$backend
done
for b in "${benches[@]}"; do run "$build/bench/$b"; done
run python3 "$root/bench/suite/run_bench.py" --smoke \
  --binary "$build/tcells_bench"
echo "  skipped: bench_fleet_scale (its grid does not finish within 20 min" \
  "under coverage)" >&2
echo "  skipped: bench_crypto_json (a micro-bench: it calls the crypto" \
  "kernels directly, not through a query)" >&2

echo "reach census: gcov pass" >&2
python3 - "$root" "$build" <<'EOF'
import json, os, subprocess, sys

root, build = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep

# Spelled-out library types, shortened for reading.
SHORT = [
    ("[abi:cxx11]", ""),
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("std::vector<unsigned char, std::allocator<unsigned char> >", "Bytes"),
    ("std::span<unsigned char const, 18446744073709551615ul>",
     "std::span<const uint8_t>"),
]


def short(name):
    for long_form, short_form in SHORT:
        name = name.replace(long_form, short_form)
    return name

counts = {}    # (file, start line, name) -> [count, lines]
unlinked = []  # src/ units with a .gcno and no .gcda
for dirpath, _, files in os.walk(build):
    for f in sorted(files):
        if not f.endswith(".gcno"):
            continue
        gcda = os.path.join(dirpath, f[:-len(".gcno")] + ".gcda")
        if not os.path.exists(gcda):
            rel = os.path.relpath(dirpath, build)
            if rel.startswith("src" + os.sep):
                unit_dir = rel.split(os.sep + "CMakeFiles" + os.sep)[0]
                unit = os.path.join(unit_dir, f[:-len(".gcno")])
                # A .gcno left by a source file since deleted is no unit.
                if os.path.exists(os.path.join(root, unit)):
                    unlinked.append(unit)
            continue
        out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                             cwd=build, capture_output=True, text=True,
                             check=True).stdout
        for line in out.splitlines():
            for entry in json.loads(line)["files"]:
                path = os.path.realpath(os.path.join(build, entry["file"]))
                if not path.startswith(src) or not path.endswith(".cc"):
                    continue
                rel = os.path.relpath(path, root)
                for fn in entry["functions"]:
                    name = fn["demangled_name"]
                    if "{lambda(" in name or name.startswith(
                            ("__static_initialization", "_GLOBAL__sub_I")):
                        continue
                    key = (rel, fn["start_line"], name)
                    slot = counts.setdefault(
                        key, [0, fn["end_line"] - fn["start_line"] + 1])
                    slot[0] += fn["execution_count"]

never = sorted(k for k, (n, _) in counts.items() if n == 0)
lines = sum(counts[k][1] for k in never)
print("%d functions in src/*.cc never executed (%d lines):" %
      (len(never), lines))
for rel, start, name in never:
    print("  %s:%d  %s" % (rel, start, short(name)))
print("%d src/ units compiled but linked by no entry point:" % len(unlinked))
for u in sorted(unlinked):
    print("  " + u)
EOF
