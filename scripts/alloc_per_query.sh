#!/usr/bin/env bash
# Heap allocations per query of one benchmark workload, from an LD_PRELOAD
# malloc counter around the built tcells_bench.
#
#   scripts/alloc_per_query.sh [WORKLOAD|all] [BENCH_BUILD_DIR]
#
# WORKLOAD defaults to cnoise_g32; `all` measures every workload
# BENCHMARK.json lists, one line each. BENCH_BUILD_DIR defaults to
# .bench_build/suite,
# where `python3 bench/suite/run_bench.py` builds tcells_bench. The script
# compiles the counter into BENCH_BUILD_DIR/alloc_counter.so, runs the bench
# untraced twice (SHORT_S and LONG_S seconds, default 3 and 8; SEED, default
# 1), and prints the slope: (allocations of the long run - allocations of the
# short run) / (queries of the long run - queries of the short run). Both runs
# do the same set-ups and warm-up queries, so the slope is what one measured
# query costs. Every call of malloc, calloc, realloc, posix_memalign,
# aligned_alloc and memalign counts once; operator new reaches malloc. The
# script only runs the bench binary: it builds and edits nothing else.
set -euo pipefail

workload="${1:-cnoise_g32}"
cd "$(git rev-parse --show-toplevel)"
build_dir="${2:-.bench_build/suite}"
short_s="${SHORT_S:-3}"
long_s="${LONG_S:-8}"
seed="${SEED:-1}"
bench="$build_dir/tcells_bench"
if [[ ! -x "$bench" ]]; then
  echo "no $bench: build it first (python3 bench/suite/run_bench.py --smoke)" >&2
  exit 2
fi

counter="$build_dir/alloc_counter.so"
cat > "$build_dir/alloc_counter.c" <<'EOF'
#define _GNU_SOURCE
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

static unsigned long long g_count;
static void bump(void) { __atomic_fetch_add(&g_count, 1, __ATOMIC_RELAXED); }

void* malloc(size_t n) { bump(); return __libc_malloc(n); }
void* calloc(size_t m, size_t n) { bump(); return __libc_calloc(m, n); }
void* realloc(void* p, size_t n) { bump(); return __libc_realloc(p, n); }
void* memalign(size_t a, size_t n) { bump(); return __libc_memalign(a, n); }
void* aligned_alloc(size_t a, size_t n) { bump(); return __libc_memalign(a, n); }
int posix_memalign(void** out, size_t a, size_t n) {
  bump();
  void* p = __libc_memalign(a, n);
  if (p == NULL) return 12; /* ENOMEM */
  *out = p;
  return 0;
}

/* Written at exit to the file ALLOC_COUNT_FILE names. */
__attribute__((destructor)) static void report(void) {
  const char* path = getenv("ALLOC_COUNT_FILE");
  if (path == NULL) return;
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  fprintf(f, "%llu\n", __atomic_load_n(&g_count, __ATOMIC_RELAXED));
  fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$counter" "$build_dir/alloc_counter.c"

# Prints "<allocations> <measured queries>" for one run of SECONDS; the
# bench's own report goes to alloc_count.SECONDS.log in the build directory.
run() {
  local seconds="$1" out="$build_dir/alloc_count.$1"
  local json
  json="$(ALLOC_COUNT_FILE="$out" LD_PRELOAD="$(realpath "$counter")" \
    "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 0 2> "$out.log" | tail -n 1)"
  local queries
  queries="$(python3 -c 'import json,sys; print(json.loads(sys.argv[1])["attempted"])' "$json")"
  echo "$(cat "$out") $queries"
}

# Prints the slope line of one workload.
slope() {
  workload="$1"
  read -r a_short q_short < <(run "$short_s")
  read -r a_long q_long < <(run "$long_s")
  if (( q_long <= q_short )); then
    echo "$workload: the $long_s s run measured no more queries than the" \
      "$short_s s run" >&2
    return 1
  fi
  python3 - "$workload" "$a_short" "$q_short" "$a_long" "$q_long" <<'EOF'
import sys
w, a0, q0, a1, q1 = sys.argv[1], *map(int, sys.argv[2:])
print("%s: %d allocations / %d queries, %d / %d -> %.0f allocations per query"
      % (w, a0, q0, a1, q1, (a1 - a0) / (q1 - q0)))
EOF
}

if [[ "$workload" == all ]]; then
  status=0
  for w in $(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])'); do
    slope "$w" || status=1
  done
  exit "$status"
fi
slope "$workload"
