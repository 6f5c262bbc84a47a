#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload, libc included.
#
#   scripts/sample_profile.sh [WORKLOAD] [SECONDS] [BUILD_DIR]
#
# WORKLOAD defaults to sagg_conc4_10k, SECONDS to 10, BUILD_DIR to
# .bench_build/fp. The script builds tcells_bench from bench/suite into
# BUILD_DIR with -fno-omit-frame-pointer (RelWithDebInfo otherwise, as
# run_bench.py builds it), compiles an LD_PRELOAD sampler into
# BUILD_DIR/sampler.so, runs the bench untraced under it (SEED, default 1)
# and prints three views of the samples:
#
#   self       the function the sampled instruction is in (inlined frames
#              resolved: the innermost one);
#   inclusive  every function on the sampled stack, inlined ones included,
#              counted once per sample;
#   callers    for each of the top 8 self functions, the
#              first frame up the stack that is neither the function
#              itself nor a std:: or __gnu_cxx:: template inlined into
#              its caller.
#
# The first two views print 40 rows each. The sampler arms ITIMER_PROF
# (every 1000 us of process CPU time; the kernel delivers at most one per
# scheduler tick) and, in its SIGPROF handler,
# records the interrupted PC and walks the frame-pointer chain (bounded to
# the thread's stack, at most 64 frames). Code built without frame pointers
# (glibc) still shows as the leaf frame. For a leaf outside the executable
# the handler also scans the top of the stack for the first word that
# points into the executable's code and records it as the leaf's caller: a
# guess, right when that word is the return address of the call into the
# library. The symbolizer maps each address through the process's
# /proc/self/maps and runs `addr2line -a -i -f -C` per module; an address
# with no line information (a stripped libc) gets the nearest exported
# symbol below it, marked `~` and prefixed with the module: a guess, since
# glibc's static functions (_int_malloc, the memcpy variants) show under
# the export they follow. The raw samples stay in BUILD_DIR/samples.txt.
set -euo pipefail

workload="${1:-sagg_conc4_10k}"
seconds="${2:-10}"
cd "$(dirname "$0")/.."
build_dir="${3:-.bench_build/fp}"
seed="${SEED:-1}"

if [[ ! -f "$build_dir/Makefile" ]]; then
  cmake -S bench/suite -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer" >&2
fi
cmake --build "$build_dir" --target tcells_bench -j 2 >&2

sampler="$build_dir/sampler.so"
cat > "$build_dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 64, kWords = 1 << 23, kScanWords = 256 };
static uint64_t* g_buf;           /* [depth, pc, ret...] per sample */
static uint64_t g_used;           /* words claimed, atomically */
static uint64_t g_dropped;
static uint64_t g_exe_lo, g_exe_hi; /* the executable's code */

static int in_exe(uint64_t addr) { return addr >= g_exe_lo && addr < g_exe_hi; }

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)ctx;
  uint64_t frames[kMaxDepth];
  int n = 0;
  const uint64_t sp = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
  uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
  frames[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  if (!in_exe(frames[0])) {
    /* A library leaf: guess its caller from the top of the stack. */
    const uint64_t* word = (const uint64_t*)sp;
    for (int i = 0; i < kScanWords; ++i) {
      if (in_exe(word[i])) {
        frames[n++] = word[i];
        break;
      }
    }
  }
  /* A frame is [saved rbp, return address]; the chain only climbs the
     stack, so a pointer below the last one (or far above the interrupted
     sp) ends the walk. */
  while (n < kMaxDepth && fp >= sp && fp < sp + (64u << 20) && (fp & 7) == 0) {
    const uint64_t* frame = (const uint64_t*)fp;
    const uint64_t ret = frame[1];
    if (ret < 4096) break;
    if (n != 2 || frames[1] != ret) frames[n++] = ret;
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  const uint64_t at = __atomic_fetch_add(&g_used, (uint64_t)n + 1,
                                         __ATOMIC_RELAXED);
  if (at + n + 1 > kWords) {
    __atomic_fetch_add(&g_dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  g_buf[at] = (uint64_t)n;
  memcpy(&g_buf[at + 1], frames, sizeof(uint64_t) * n);
}

__attribute__((constructor)) static void start(void) {
  char exe[4096], line[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[len > 0 ? len : 0] = 0;
  FILE* maps = fopen("/proc/self/maps", "r");
  while (maps != NULL && fgets(line, sizeof(line), maps) != NULL) {
    unsigned long lo, hi;
    char perms[8];
    if (sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 &&
        perms[2] == 'x' && strstr(line, exe) != NULL && g_exe_hi == 0) {
      g_exe_lo = lo;
      g_exe_hi = hi;
    }
  }
  if (maps != NULL) fclose(maps);
  g_buf = mmap(NULL, sizeof(uint64_t) * kWords, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (g_buf == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval t = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &t, NULL);
}

/* At exit: the memory map, then one line of hex addresses per sample. */
__attribute__((destructor)) static void stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("SAMPLER_OUT");
  if (path == NULL || g_buf == MAP_FAILED) return;
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof(line), maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  if (maps != NULL) fclose(maps);
  uint64_t used = __atomic_load_n(&g_used, __ATOMIC_RELAXED);
  if (used > kWords) used = kWords;
  for (uint64_t i = 0; i < used;) {
    const uint64_t n = g_buf[i];
    if (n == 0 || i + 1 + n > used) break;
    fputs("s", out);
    for (uint64_t k = 0; k < n; ++k) fprintf(out, " %lx", g_buf[i + 1 + k]);
    fputs("\n", out);
    i += n + 1;
  }
  fprintf(out, "dropped %lu\n", __atomic_load_n(&g_dropped, __ATOMIC_RELAXED));
  fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$sampler" "$build_dir/sampler.c"

samples="$build_dir/samples.txt"
SAMPLER_OUT="$samples" \
  LD_PRELOAD="$(realpath "$sampler")" \
  "$build_dir/tcells_bench" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 \
  > "$build_dir/bench.json" 2> "$build_dir/bench.log"
echo "$workload: $(tail -n 1 "$build_dir/bench.json")"

python3 - "$samples" <<'EOF'
import bisect
import collections
import os
import re
import subprocess
import sys

maps, stacks, dropped = [], [], 0
for line in open(sys.argv[1]):
    if line.startswith("map "):
        f = line.split()
        if len(f) < 7 or "x" not in f[2] or not f[6].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[1].split("-"))
        maps.append((lo, hi, int(f[3], 16), f[6]))
    elif line.startswith("s "):
        stacks.append([int(x, 16) for x in line.split()[1:]])
    elif line.startswith("dropped "):
        dropped = int(line.split()[1])
maps.sort()
starts = [m[0] for m in maps]


def module_of(addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and addr < maps[i][1]:
        return maps[i]
    return None


# Return addresses point after the call: look up addr - 1 for every frame
# but the sampled PC.
wanted = collections.defaultdict(set)
for st in stacks:
    for depth, addr in enumerate(st):
        m = module_of(addr if depth == 0 else addr - 1)
        if m is not None:
            wanted[m[3]].add((addr if depth == 0 else addr - 1) - m[0] + m[2])


names = {}  # (module, offset) -> [innermost function, ..., outermost]
for path, offsets in wanted.items():
    offsets = sorted(offsets)
    base = os.path.basename(path)
    out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", path] +
                         ["%x" % o for o in offsets],
                         capture_output=True, text=True).stdout.splitlines()
    i = 0
    for off in offsets:
        assert out[i].startswith("0x"), out[i]
        i += 1
        frames = []  # (function, file:line), innermost first
        while i < len(out) and not out[i].startswith("0x"):
            frames.append((out[i], out[i + 1] if i + 1 < len(out) else "??"))
            i += 2
        if any(not loc.startswith("??") for _, loc in frames):
            funcs = [f for f, _ in frames if f != "??"] or ["??"]
        else:
            # No line information (a stripped library): the name is the
            # nearest exported symbol below the address, a guess.
            funcs = ["%s:~%s" % (base, frames[0][0] if frames else "??")]
        names[(path, off)] = funcs


def frames(st):
    """The sample's functions, innermost first, inlined frames expanded."""
    out = []
    for depth, addr in enumerate(st):
        a = addr if depth == 0 else addr - 1
        m = module_of(a)
        if m is None:
            out.append("[unknown]")
            continue
        out.extend(names[(m[3], a - m[0] + m[2])])
    return out


def library_frame(name):
    """A std:: or __gnu_cxx:: function (template arguments ignored)."""
    head, depth = [], 0
    for ch in name.split("(")[0]:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            head.append(ch)
    return re.search(r"(^|[\s*&])(std|__gnu_cxx)::", "".join(head)) is not None


def short(name, width=110):
    return name if len(name) <= width else name[:width - 3] + "..."


total = len(stacks)
print("%d samples (%d dropped)" % (total, dropped))
if total == 0:
    sys.exit(0)
expanded = [frames(st) for st in stacks]
self_count = collections.Counter(fr[0] for fr in expanded)
incl_count = collections.Counter()
for fr in expanded:
    incl_count.update(set(fr))

print("\n== self ==")
for name, n in self_count.most_common(40):
    print("%6.2f%% %6d  %s" % (100.0 * n / total, n, short(name)))
print("\n== inclusive ==")
for name, n in incl_count.most_common(40):
    print("%6.2f%% %6d  %s" % (100.0 * n / total, n, short(name)))
print("\n== callers ==")
for name, n in self_count.most_common(8):
    callers = collections.Counter()
    for fr in expanded:
        if fr[0] != name:
            continue
        # The first frame that is not the function itself (recursion and
        # inlined copies of it skipped) nor a library template.
        caller = next((f for f in fr[1:]
                       if f != name and not library_frame(f)), "[root]")
        callers[caller] += 1
    print("%6.2f%%  %s" % (100.0 * n / total, short(name)))
    for caller, c in callers.most_common(5):
        print("        %6.2f%%  <- %s" % (100.0 * c / total, short(caller, 100)))
EOF
