#include "common/process_memory.h"

#include <malloc.h>

#include <cstdio>
#include <cstring>

namespace tcells {
namespace {

/// A "Field:   N kB" line of /proc/self/status, in bytes.
uint64_t StatusBytes(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const size_t len = std::strlen(field);
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      std::sscanf(line + len + 1, "%llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

uint64_t CurrentRssBytes() { return StatusBytes("VmRSS"); }

uint64_t PeakRssBytes() { return StatusBytes("VmHWM"); }

void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace tcells
