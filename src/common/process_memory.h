// Process memory marks from /proc/self (Linux): the resident set now, its
// peak, and a reset of that peak, so a bench can measure what one stage of
// a run adds on top of what was resident before it. Off Linux, or when
// /proc is unreadable, the reads return 0 and the reset does nothing.
#ifndef TCELLS_COMMON_PROCESS_MEMORY_H_
#define TCELLS_COMMON_PROCESS_MEMORY_H_

#include <cstdint>

namespace tcells {

/// Resident set size now (VmRSS), in bytes.
uint64_t CurrentRssBytes();
/// Peak resident set size (VmHWM) since the process started or since the
/// last ResetPeakRss, in bytes.
uint64_t PeakRssBytes();
/// Returns freed heap pages to the kernel, then resets the peak to the
/// current resident set ("5" to /proc/self/clear_refs), so a later
/// PeakRssBytes covers only what follows.
void ResetPeakRss();

}  // namespace tcells

#endif  // TCELLS_COMMON_PROCESS_MEMORY_H_
