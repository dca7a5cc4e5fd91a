// Process memory: handing freed heap pages back to the OS, and reading
// how much of the process is resident.

#ifndef PEGASUS_UTIL_MEMORY_H_
#define PEGASUS_UTIL_MEMORY_H_

#include <cstdint>
#include <optional>

namespace pegasus {

// Returns to the OS the pages malloc holds free in every arena. glibc
// gives each thread that allocates its own arena and keeps an arena's
// free pages resident, so memory one thread frees stays charged to the
// process until that arena reuses it. Call this where large, long-lived
// state has just died: the end of a shard build, an epoch turnover.
// malloc_trim(0) under glibc; a no-op elsewhere.
void ReleaseFreedMemory();

struct ResidentMemory {
  uint64_t resident_kb = 0;       // VmRSS: resident set now
  uint64_t peak_resident_kb = 0;  // VmHWM: high-water mark of VmRSS
};

// VmRSS and VmHWM from /proc/self/status; nullopt where that file, or
// either field, is absent (non-Linux hosts).
std::optional<ResidentMemory> ReadResidentMemory();

}  // namespace pegasus

#endif  // PEGASUS_UTIL_MEMORY_H_
