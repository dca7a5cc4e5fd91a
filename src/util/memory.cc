#include "src/util/memory.h"

#include <cstdio>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace pegasus {

void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::optional<ResidentMemory> ReadResidentMemory() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nullopt;
  ResidentMemory out;
  bool have_rss = false;
  bool have_hwm = false;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      out.resident_kb = kb;
      have_rss = true;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      out.peak_resident_kb = kb;
      have_hwm = true;
    }
  }
  std::fclose(f);
  if (!have_rss || !have_hwm) return std::nullopt;
  return out;
}

}  // namespace pegasus
