#include "common/resource.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace vs07 {

namespace {

/// Reads one "Vm...: N kB" line from /proc/self/status; 0 on any failure.
/// Process-scoped by construction: the kernel accounts these per process,
/// not per measurement window.
std::uint64_t procStatusKb(const char* key) noexcept {
#if defined(__linux__)
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  const std::size_t keyLen = std::strlen(key);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, keyLen) != 0 || line[keyLen] != ':') continue;
    unsigned long long value = 0;
    if (std::sscanf(line + keyLen + 1, "%llu", &value) == 1) kb = value;
    break;
  }
  std::fclose(file);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::uint64_t peakRssBytes() noexcept {
  if (const std::uint64_t kb = procStatusKb("VmHWM"); kb != 0)
    return kb * 1024u;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

}  // namespace vs07
