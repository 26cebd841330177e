// Process resource probes for bench metadata and runtime node stats.
#pragma once

#include <cstdint>

namespace vs07 {

/// Peak resident set size of the process in bytes (high-water mark since
/// process start), or 0 when the platform offers no probe. On Linux this
/// reads /proc/self/status VmHWM — a true process-scoped high-water mark,
/// unaffected by when the caller started measuring — falling back to
/// getrusage(ru_maxrss) elsewhere. Every bench records this next to
/// wall-clock in its JSON metadata; vs07_node reports it over its
/// control socket.
std::uint64_t peakRssBytes() noexcept;

}  // namespace vs07
