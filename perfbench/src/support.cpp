#include "support.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::print(const std::string& workload) const {
  std::printf("--- %s: metrics ---\n", workload.c_str());
  for (const auto& m : metrics_)
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("--- %s: checks ---\n", workload.c_str());
  for (const auto& c : checks_)
    std::printf("  [%s] %s: %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  for (const auto& line : notes_) std::printf("  note: %s\n", line.c_str());

  std::string json = "{\"workload\":" + quoted(workload) +
                     ",\"correct\":" + (correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) +
                     ",\"metrics\":{";
  for (const bool derived : {false, true}) {
    if (derived) json += "},\"derived\":{";
    bool first = true;
    for (const auto& m : metrics_) {
      if (m.derived != derived) continue;
      if (!first) json += ',';
      json += quoted(m.name) + ":{\"value\":" + number(m.value) +
              ",\"unit\":" + quoted(m.unit) + "}";
      first = false;
    }
  }
  json += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const auto& c = checks_[i];
    if (i > 0) json += ',';
    json += "{\"name\":" + quoted(c.name) +
            ",\"ok\":" + (c.ok ? "true" : "false") +
            ",\"detail\":" + quoted(c.detail) + "}";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
