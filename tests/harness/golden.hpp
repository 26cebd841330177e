// Golden-file checks for the bit-identity suites.
//
// A suite renders its measurement to bytes (usually Json::dump(2)) and
// hands them to checkAgainstGolden, which compares them byte-for-byte
// with tests/data/<name>. Any change that disturbs rng consumption,
// event ordering or the measured semantics shows up as a byte diff.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./<suite binary>
//
// Header-only on purpose: the build globs every tests/**/*.cpp into its
// own gtest binary, so shared fixtures must live in headers.
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace vs07::harness {

inline std::string goldenPath(const std::string& name) {
  return std::string(VS07_TEST_DATA_DIR) + "/" + name;
}

inline std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with VS07_REGEN_GOLDEN=1)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline bool regenRequested() {
  const char* regen = std::getenv("VS07_REGEN_GOLDEN");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

/// Compares `bytes` with the golden file `name`; under VS07_REGEN_GOLDEN
/// rewrites the file instead and skips the test.
inline void checkAgainstGolden(const std::string& name,
                               const std::string& bytes) {
  const auto path = goldenPath(name);
  if (regenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string golden = readFile(path);
  // Byte equality is the contract; EXPECT_EQ on the strings prints a
  // usable diff when it breaks.
  EXPECT_EQ(golden, bytes) << "bytes diverged from " << path;
}

}  // namespace vs07::harness
