// A node refuses at construction a configuration whose largest frame
// could not travel as one datagram (runtime/wire.hpp), rather than fail
// on its first oversized send.
#include "runtime/node_process.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "common/expect.hpp"

namespace vs07::runtime {
namespace {

TEST(NodeProcess, RefusesAShuffleThatOutgrowsADatagram) {
  NodeProcess::Config config{
      .nodes = 4, .isSeed = true, .viewLength = 80, .shuffleLength = 75};
  std::unique_ptr<NodeProcess> largest;
  try {
    largest = std::make_unique<NodeProcess>(config);  // 1,394-byte shuffles
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback sockets unavailable here";
  }
  EXPECT_TRUE(largest->joined());
  config.shuffleLength = 76;  // 1,412 bytes with a full annex
  EXPECT_THROW(NodeProcess{config}, ContractViolation);
}

}  // namespace
}  // namespace vs07::runtime
