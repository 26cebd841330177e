// Steady-state sharded gossip cycles allocate nothing, under every timing
// model. A scenario on four workers is warmed up and given three settle
// cycles; the next 300 cycles — worklists, steps, barrier exchange,
// canonical-order delivery, latency stores and the cycle-boundary buffer
// upkeep — must not call operator new once. The cases cover the ways a
// warm cycle can still allocate: a deliver round's inbox outgrowing its
// capacity (CycleSync), and buckets or stores growing at the boundary,
// trimming and regrowing, or handing a short buffer to a sender
// (jittered timers, with and without latency).
#include <cstdint>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "common/alloc_probe.hpp"
#include "sim/timing.hpp"

namespace vs07::analysis {
namespace {

std::uint64_t steadyAllocations(std::uint32_t nodes,
                                sim::TimingConfig timing) {
  auto scenario = Scenario::builder()
                      .nodes(nodes)
                      .seed(7)
                      .engineThreads(4)
                      .timing(timing)
                      .build();
  scenario.runCycles(3);
  const AllocScope allocs;
  scenario.runCycles(300);
  return allocs.allocations();
}

TEST(ShardedAlloc, CycleSyncSteadyStateAllocatesNothing) {
  EXPECT_EQ(steadyAllocations(2'000, sim::TimingConfig::cycleSync()), 0u);
}

TEST(ShardedAlloc, JitteredSteadyStateAllocatesNothing) {
  EXPECT_EQ(steadyAllocations(1'000, sim::TimingConfig::jittered()), 0u);
}

TEST(ShardedAlloc, FixedLatencySteadyStateAllocatesNothing) {
  EXPECT_EQ(steadyAllocations(1'000, sim::TimingConfig::jitteredLatency(
                                         sim::LatencyModel::fixed(2))),
            0u);
}

TEST(ShardedAlloc, UniformLatencySteadyStateAllocatesNothing) {
  EXPECT_EQ(steadyAllocations(1'000, sim::TimingConfig::jitteredLatency(
                                         sim::LatencyModel::uniform(1, 4))),
            0u);
}

}  // namespace
}  // namespace vs07::analysis
