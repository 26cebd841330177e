// Scenario-level coverage of the network-condition layer: the builder
// hooks wire a NetworkModel under all simulated traffic, partitions
// block and then heal on the live dissemination path, the adversarial
// presets construct and behave, clean links keep the steady-state
// zero-allocation contract, and cell-parallel sweeps over network
// conditions are bit-identical for any thread count.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/scenario.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"

namespace vs07 {
namespace {

using analysis::Scenario;
using cast::Strategy;

TEST(ScenarioNetwork, NoConditionsMeansNoModel) {
  auto scenario =
      Scenario::builder().nodes(50).warmupCycles(5).seed(3).build();
  EXPECT_EQ(scenario.networkModel(), nullptr);
  EXPECT_EQ(scenario.latencyTransport(), nullptr);
}

TEST(ScenarioNetwork, LinkLossRoutesAllTrafficThroughTheModel) {
  auto scenario = Scenario::builder()
                      .nodes(100)
                      .warmupCycles(10)
                      .seed(3)
                      .linkLoss(0.2)
                      .build();
  ASSERT_NE(scenario.networkModel(), nullptr);
  ASSERT_NE(scenario.latencyTransport(), nullptr);
  EXPECT_EQ(scenario.latencyTransport()->networkModel(),
            scenario.networkModel());
  // Warm-up gossip already crossed the lossy links.
  EXPECT_GT(scenario.networkModel()->droppedByLoss(), 0u);
  EXPECT_EQ(scenario.networkModel()->droppedByPartition(), 0u);
}

TEST(ScenarioNetwork, IdenticalLossyBuildsAreBitIdentical) {
  auto build = [] {
    return Scenario::builder()
        .nodes(100)
        .warmupCycles(12)
        .seed(17)
        .linkLoss(0.1)
        .duplication(0.05)
        .build();
  };
  auto a = build();
  auto b = build();
  EXPECT_EQ(a.networkModel()->droppedByLoss(),
            b.networkModel()->droppedByLoss());
  EXPECT_EQ(a.networkModel()->duplicated(), b.networkModel()->duplicated());
  auto& liveA = a.liveSession({.strategy = Strategy::kRingCast,
                               .fanout = 3,
                               .seed = 5,
                               .settleCycles = 2});
  auto& liveB = b.liveSession({.strategy = Strategy::kRingCast,
                               .fanout = 3,
                               .seed = 5,
                               .settleCycles = 2});
  for (int run = 0; run < 3; ++run) {
    const auto ra = liveA.publishFromRandom();
    const auto rb = liveB.publishFromRandom();
    EXPECT_EQ(ra.origin, rb.origin);
    EXPECT_EQ(ra.notified, rb.notified);
    EXPECT_EQ(ra.messagesTotal, rb.messagesTotal);
    EXPECT_EQ(ra.missed, rb.missed);
  }
}

TEST(ScenarioNetwork, DuplicationDeliversRedundantCopies) {
  auto scenario = Scenario::builder()
                      .nodes(80)
                      .warmupCycles(10)
                      .seed(4)
                      .duplication(1.0)
                      .build();
  auto& live = scenario.liveSession(
      {.strategy = Strategy::kRingCast, .fanout = 3, .settleCycles = 2});
  const auto report = live.publishFromRandom();
  EXPECT_EQ(report.notified, report.aliveTotal);  // copies never hurt
  EXPECT_GT(report.messagesRedundant, 0u);
  EXPECT_GT(scenario.networkModel()->duplicated(), 0u);
}

TEST(ScenarioNetwork, EgressCapTurnsOverloadIntoQueueingDelay) {
  // Flooding through a 4-message/tick pipe: every forward bursts ~view
  // many sends in one tick, so senders back up — yet nothing is lost,
  // the wave just stretches out in simulated time.
  auto capped = Scenario::builder()
                    .nodes(80)
                    .warmupCycles(10)
                    .seed(4)
                    .timing(sim::TimingConfig::jitteredLatency(
                        sim::LatencyModel::fixed(1)))
                    .egressCap(4)
                    .build();
  ASSERT_NE(capped.networkModel(), nullptr);
  auto& live = capped.liveSession(
      {.strategy = Strategy::kFlood, .fanout = 3, .settleCycles = 10});
  const auto report = live.publishFromRandom();
  EXPECT_GT(capped.networkModel()->queuedSends(), 0u);
  EXPECT_GT(capped.networkModel()->maxQueueDelay(), 0u);
  // Traffic is delayed, never silently dropped.
  EXPECT_EQ(capped.networkModel()->droppedByLoss(), 0u);
  EXPECT_EQ(report.notified, report.aliveTotal);
  EXPECT_GT(live.live().stats(live.lastDataId()).spreadTicks(), 0u);
}

TEST(ScenarioNetwork, PartitionBlocksWhileSplitAndHealsAfter) {
  constexpr std::uint32_t kWarmup = 30;
  constexpr std::uint32_t kSplit = 10;
  auto scenario = Scenario::builder()
                      .nodes(200)
                      .warmupCycles(kWarmup)
                      .seed(11)
                      .partitionRingSplit(2, kWarmup, kWarmup + kSplit)
                      .build();
  const auto* model = scenario.networkModel();
  ASSERT_NE(model, nullptr);
  ASSERT_NE(model->partitions(), nullptr);
  const auto& schedule = *model->partitions();

  auto& live = scenario.liveSession({.strategy = Strategy::kPushPull,
                                     .fanout = 3,
                                     .seed = 9,
                                     .settleCycles = 0});
  // Step into the blackout, then publish from side 0: the origin's own
  // sends now resolve inside the window.
  scenario.runCycles(1);
  const NodeId origin = schedule.members(0).front();
  ASSERT_TRUE(scenario.network().isAlive(origin));
  live.publish(origin);
  const std::uint64_t dataId = live.lastDataId();

  auto coverage = [&](std::uint32_t group) {
    std::uint64_t total = 0;
    std::uint64_t have = 0;
    for (const NodeId id : scenario.network().aliveIds()) {
      if (schedule.groupOf(id) != group) continue;
      ++total;
      if (live.live().hasDelivered(dataId, id)) ++have;
    }
    return 100.0 * static_cast<double>(have) / static_cast<double>(total);
  };

  // Let push + pull do their work inside the remaining split cycles.
  scenario.runCycles(kSplit - 1);
  EXPECT_GT(model->droppedByPartition(), 0u);
  EXPECT_EQ(coverage(0), 100.0) << "own side must complete during split";
  EXPECT_EQ(coverage(1), 0.0) << "cross-side leak during blackout";

  // Healed: anti-entropy pulls cross the former boundary, the first
  // successful pull re-pushes, and the dark side fills in bounded time.
  scenario.runCycles(40);
  EXPECT_EQ(coverage(0), 100.0);
  EXPECT_EQ(coverage(1), 100.0) << "pull recovery must backfill after heal";
}

TEST(ScenarioNetwork, PresetsConstructAndBehave) {
  {
    auto partitioned = Scenario::paperPartitioned(/*splitCycles=*/5,
                                                  /*nodes=*/150, /*seed=*/7);
    ASSERT_NE(partitioned.networkModel(), nullptr);
    ASSERT_NE(partitioned.networkModel()->partitions(), nullptr);
    EXPECT_EQ(partitioned.networkModel()->partitions()->groupCount(), 2u);
    partitioned.runCycles(6);  // through the split and out
    EXPECT_GT(partitioned.networkModel()->droppedByPartition(), 0u);
  }
  {
    auto wan = Scenario::lossyWan(/*lossRate=*/0.05, /*nodes=*/120,
                                  /*seed=*/7);
    ASSERT_NE(wan.networkModel(), nullptr);
    EXPECT_GT(wan.networkModel()->droppedByLoss(), 0u);
    EXPECT_GT(wan.networkModel()->reordered(), 0u);
    auto session = wan.snapshotSession(
        {.strategy = Strategy::kRingCast, .fanout = 3});
    EXPECT_GT(session.publishFromRandom().notified, 0u);
  }
  {
    auto jam = Scenario::congested(/*egressPerTick=*/1, /*nodes=*/120,
                                   /*seed=*/7);
    ASSERT_NE(jam.networkModel(), nullptr);
    EXPECT_GT(jam.networkModel()->queuedSends(), 0u);
    EXPECT_EQ(jam.networkModel()->droppedByLoss(), 0u);
  }
}

TEST(ScenarioNetwork, CleanLinksSteadyStateIsAllocationFree) {
  // Loss, duplication and reordering armed at 1e-12 (a draw on every
  // send that never fires), a generous egress cap, and a partition
  // schedule — every per-send query runs, yet loss-free links must not
  // cost a single steady-state allocation, exactly the contract the
  // model-less hot path keeps. (Cluster latency is armed in other
  // tests: multi-tick in-flight buffers warm the message pool
  // gradually, which is latency-path warm-up, not model overhead.)
  constexpr double kNever = 1e-12;
  auto scenario = Scenario::builder()
                      .nodes(300)
                      .warmupCycles(30)
                      .seed(21)
                      .linkLoss(kNever)
                      .duplication(kNever)
                      .reordering(kNever, 3)
                      .egressCap(64)
                      .partitionRingSplit(2, 35, 60)
                      .build();
  auto* model = scenario.networkModel();
  ASSERT_NE(model, nullptr);

  // Clean phase: loss, duplication and reorder draws, partition lookups
  // (inactive window), and egress accounting run on every send — and
  // nothing may allocate.
  scenario.runCycles(2);
  {
    AllocScope probe;
    scenario.runCycles(3);
    EXPECT_EQ(probe.allocations(), 0u)
        << "clean-link sends must not allocate in steady state";
  }
  EXPECT_EQ(model->droppedByLoss(), 0u);
  EXPECT_EQ(model->duplicated(), 0u);
  EXPECT_EQ(model->reordered(), 0u);
  // Split phase: drops happen; gossip's *failure handling* (VICINITY
  // ban-list growth) may allocate, which is the failure path, not the
  // clean-link contract — so only the drop accounting is asserted here.
  scenario.runCycles(10);
  EXPECT_GT(model->droppedByPartition(), 0u);
}

// The degraded_links / partition_heal cell pattern in miniature: one
// scenario per (strategy, loss) cell, seeded from the cell identity, run
// across a pool — results must be bit-identical for any thread count.
std::vector<double> sweepCells(std::uint32_t threads) {
  const std::vector<double> losses{0.0, 0.02};
  const std::vector<Strategy> strategies{Strategy::kRandCast,
                                         Strategy::kRingCast,
                                         Strategy::kPushPull};
  std::vector<double> misses(losses.size() * strategies.size(), 0.0);
  TaskPool pool(threads);
  pool.parallelFor(misses.size(), [&](std::size_t i) {
    const Strategy strategy = strategies[i / losses.size()];
    const double loss = losses[i % losses.size()];
    auto scenario = Scenario::builder()
                        .nodes(120)
                        .warmupCycles(15)
                        .seed(deriveStreamSeed(777, i, 0))
                        .linkLoss(loss)
                        .build();
    auto& live = scenario.liveSession(
        {.strategy = strategy,
         .fanout = 3,
         .seed = deriveStreamSeed(777, i, 1),
         .settleCycles = 3});
    double sum = 0.0;
    for (int run = 0; run < 3; ++run)
      sum += live.publishFromRandom().missRatioPercent();
    misses[i] = sum;
  });
  return misses;
}

TEST(ScenarioNetwork, CellSweepBitIdenticalAcrossThreadCounts) {
  const auto one = sweepCells(1);
  const auto two = sweepCells(2);
  const auto eight = sweepCells(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

}  // namespace
}  // namespace vs07
