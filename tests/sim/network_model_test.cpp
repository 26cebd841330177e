// sim/network_model unit suite: each link condition resolved through
// NetworkModel::resolve, the PartitionSchedule (windows, grouping,
// healing, the §5.1 arc compatibility with sim/failures), cluster
// latency, and the FIFO egress bandwidth cap.
#include "sim/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/expect.hpp"
#include "sim/failures.hpp"
#include "sim/network.hpp"

namespace vs07::sim {
namespace {

/// A model over a small population with `conditions` and no partition.
struct Harness {
  explicit Harness(const NetworkConditions& conditions, std::uint64_t seed)
      : network(8, 3), model(conditions, network, 1, seed) {}
  Network network;
  NetworkModel model;
};

TEST(NetworkModel, LossDropsAtConfiguredRate) {
  NetworkConditions conditions;
  conditions.lossRate = 0.25;
  Harness h(conditions, 7);
  int dropped = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i)
    if (h.model.resolve(1, 2, 0).copies == 0) ++dropped;
  const double rate = static_cast<double>(dropped) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
  EXPECT_EQ(h.model.droppedByLoss(), static_cast<std::uint64_t>(dropped));
}

TEST(NetworkModel, CleanLinksNeverDropOrDelay) {
  Harness h(NetworkConditions{}, 7);
  for (int i = 0; i < 1000; ++i) {
    const LinkFate fate = h.model.resolve(1, 2, 0);
    EXPECT_EQ(fate.copies, 1u);
    EXPECT_EQ(fate.extraDelayTicks, 0u);
  }
  EXPECT_EQ(h.model.droppedByLoss(), 0u);
}

TEST(NetworkModel, BurstLossesClusterInBursts) {
  // Sticky chain with a lossless Good state and a lossy Bad state: the
  // same overall loss events must arrive in runs, which independent
  // Bernoulli loss at the matched average would not produce.
  NetworkConditions conditions;
  conditions.burstLoss = true;
  conditions.burst = {.pGoodToBad = 0.02,
                      .pBadToGood = 0.2,
                      .lossGood = 0.0,
                      .lossBad = 1.0};
  Harness h(conditions, 11);
  constexpr int kTrials = 50'000;
  int losses = 0;
  int bursts = 0;  // maximal runs of consecutive losses
  bool inBurst = false;
  for (int i = 0; i < kTrials; ++i) {
    const bool lost = h.model.resolve(3, 4, 0).copies == 0;
    losses += lost ? 1 : 0;
    if (lost && !inBurst) ++bursts;
    inBurst = lost;
  }
  ASSERT_GT(losses, 0);
  const double meanBurstLength = static_cast<double>(losses) / bursts;
  // Geometric dwell time in Bad: mean run length 1/pBadToGood = 5.
  EXPECT_GT(meanBurstLength, 3.0);
}

TEST(NetworkModel, BurstChainsAreIndependentPerDirection) {
  // Every crossing flips its link's chain and only the Bad state loses,
  // so a link loses its first crossing and delivers its second. The
  // reverse direction is a distinct chain (asymmetric loss): its first
  // crossing is lost too, whatever the forward link did before it.
  NetworkConditions conditions;
  conditions.burstLoss = true;
  conditions.burst = {.pGoodToBad = 1.0,
                      .pBadToGood = 1.0,
                      .lossGood = 0.0,
                      .lossBad = 1.0};
  Harness h(conditions, 3);
  EXPECT_EQ(h.model.resolve(1, 2, 0).copies, 0u);
  EXPECT_EQ(h.model.resolve(2, 1, 0).copies, 0u);
  EXPECT_EQ(h.model.resolve(1, 2, 0).copies, 1u);
  EXPECT_EQ(h.model.resolve(2, 1, 0).copies, 1u);
  EXPECT_EQ(h.model.droppedByLoss(), 2u);
}

TEST(NetworkModel, DuplicationAddsCopies) {
  NetworkConditions conditions;
  conditions.duplicateRate = 1.0;
  Harness h(conditions, 5);
  EXPECT_EQ(h.model.resolve(1, 2, 0).copies, 2u);
  EXPECT_EQ(h.model.duplicated(), 1u);
  // Lost messages are not resurrected by duplication.
  conditions.lossRate = 1.0;
  Harness lossy(conditions, 5);
  EXPECT_EQ(lossy.model.resolve(1, 2, 0).copies, 0u);
  EXPECT_EQ(lossy.model.duplicated(), 0u);
}

TEST(NetworkModel, ReorderingAddsBoundedDelay) {
  NetworkConditions conditions;
  conditions.reorderRate = 1.0;
  conditions.reorderMaxTicks = 4;
  Harness h(conditions, 5);
  for (int i = 0; i < 200; ++i) {
    const LinkFate fate = h.model.resolve(1, 2, 0);
    EXPECT_GE(fate.extraDelayTicks, 1u);
    EXPECT_LE(fate.extraDelayTicks, 4u);
  }
  EXPECT_EQ(h.model.reordered(), 200u);
}

TEST(NetworkModel, RejectsOutOfRangeConditions) {
  Network network(4, 2);
  const auto build = [&network](const NetworkConditions& conditions) {
    NetworkModel model(conditions, network, 1, 1);
  };
  NetworkConditions conditions;
  conditions.lossRate = 1.5;
  EXPECT_THROW(build(conditions), ContractViolation);
  conditions = {};
  conditions.duplicateRate = -0.1;
  EXPECT_THROW(build(conditions), ContractViolation);
  conditions = {};
  conditions.reorderRate = 0.5;
  conditions.reorderMaxTicks = 0;
  EXPECT_THROW(build(conditions), ContractViolation);
}

TEST(PartitionSchedule, WindowsActivateAndHeal) {
  Network network(10, 1);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 2);
  schedule.addWindow(5, 10);
  schedule.addWindow(20, 25);
  EXPECT_FALSE(schedule.active(4));
  EXPECT_TRUE(schedule.active(5));
  EXPECT_TRUE(schedule.active(9));
  EXPECT_FALSE(schedule.active(10));  // healed
  EXPECT_TRUE(schedule.active(24));
  EXPECT_FALSE(schedule.active(25));

  const auto side0 = schedule.members(0);
  const auto side1 = schedule.members(1);
  ASSERT_FALSE(side0.empty());
  ASSERT_FALSE(side1.empty());
  const NodeId a = side0.front();
  const NodeId b = side1.front();
  EXPECT_TRUE(schedule.blocks(a, b, 7));
  EXPECT_TRUE(schedule.blocks(b, a, 7));
  EXPECT_FALSE(schedule.blocks(a, side0.back(), 7));  // same side flows
  EXPECT_FALSE(schedule.blocks(a, b, 12));            // healed gap
}

TEST(PartitionSchedule, SplitRingGroupsAreContiguousArcs) {
  Network network(101, 9);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 4);
  const auto ring = ringOrder(network);
  // Walking the ring must cross each group boundary exactly once: group
  // ids along the ring are non-decreasing.
  std::uint32_t previous = 0;
  std::size_t jumps = 0;
  for (const NodeId node : ring) {
    const std::uint32_t g = schedule.groupOf(node);
    if (g != previous) {
      EXPECT_EQ(g, previous + 1);
      ++jumps;
      previous = g;
    }
  }
  EXPECT_EQ(jumps, 3u);
  // Near-equal sizes.
  for (std::uint32_t g = 0; g < 4; ++g) {
    const auto size = schedule.members(g).size();
    EXPECT_GE(size, ring.size() / 4);
    EXPECT_LE(size, ring.size() / 4 + 1);
  }
}

TEST(PartitionSchedule, JoinersHashIntoGroupsDeterministically) {
  Network network(10, 1);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 2);
  const NodeId joiner = network.totalCreated() + 5;
  const std::uint32_t g = schedule.groupOf(joiner);
  EXPECT_LT(g, 2u);
  EXPECT_EQ(schedule.groupOf(joiner), g);  // stable
}

TEST(PartitionSchedule, SplitRingArcMatchesKillContiguousArc) {
  // The §5.1 fold-in: the arc the partition isolates is byte-for-byte
  // the arc sim/failures kills, because both consume the same single
  // draw over the same ring order.
  Network networkA(211, 77);
  Network networkB(211, 77);
  Rng rngA(123);
  Rng rngB(123);
  const std::vector<NodeId> killed = killContiguousArc(networkA, 0.3, rngA);
  PartitionSchedule schedule =
      PartitionSchedule::splitRingArc(networkB, 0.3, rngB);
  const std::vector<NodeId> isolated = schedule.members(1);
  EXPECT_EQ(std::set<NodeId>(killed.begin(), killed.end()),
            std::set<NodeId>(isolated.begin(), isolated.end()));
  EXPECT_EQ(killed.size(), std::llround(0.3 * 211));
}

TEST(ClusterLatency, IntraVersusInterDraws) {
  NetworkConditions conditions;
  conditions.clusterLatency = {2, LatencyModel::fixed(1),
                               LatencyModel::fixed(5)};
  Network network(16, 2);
  NetworkModel model(conditions, network, 1, 99);
  Rng rng(1);
  // Find one same-cluster and one cross-cluster pair.
  NodeId same = kNoNode;
  NodeId cross = kNoNode;
  for (NodeId n = 1; n < 16; ++n) {
    if (model.clusterOf(n) == model.clusterOf(0)) same = n;
    if (model.clusterOf(n) != model.clusterOf(0)) cross = n;
  }
  ASSERT_NE(same, kNoNode);
  ASSERT_NE(cross, kNoNode);
  const LatencyModel fallback = LatencyModel::fixed(9);
  EXPECT_EQ(model.latencyTicks(0, same, fallback, rng), 1u);
  EXPECT_EQ(model.latencyTicks(0, cross, fallback, rng), 5u);
}

TEST(ClusterLatency, DisabledFallsBackToGlobalModel) {
  Network network(4, 2);
  NetworkModel model(NetworkConditions{}, network, 1, 99);
  Rng rng(1);
  EXPECT_EQ(model.latencyTicks(0, 1, LatencyModel::fixed(9), rng), 9u);
  EXPECT_EQ(model.clusterOf(3), 0u);
}

TEST(BandwidthCap, FifoQueueingDelay) {
  NetworkConditions conditions;
  conditions.bandwidth.messagesPerTick = 2;
  Network network(4, 2);
  NetworkModel model(conditions, network, 1, 99);
  // Five sends in one tick through a 2/tick pipe: the first two depart
  // immediately, then FIFO queueing backs up in 1-tick steps.
  EXPECT_EQ(model.egressDelay(0, 10), 0u);
  EXPECT_EQ(model.egressDelay(0, 10), 0u);
  EXPECT_EQ(model.egressDelay(0, 10), 1u);
  EXPECT_EQ(model.egressDelay(0, 10), 1u);
  EXPECT_EQ(model.egressDelay(0, 10), 2u);
  // Another sender has its own queue.
  EXPECT_EQ(model.egressDelay(1, 10), 0u);
  // Idle time drains the backlog.
  EXPECT_EQ(model.egressDelay(0, 13), 0u);
  EXPECT_EQ(model.queuedSends(), 3u);
  EXPECT_EQ(model.queuedDelayTotal(), 4u);
  EXPECT_EQ(model.maxQueueDelay(), 2u);
}

TEST(BandwidthCap, UnlimitedByDefault) {
  Network network(4, 2);
  NetworkModel model(NetworkConditions{}, network, 1, 99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.egressDelay(0, 1), 0u);
  EXPECT_EQ(model.queuedSends(), 0u);
}

TEST(NetworkModel, ResolveAppliesPartitionBeforeLoss) {
  using Kind = NetworkConditions::PartitionPlan::Kind;
  NetworkConditions conditions;
  conditions.lossRate = 1.0;  // everything the partition spares is lost
  conditions.partition.kind = Kind::kRingSplit;
  conditions.partition.groups = 2;
  conditions.partition.windowsCycles = {{0, 100}};
  Network network(10, 3);
  NetworkModel model(conditions, network, 1, 42);
  ASSERT_NE(model.partitions(), nullptr);
  const PartitionSchedule& schedule = *model.partitions();
  const NodeId a = schedule.members(0).front();
  const NodeId b = schedule.members(1).front();

  EXPECT_EQ(model.resolve(a, b, 5).copies, 0u);
  EXPECT_EQ(model.droppedByPartition(), 1u);
  EXPECT_EQ(model.droppedByLoss(), 0u);
  const NodeId a2 = schedule.members(0).back();
  EXPECT_EQ(model.resolve(a, a2, 5).copies, 0u);
  EXPECT_EQ(model.droppedByLoss(), 1u);
}

TEST(NetworkModel, ConditionsCompose) {
  NetworkConditions conditions;
  conditions.duplicateRate = 1.0;
  conditions.reorderRate = 1.0;
  conditions.reorderMaxTicks = 2;
  Network network(8, 3);
  NetworkModel model(conditions, network, 1, 42);
  const LinkFate fate = model.resolve(0, 1, 0);
  EXPECT_EQ(fate.copies, 2u);
  EXPECT_GE(fate.extraDelayTicks, 1u);
  EXPECT_LE(fate.extraDelayTicks, 2u);
  EXPECT_EQ(model.duplicated(), 1u);
  EXPECT_EQ(model.reordered(), 1u);
}

TEST(NetworkModel, DeterministicAcrossIdenticalRuns) {
  NetworkConditions conditions;
  conditions.lossRate = 0.3;
  conditions.duplicateRate = 0.1;
  Network networkA(32, 5);
  Network networkB(32, 5);
  NetworkModel a(conditions, networkA, 1, 1234);
  NetworkModel b(conditions, networkB, 1, 1234);
  for (std::uint64_t t = 0; t < 500; ++t) {
    const LinkFate fa = a.resolve(t % 32, (t * 7) % 32, t);
    const LinkFate fb = b.resolve(t % 32, (t * 7) % 32, t);
    EXPECT_EQ(fa.copies, fb.copies);
    EXPECT_EQ(fa.extraDelayTicks, fb.extraDelayTicks);
  }
  EXPECT_EQ(a.droppedByLoss(), b.droppedByLoss());
  EXPECT_EQ(a.duplicated(), b.duplicated());
}

}  // namespace
}  // namespace vs07::sim
