#include "cast/disseminator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "cast/snapshot.hpp"
#include "common/expect.hpp"
#include "overlay/graph.hpp"

namespace vs07::cast {
namespace {

DisseminationParams params(std::uint32_t fanout, std::uint64_t seed = 1,
                           bool recordLoad = false) {
  return {fanout, seed, recordLoad};
}

TEST(Disseminator, FloodOverRingReachesEveryoneInHalfRingHops) {
  const auto graph = overlay::makeRing(10);
  const auto snapshot = snapshotGraph(graph);
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.notified, 10u);
  EXPECT_EQ(report.missRatioPercent(), 0.0);
  // Two fronts meet after N/2 hops on an even ring.
  EXPECT_EQ(report.lastHop, 5u);
  // Each node forwards once except the origin (twice); the two fronts
  // cross, producing exactly two redundant deliveries on an even ring.
  EXPECT_EQ(report.messagesVirgin, 9u);
  EXPECT_EQ(report.messagesRedundant, 2u);
  EXPECT_EQ(report.messagesToDead, 0u);
}

TEST(Disseminator, FloodOverStarTakesTwoHops) {
  const auto graph = overlay::makeStar(20, /*hub=*/0);
  const auto snapshot = snapshotGraph(graph);
  const FloodSelector flood;
  // From a leaf: hop 1 notifies the hub, hop 2 the remaining 18 leaves.
  const auto report = disseminate(snapshot, flood, 5, params(1));
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.lastHop, 2u);
  ASSERT_EQ(report.newlyNotifiedPerHop.size(), 3u);
  EXPECT_EQ(report.newlyNotifiedPerHop[0], 1u);
  EXPECT_EQ(report.newlyNotifiedPerHop[1], 1u);
  EXPECT_EQ(report.newlyNotifiedPerHop[2], 18u);
}

TEST(Disseminator, FloodOverCliqueIsOneHopButWasteful) {
  const auto graph = overlay::makeClique(8);
  const auto snapshot = snapshotGraph(graph);
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.lastHop, 1u);
  EXPECT_EQ(report.messagesVirgin, 7u);
  // Every notified node floods everyone else: 7 + 7*6 total sends.
  EXPECT_EQ(report.messagesTotal, 7u + 42u);
}

TEST(Disseminator, TreeFloodIsMessageOptimal) {
  Rng rng(7);
  const auto graph = overlay::makeRandomTree(50, rng);
  const auto snapshot = snapshotGraph(graph);
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  EXPECT_TRUE(report.complete());
  // §3: a tree disseminates with exactly N-1 point-to-point messages.
  EXPECT_EQ(report.messagesTotal, 49u);
  EXPECT_EQ(report.messagesRedundant, 0u);
}

TEST(Disseminator, DeadNodesAbsorbMessages) {
  auto alive = std::vector<std::uint8_t>(10, 1);
  alive[5] = 0;  // break the ring at node 5
  const auto graph = overlay::makeRing(10);
  const auto snapshot = snapshotGraph(graph, std::move(alive));
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  // One dead node on a ring does not partition it (Harary connectivity 2):
  // the other direction still covers everyone.
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.aliveTotal, 9u);
  EXPECT_GE(report.messagesToDead, 1u);
}

TEST(Disseminator, TwoDeadNodesPartitionARing) {
  auto alive = std::vector<std::uint8_t>(10, 1);
  alive[3] = 0;
  alive[7] = 0;  // two non-adjacent failures split the ring (§5.1)
  const auto graph = overlay::makeRing(10);
  const auto snapshot = snapshotGraph(graph, std::move(alive));
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  EXPECT_FALSE(report.complete());
  // Nodes 4,5,6 are cut off from origin 0.
  EXPECT_EQ(report.missed.size(), 3u);
  EXPECT_GT(report.missRatioPercent(), 0.0);
}

TEST(Disseminator, OriginMustBeAlive) {
  auto alive = std::vector<std::uint8_t>(5, 1);
  alive[2] = 0;
  const auto snapshot = snapshotGraph(overlay::makeRing(5), std::move(alive));
  const FloodSelector flood;
  EXPECT_THROW(disseminate(snapshot, flood, 2, params(1)),
               ContractViolation);
}

TEST(Disseminator, ZeroFanoutRejected) {
  const auto snapshot = snapshotGraph(overlay::makeRing(5));
  const FloodSelector flood;
  EXPECT_THROW(disseminate(snapshot, flood, 0, params(0)),
               ContractViolation);
}

TEST(Disseminator, ReportAccountingInvariants) {
  const auto snapshot = snapshotGraph(overlay::makeHarary(4, 30));
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 3, params(1));
  EXPECT_EQ(report.messagesTotal, report.messagesVirgin +
                                      report.messagesRedundant +
                                      report.messagesToDead);
  EXPECT_EQ(report.notified + report.missed.size(), report.aliveTotal);
  const auto hopSum = std::accumulate(report.newlyNotifiedPerHop.begin(),
                                      report.newlyNotifiedPerHop.end(),
                                      std::uint64_t{0});
  EXPECT_EQ(hopSum, report.notified);
  // Virgin deliveries are everyone but the origin.
  EXPECT_EQ(report.messagesVirgin, report.notified - 1);
}

TEST(Disseminator, PercentNotReachedIsMonotone) {
  const auto snapshot = snapshotGraph(overlay::makeRing(30));
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  double previous = 100.0;
  for (std::uint32_t hop = 0; hop <= report.lastHop; ++hop) {
    const double current = report.percentNotReachedAfterHop(hop);
    EXPECT_LE(current, previous);
    previous = current;
  }
  EXPECT_EQ(report.percentNotReachedAfterHop(report.lastHop), 0.0);
}

TEST(Disseminator, LoadRecordingMatchesMessageTotals) {
  const auto snapshot = snapshotGraph(overlay::makeHarary(3, 24));
  const FloodSelector flood;
  const auto report =
      disseminate(snapshot, flood, 0, params(1, 1, /*recordLoad=*/true));
  ASSERT_EQ(report.forwardsPerNode.size(), snapshot.totalIds());
  const auto forwards =
      std::accumulate(report.forwardsPerNode.begin(),
                      report.forwardsPerNode.end(), std::uint64_t{0});
  const auto received =
      std::accumulate(report.receivedPerNode.begin(),
                      report.receivedPerNode.end(), std::uint64_t{0});
  EXPECT_EQ(forwards, report.messagesTotal);
  EXPECT_EQ(received, report.messagesVirgin + report.messagesRedundant);
}

TEST(Disseminator, LoadVectorsEmptyWhenNotRequested) {
  const auto snapshot = snapshotGraph(overlay::makeRing(5));
  const FloodSelector flood;
  const auto report = disseminate(snapshot, flood, 0, params(1));
  EXPECT_TRUE(report.forwardsPerNode.empty());
  EXPECT_TRUE(report.receivedPerNode.empty());
}

TEST(Disseminator, DeterministicUnderSeed) {
  // Random selector paths must replay exactly under the same seed.
  std::vector<OverlaySnapshot::NodeLinks> links(40);
  Rng build(3);
  for (NodeId id = 0; id < 40; ++id)
    for (int k = 0; k < 5; ++k)
      links[id].rlinks.push_back(
          static_cast<NodeId>((id + 1 + build.below(39)) % 40));
  const OverlaySnapshot snapshot{std::move(links),
                                 std::vector<std::uint8_t>(40, 1)};
  const RandCastSelector selector;
  const auto a = disseminate(snapshot, selector, 0, params(2, 77));
  const auto b = disseminate(snapshot, selector, 0, params(2, 77));
  const auto c = disseminate(snapshot, selector, 0, params(2, 78));
  EXPECT_EQ(a.notified, b.notified);
  EXPECT_EQ(a.messagesTotal, b.messagesTotal);
  EXPECT_EQ(a.newlyNotifiedPerHop, b.newlyNotifiedPerHop);
  // Different seed: almost surely a different trajectory.
  EXPECT_TRUE(a.messagesRedundant != c.messagesRedundant ||
              a.newlyNotifiedPerHop != c.newlyNotifiedPerHop ||
              a.notified != c.notified);
}

/// The per-node hop loop disseminate ran before its one-dispatch
/// rewrite: a selectTargets call into a vector per forwarding node, and
/// separate alive/notified lookups per message. The oracle below pins
/// the rewrite to it report for report.
DeliveryReport referenceDisseminate(const OverlaySnapshot& overlay,
                                    const TargetSelector& selector,
                                    NodeId origin,
                                    const DisseminationParams& params) {
  DeliveryReport report;
  report.fanout = params.fanout;
  report.origin = origin;
  report.aliveTotal = overlay.aliveCount();
  if (params.recordLoad) {
    report.forwardsPerNode.assign(overlay.totalIds(), 0);
    report.receivedPerNode.assign(overlay.totalIds(), 0);
  }
  Rng rng(params.seed);
  std::vector<std::uint8_t> notified(overlay.totalIds(), 0);
  std::vector<std::pair<NodeId, NodeId>> frontier{{origin, kNoNode}};
  std::vector<std::pair<NodeId, NodeId>> next;
  std::vector<NodeId> targets;
  notified[origin] = 1;
  report.notified = 1;
  report.newlyNotifiedPerHop.push_back(1);
  std::uint32_t hop = 0;
  while (!frontier.empty()) {
    next.clear();
    for (const auto& [node, from] : frontier) {
      selector.selectTargets(overlay, node, from, params.fanout, rng,
                             targets);
      if (params.recordLoad)
        report.forwardsPerNode[node] +=
            static_cast<std::uint32_t>(targets.size());
      for (const NodeId target : targets) {
        ++report.messagesTotal;
        if (!overlay.isAlive(target)) {
          ++report.messagesToDead;
          continue;
        }
        if (params.recordLoad) ++report.receivedPerNode[target];
        if (notified[target]) {
          ++report.messagesRedundant;
          continue;
        }
        notified[target] = 1;
        ++report.messagesVirgin;
        ++report.notified;
        next.push_back({target, node});
      }
    }
    ++hop;
    if (!next.empty()) {
      report.newlyNotifiedPerHop.push_back(next.size());
      report.lastHop = hop;
    }
    frontier.swap(next);
  }
  for (const NodeId id : overlay.aliveIds())
    if (!notified[id]) report.missed.push_back(id);
  report.pushDelivered = report.notified;
  return report;
}

TEST(Disseminator, MatchesThePerNodeSelectorLoopOnEveryRule) {
  // Random overlays with dead nodes, duplicate and self links, and
  // d-link sets of 0-4 entries; every selector, several fanouts, load
  // recording on and off.
  const FloodSelector flood;
  const RandCastSelector randCast;
  const RingCastSelector ringCast;
  const MultiRingCastSelector multiRing;
  const std::vector<const TargetSelector*> selectors{&flood, &randCast,
                                                      &ringCast, &multiRing};
  Rng gen(41);
  for (int trial = 0; trial < 60; ++trial) {
    const auto ids = static_cast<NodeId>(2 + gen.below(200));
    std::vector<OverlaySnapshot::NodeLinks> links(ids);
    std::vector<std::uint8_t> alive(ids, 1);
    for (NodeId id = 0; id < ids; ++id) {
      for (std::size_t k = gen.below(25); k > 0; --k)
        links[id].rlinks.push_back(static_cast<NodeId>(gen.below(ids)));
      for (std::size_t k = gen.below(5); k > 0; --k)
        links[id].dlinks.push_back(static_cast<NodeId>(gen.below(ids)));
      if (id > 0 && gen.chance(0.1)) alive[id] = 0;
    }
    const OverlaySnapshot overlay{std::move(links), std::move(alive)};
    for (const TargetSelector* selector : selectors) {
      for (const std::uint32_t fanout : {1u, 2u, 3u, 7u}) {
        const std::uint64_t seed = gen();
        const DisseminationParams p = params(fanout, seed, gen.chance(0.5));
        const auto got = disseminate(overlay, *selector, 0, p);
        const auto want = referenceDisseminate(overlay, *selector, 0, p);
        SCOPED_TRACE(testing::Message() << "trial " << trial << " "
                                        << selector->name() << " F="
                                        << fanout);
        EXPECT_EQ(got.notified, want.notified);
        EXPECT_EQ(got.pushDelivered, want.pushDelivered);
        EXPECT_EQ(got.newlyNotifiedPerHop, want.newlyNotifiedPerHop);
        EXPECT_EQ(got.lastHop, want.lastHop);
        EXPECT_EQ(got.messagesTotal, want.messagesTotal);
        EXPECT_EQ(got.messagesVirgin, want.messagesVirgin);
        EXPECT_EQ(got.messagesRedundant, want.messagesRedundant);
        EXPECT_EQ(got.messagesToDead, want.messagesToDead);
        EXPECT_EQ(got.missed, want.missed);
        EXPECT_EQ(got.forwardsPerNode, want.forwardsPerNode);
        EXPECT_EQ(got.receivedPerNode, want.receivedPerNode);
      }
    }
  }
}

}  // namespace
}  // namespace vs07::cast
