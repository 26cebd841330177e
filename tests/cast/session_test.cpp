// CastSession — the unified dissemination API. These tests pin the
// contract the redesign introduced: SnapshotSession and LiveSession
// speak the same Strategy plug-point and return the same DeliveryReport,
// with consistent accounting across both execution paths.
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/scenario.hpp"
#include "cast/session.hpp"
#include "common/expect.hpp"
#include "overlay/graph.hpp"

namespace vs07::cast {
namespace {

using analysis::Scenario;

CastOptions ringOptions(std::uint32_t fanout = 3, std::uint64_t seed = 1) {
  return {.strategy = Strategy::kRingCast, .fanout = fanout, .seed = seed};
}

// -- SnapshotSession -----------------------------------------------------

TEST(SnapshotSession, FloodOverGraphMatchesKnownNumbers) {
  SnapshotSession session(snapshotGraph(overlay::makeRing(10)),
                          {.strategy = Strategy::kFlood, .fanout = 1});
  const auto report = session.publish(0);
  EXPECT_EQ(report.strategy, Strategy::kFlood);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.notified, 10u);
  EXPECT_EQ(report.pushDelivered, 10u);
  EXPECT_EQ(report.pullDelivered, 0u);
  EXPECT_EQ(report.lastHop, 5u);
  EXPECT_EQ(report.messagesVirgin, 9u);
}

TEST(SnapshotSession, RingCastCompletesOnWarmOverlay) {
  const auto scenario = Scenario::builder().nodes(300).seed(11).build();
  auto session = scenario.snapshotSession(ringOptions());
  const auto report = session.publish(0);
  EXPECT_EQ(report.strategy, Strategy::kRingCast);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.missRatioPercent(), 0.0);
  EXPECT_TRUE(report.missed.empty());
}

TEST(SnapshotSession, SuccessivePublishesDifferButReplayDeterministically) {
  const auto scenario = Scenario::builder().nodes(200).seed(12).build();
  auto a = scenario.snapshotSession(
      {.strategy = Strategy::kRandCast, .fanout = 2, .seed = 5});
  auto b = scenario.snapshotSession(
      {.strategy = Strategy::kRandCast, .fanout = 2, .seed = 5});
  const auto a1 = a.publish(0);
  const auto a2 = a.publish(0);
  const auto b1 = b.publish(0);
  // Same session seed: the publish sequence replays exactly.
  EXPECT_EQ(a1.messagesTotal, b1.messagesTotal);
  EXPECT_EQ(a1.newlyNotifiedPerHop, b1.newlyNotifiedPerHop);
  // Within one session, each publish draws fresh randomness.
  EXPECT_TRUE(a1.newlyNotifiedPerHop != a2.newlyNotifiedPerHop ||
              a1.messagesRedundant != a2.messagesRedundant);
}

TEST(SnapshotSession, PublishFromRandomPicksAliveOrigins) {
  auto alive = std::vector<std::uint8_t>(20, 1);
  for (NodeId id = 0; id < 10; ++id) alive[id] = 0;
  SnapshotSession session(
      snapshotGraph(overlay::makeClique(20), std::move(alive)),
      {.strategy = Strategy::kFlood, .fanout = 1, .seed = 3});
  for (int i = 0; i < 10; ++i) {
    const auto report = session.publishFromRandom();
    EXPECT_GE(report.origin, 10u);
  }
}

TEST(SnapshotSession, RecordsLoadOnRequest) {
  SnapshotSession session(snapshotGraph(overlay::makeHarary(4, 30)),
                          {.strategy = Strategy::kFlood, .fanout = 1,
                           .recordLoad = true});
  const auto report = session.publish(0);
  ASSERT_EQ(report.forwardsPerNode.size(), 30u);
  const auto forwards =
      std::accumulate(report.forwardsPerNode.begin(),
                      report.forwardsPerNode.end(), std::uint64_t{0});
  EXPECT_EQ(forwards, report.messagesTotal);
}

TEST(SnapshotSession, PushPullRejected) {
  EXPECT_THROW(SnapshotSession(snapshotGraph(overlay::makeRing(5)),
                               {.strategy = Strategy::kPushPull}),
               ContractViolation);
}

// -- LiveSession ---------------------------------------------------------

TEST(LiveSession, RingPushMatchesSnapshotCompleteness) {
  // The paper's static fail-free guarantee must hold on both execution
  // paths: live RINGCAST push covers everyone, like the frozen overlay.
  Scenario scenario = Scenario::builder().nodes(250).seed(13).build();
  auto& session = scenario.liveSession(ringOptions());
  const auto report = session.publish(0);
  EXPECT_EQ(report.strategy, Strategy::kRingCast);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.pushDelivered, 250u);
  EXPECT_EQ(report.pullDelivered, 0u);
  EXPECT_EQ(report.origin, 0u);
  // Message accounting is conserved on the immediate transport.
  EXPECT_EQ(report.messagesTotal, report.messagesVirgin +
                                      report.messagesRedundant +
                                      report.messagesToDead);
  // Per-hop series covers every push delivery and starts at the origin.
  const auto hopSum = std::accumulate(report.newlyNotifiedPerHop.begin(),
                                      report.newlyNotifiedPerHop.end(),
                                      std::uint64_t{0});
  EXPECT_EQ(hopSum, report.pushDelivered);
  ASSERT_FALSE(report.newlyNotifiedPerHop.empty());
  EXPECT_EQ(report.newlyNotifiedPerHop[0], 1u);
  EXPECT_GT(report.lastHop, 0u);
}

TEST(LiveSession, PullBackfillsMissesAfterFailures) {
  Scenario scenario = Scenario::builder().nodes(400).seed(14).build();
  auto& session = scenario.liveSession({.strategy = Strategy::kPushPull,
                                        .fanout = 2,
                                        .settleCycles = 0,
                                        .pullInterval = 1});
  scenario.killRandomFraction(0.15);

  const auto atPush = session.publish(scenario.network().aliveIds().front());
  const auto id = session.lastDataId();
  scenario.runCycles(6);
  const auto settled = session.report(id);

  EXPECT_GE(atPush.missed.size(), settled.missed.size());
  EXPECT_EQ(settled.missRatioPercent(), 0.0);
  EXPECT_EQ(settled.pushDelivered + settled.pullDelivered, settled.notified);
  if (!atPush.complete()) {
    EXPECT_GT(settled.pullDelivered, 0u);
    EXPECT_GT(settled.pullRequests, 0u);
  }
}

TEST(LiveSession, SettleCyclesFoldThePullPhaseIntoPublish) {
  Scenario scenario = Scenario::builder().nodes(400).seed(15).build();
  auto& session = scenario.liveSession({.strategy = Strategy::kPushPull,
                                        .fanout = 2,
                                        .settleCycles = 6,
                                        .pullInterval = 1});
  scenario.killRandomFraction(0.15);
  const auto report =
      session.publish(scenario.network().aliveIds().front());
  EXPECT_EQ(report.missRatioPercent(), 0.0);
}

TEST(LiveSession, RandCastIgnoresTheRing) {
  Scenario scenario = Scenario::builder().nodes(200).seed(16).build();
  auto& session = scenario.liveSession(
      {.strategy = Strategy::kRandCast, .fanout = 2, .seed = 9});
  const auto report = session.publish(0);
  EXPECT_EQ(report.strategy, Strategy::kRandCast);
  // F=2 random-only push on 200 nodes virtually never covers everyone
  // (RINGCAST would, deterministically).
  EXPECT_FALSE(report.complete());
}

TEST(LiveSession, MultiRingForwardsOverEveryRing) {
  Scenario scenario =
      Scenario::builder().nodes(200).rings(2).seed(17).build();
  auto& session = scenario.liveSession(
      {.strategy = Strategy::kMultiRing, .fanout = 2});
  const auto report = session.publish(0);
  // 2 rings = up to 4 d-links per node: even F=2 completes because the
  // hybrid rule forwards across *all* d-links (Fig. 5 / §8).
  EXPECT_TRUE(report.complete());
}

TEST(LiveSession, ReportToDeadCountsMessagesIntoTheOutage) {
  Scenario scenario = Scenario::builder().nodes(300).seed(18).build();
  auto& session = scenario.liveSession(ringOptions());
  scenario.killRandomFraction(0.10);
  const auto report =
      session.publish(scenario.network().aliveIds().front());
  EXPECT_GT(report.messagesToDead, 0u);
  EXPECT_EQ(report.aliveTotal, scenario.network().aliveCount());
}

TEST(LiveSession, LoadDeltaCoversOnlyThisPublish) {
  Scenario scenario = Scenario::builder().nodes(150).seed(19).build();
  auto& session = scenario.liveSession({.strategy = Strategy::kRingCast,
                                        .fanout = 3,
                                        .recordLoad = true});
  const auto first = session.publish(0);
  const auto second = session.publish(1);
  const auto sum = [](const std::vector<std::uint32_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  // Each report's forward delta accounts exactly its own message total.
  EXPECT_EQ(sum(first.forwardsPerNode), first.messagesTotal);
  EXPECT_EQ(sum(second.forwardsPerNode), second.messagesTotal);
}

TEST(LiveSession, UnknownDataIdRejected) {
  Scenario scenario = Scenario::builder().nodes(60).seed(20).build();
  auto& session = scenario.liveSession(ringOptions());
  EXPECT_THROW(session.report(123456), ContractViolation);
}

TEST(LiveSession, LinkLossLosesPushMessagesButPullRepairs) {
  // Loss engages only after the warm-up, so the overlay self-organises
  // on clean links; then the push wave loses messages on lossy links and
  // pull backfills what it missed (Sanghavi et al.).
  Scenario scenario = Scenario::builder()
                          .nodes(300)
                          .seed(22)
                          .linkLoss(0.30)
                          .conditionsFromCycle(Scenario::Config{}.warmupCycles)
                          .build();
  auto& session = scenario.liveSession({.strategy = Strategy::kPushPull,
                                        .fanout = 3,
                                        .pullInterval = 1});
  session.publish(0);
  scenario.runCycles(8);
  const auto settled = session.report(session.lastDataId());
  const auto& stats = session.live().stats(session.lastDataId());
  ASSERT_NE(scenario.networkModel(), nullptr);
  EXPECT_GT(scenario.networkModel()->droppedByLoss(), 0u);
  EXPECT_LT(stats.pushDelivered, settled.aliveTotal);  // loss bit the push
  EXPECT_GT(stats.pullDelivered, 0u);                  // pull repaired some
}

}  // namespace
}  // namespace vs07::cast
