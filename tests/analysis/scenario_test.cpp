// ScenarioBuilder / Scenario — the experiment-facing composition root.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/graph_analysis.hpp"
#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "common/expect.hpp"

namespace vs07::analysis {
namespace {

using cast::Strategy;

TEST(ScenarioBuilder, BuildWarmsUpByDefault) {
  const auto scenario = Scenario::builder().nodes(150).seed(1).build();
  const auto convergence =
      ringConvergence(scenario.network(), scenario.vicinity());
  EXPECT_GE(convergence.bothAccuracy, 0.95);
  EXPECT_EQ(scenario.engine().cycle(), scenario.config().warmupCycles);
}

TEST(ScenarioBuilder, NoWarmupLeavesViewsEmpty) {
  const auto scenario =
      Scenario::builder().nodes(80).seed(2).noWarmup().build();
  EXPECT_EQ(scenario.engine().cycle(), 0u);
  const auto snapshot = scenario.snapshot(Strategy::kRandCast);
  for (const NodeId id : snapshot.aliveIds())
    EXPECT_TRUE(snapshot.rlinks(id).empty());
}

TEST(ScenarioBuilder, SameSeedSameOverlay) {
  const auto a = Scenario::builder().nodes(120).seed(7).build();
  const auto b = Scenario::builder().nodes(120).seed(7).build();
  const auto sa = a.snapshot(Strategy::kRingCast);
  const auto sb = b.snapshot(Strategy::kRingCast);
  ASSERT_EQ(sa.totalIds(), sb.totalIds());
  for (NodeId id = 0; id < sa.totalIds(); ++id) {
    EXPECT_TRUE(std::ranges::equal(sa.rlinks(id), sb.rlinks(id)));
    EXPECT_TRUE(std::ranges::equal(sa.dlinks(id), sb.dlinks(id)));
  }
}

TEST(ScenarioBuilder, ZeroRingsRejected) {
  EXPECT_THROW(Scenario::builder().nodes(20).rings(0).build(),
               ContractViolation);
}

TEST(ScenarioBuilder, InvalidKnobsRejected) {
  EXPECT_THROW(Scenario::builder().linkLoss(1.5), ContractViolation);
  EXPECT_THROW(Scenario::builder().churn(0.0), ContractViolation);
  EXPECT_THROW(
      Scenario::builder().churn(0.01).sessionChurn(sim::SessionDistribution{}),
      ContractViolation);
}

TEST(ScenarioBuilder, ShardedBuildsRejectWhatTheEngineCannotRun) {
  // Link conditions resolve on the sequential engine's transport only.
  EXPECT_THROW(Scenario::builder()
                   .nodes(20)
                   .noWarmup()
                   .engineThreads(2)
                   .linkLoss(0.1)
                   .build(),
               ContractViolation);
  // Sharded CycleSync is latency-free.
  EXPECT_THROW(Scenario::builder()
                   .nodes(20)
                   .noWarmup()
                   .engineThreads(2)
                   .latency(sim::LatencyModel::fixed(1))
                   .build(),
               ContractViolation);
}

TEST(ScenarioBuilder, ShardedScenarioHoldsOnlyTheShardedEngine) {
  auto scenario = Scenario::builder()
                      .nodes(60)
                      .seed(10)
                      .engineThreads(2)
                      .timing(sim::TimingConfig::jitteredLatency(
                          sim::LatencyModel::uniform(1, 3)))
                      .warmupCycles(5)
                      .build();
  ASSERT_NE(scenario.shardedEngine(), nullptr);
  EXPECT_EQ(scenario.cyclesRun(), 5u);
  EXPECT_EQ(scenario.shardedEngine()->cycle(), 5u);
  // No idle sequential engine, and no transport on its event queue.
  EXPECT_THROW(scenario.engine(), ContractViolation);
  EXPECT_THROW(scenario.liveSession(), ContractViolation);
  EXPECT_EQ(scenario.latencyTransport(), nullptr);
}

TEST(ScenarioBuilder, EngineThreadsAboveTheLimitRejected) {
  EXPECT_NO_THROW(
      Scenario::builder().engineThreads(Scenario::kMaxEngineThreads));
  EXPECT_THROW(
      Scenario::builder().engineThreads(Scenario::kMaxEngineThreads + 1),
      ContractViolation);
}

TEST(ScenarioBuilder, ChurnInstalledAtBuildReplacesNodes) {
  auto scenario =
      Scenario::builder().nodes(200).seed(3).churn(0.05).build();
  const auto createdAfterWarmup = scenario.network().totalCreated();
  EXPECT_EQ(createdAfterWarmup, 200u);  // churn starts only after warm-up
  scenario.runCycles(20);
  EXPECT_GT(scenario.network().totalCreated(), createdAfterWarmup);
  EXPECT_EQ(scenario.network().aliveCount(), 200u);  // replacement churn
}

TEST(ScenarioBuilder, SessionChurnInstalledAtBuildReplacesNodes) {
  auto scenario = Scenario::builder()
                      .nodes(150)
                      .seed(4)
                      .sessionChurn(sim::paretoForMeanLifetime(30.0))
                      .build();
  scenario.runCycles(60);
  EXPECT_GT(scenario.network().totalCreated(), 150u);
  EXPECT_EQ(scenario.network().aliveCount(), 150u);
}

TEST(Scenario, MoveKeepsWiringAlive) {
  // Scenario is a movable value type; the heap core keeps the transport's
  // this-capturing delivery sink valid across the move.
  auto built = Scenario::builder().nodes(100).seed(5).build();
  Scenario moved = std::move(built);
  moved.runCycles(5);
  auto session = moved.snapshotSession(
      {.strategy = Strategy::kRingCast, .fanout = 3});
  EXPECT_TRUE(session.publish(0).complete());
}

TEST(Scenario, PaperStaticPresetIsReadyToCast) {
  const auto scenario = Scenario::paperStatic(/*nodes=*/300, /*seed=*/6);
  const auto point = ParallelSweep().measureEffectiveness(
      scenario, Strategy::kRingCast, 3, 10, 99);
  EXPECT_EQ(point.avgMissPercent, 0.0);
  EXPECT_EQ(point.completePercent, 100.0);
}

TEST(Scenario, PaperCatastrophicPresetKillsTheFraction) {
  const auto scenario =
      Scenario::paperCatastrophic(0.10, /*nodes=*/300, /*seed=*/7);
  EXPECT_EQ(scenario.network().aliveCount(), 270u);
}

TEST(Scenario, PaperChurnPresetReachesFullTurnover) {
  const auto scenario =
      Scenario::paperChurn(/*rate=*/0.02, /*nodes=*/200, /*seed=*/8,
                           /*maxChurnCycles=*/20'000);
  EXPECT_EQ(scenario.network().initialSurvivors(), 0u);
  EXPECT_GT(scenario.churnCycles(), 0u);
  EXPECT_EQ(scenario.engine().cycle(),
            scenario.config().warmupCycles + scenario.churnCycles());
}

TEST(Scenario, RunChurnUntilFullTurnoverInstallsChurnLazily) {
  auto scenario = Scenario::builder().nodes(150).seed(9).build();
  const auto cycles = scenario.runChurnUntilFullTurnover(0.05, 10'000);
  EXPECT_LT(cycles, 10'000u);
  EXPECT_EQ(scenario.network().initialSurvivors(), 0u);
}

TEST(Scenario, SnapshotSelectsLinksPerStrategy) {
  const auto scenario =
      Scenario::builder().nodes(120).rings(2).seed(10).build();
  const auto rand = scenario.snapshot(Strategy::kRandCast);
  const auto ring = scenario.snapshot(Strategy::kRingCast);
  const auto multi = scenario.snapshot(Strategy::kMultiRing);
  for (const NodeId id : rand.aliveIds()) {
    EXPECT_TRUE(rand.dlinks(id).empty());
    EXPECT_FALSE(rand.rlinks(id).empty());
    EXPECT_LE(ring.dlinks(id).size(), 2u);
    EXPECT_GE(multi.dlinks(id).size(), ring.dlinks(id).size());
  }
}

TEST(Scenario, OneLiveSessionPerScenario) {
  auto scenario = Scenario::builder().nodes(60).seed(11).build();
  scenario.liveSession({.strategy = Strategy::kRingCast});
  EXPECT_THROW(scenario.liveSession({.strategy = Strategy::kRandCast}),
               ContractViolation);
}

}  // namespace
}  // namespace vs07::analysis
