#include "gossip/cyclon.hpp"

#include <gtest/gtest.h>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "cast/snapshot.hpp"
#include "common/stats.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::gossip {
namespace {

/// Minimal wiring: network + router + immediate transport + CYCLON only.
struct CyclonHarness {
  explicit CyclonHarness(std::uint32_t n, Cyclon::Params params = {},
                         std::uint64_t seed = 1)
      : network(n, seed),
        router(network),
        transport(router),
        cyclon(network, transport, router, params, seed + 1),
        engine(network, seed + 2) {
    engine.addProtocol(cyclon);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  Cyclon cyclon;
  sim::Engine engine;
};

TEST(Cyclon, ParamsValidated) {
  sim::Network net(4, 1);
  sim::MessageRouter router(net);
  net::ImmediateTransport transport(router);
  EXPECT_THROW(Cyclon(net, transport, router, {0, 1}, 1), ContractViolation);
  EXPECT_THROW(Cyclon(net, transport, router, {5, 0}, 1), ContractViolation);
  EXPECT_THROW(Cyclon(net, transport, router, {5, 6}, 1), ContractViolation);
}

TEST(Cyclon, StarBootstrapGivesSingleContact) {
  CyclonHarness h(10);
  sim::bootstrapStar(h.network, h.cyclon);
  for (NodeId id = 1; id < 10; ++id) {
    ASSERT_EQ(h.cyclon.view(id).size(), 1u);
    EXPECT_EQ(h.cyclon.view(id).at(0).node, 0u);
  }
  EXPECT_TRUE(h.cyclon.view(0).empty());
}

TEST(Cyclon, ViewsFillToCapacityAfterWarmup) {
  CyclonHarness h(200, {10, 5});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(50);
  for (const NodeId id : h.network.aliveIds())
    EXPECT_EQ(h.cyclon.view(id).size(), 10u) << "node " << id;
}

TEST(Cyclon, ViewEntriesCarryCorrectProfiles) {
  CyclonHarness h(50, {8, 4});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(30);
  for (const NodeId id : h.network.aliveIds())
    for (const auto& e : h.cyclon.view(id).entries())
      EXPECT_EQ(e.profile, h.network.seqId(e.node));
}

TEST(Cyclon, OverlayBecomesStronglyConnected) {
  CyclonHarness h(500);
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(100);
  const auto snapshot = cast::snapshotRandom(h.network, h.cyclon);
  const auto adjacency = analysis::aliveAdjacency(snapshot);
  EXPECT_EQ(analysis::stronglyConnectedComponentCount(adjacency), 1u);
}

TEST(Cyclon, IndegreeConcentratesAroundViewLength) {
  CyclonHarness h(500, {20, 8});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(150);
  const auto snapshot = cast::snapshotRandom(h.network, h.cyclon);
  const auto indegrees = analysis::aliveIndegrees(snapshot);
  RunningStats stats;
  for (const auto d : indegrees) stats.add(d);
  // Every link points somewhere, so mean indegree == mean view size == 20.
  EXPECT_NEAR(stats.mean(), 20.0, 0.5);
  // CYCLON's hallmark: a narrow indegree distribution (random graphs would
  // have stddev ≈ sqrt(20) ≈ 4.5; CYCLON is tighter, but allow slack).
  EXPECT_LT(stats.stddev(), 6.0);
}

TEST(Cyclon, JoinerIndegreeGrowsRoughlyOnePerCycle) {
  CyclonHarness h(300, {20, 8});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(100);

  const NodeId joiner = h.network.spawn(h.engine.cycle());
  Rng rng(99);
  h.cyclon.onJoin(joiner, h.network.randomAlive(rng));

  h.engine.run(10);
  const auto snapshot = cast::snapshotRandom(h.network, h.cyclon);
  const auto& aliveIds = snapshot.aliveIds();
  std::uint32_t indegree = 0;
  for (const NodeId id : aliveIds)
    for (const NodeId link : snapshot.rlinks(id)) indegree += link == joiner;
  // After 10 cycles the joiner should be known by roughly 10 nodes
  // (§7.3: "increases by one in each of its first few cycles").
  EXPECT_GE(indegree, 5u);
  EXPECT_LE(indegree, 25u);
}

TEST(Cyclon, DeadLinksGetPurgedByGossip) {
  CyclonHarness h(300, {20, 8});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(100);

  Rng rng(5);
  sim::killRandomFraction(h.network, 0.10, rng);

  auto countDeadLinks = [&] {
    std::uint64_t dead = 0;
    for (const NodeId id : h.network.aliveIds())
      for (const auto& e : h.cyclon.view(id).entries())
        dead += !h.network.isAlive(e.node);
    return dead;
  };

  const auto deadBefore = countDeadLinks();
  EXPECT_GT(deadBefore, 0u);
  h.engine.run(40);  // views refresh; each shuffle retires the oldest link
  const auto deadAfter = countDeadLinks();
  EXPECT_LT(deadAfter, deadBefore / 5);
}

TEST(Cyclon, OnKillClearsState) {
  CyclonHarness h(20, {5, 3});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(10);
  EXPECT_FALSE(h.cyclon.view(7).empty());
  h.network.kill(7);
  EXPECT_TRUE(h.cyclon.view(7).empty());
}

TEST(Cyclon, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    CyclonHarness h(100, {10, 5}, seed);
    sim::bootstrapStar(h.network, h.cyclon);
    h.engine.run(30);
    std::vector<std::vector<NodeId>> views;
    for (NodeId id = 0; id < 100; ++id) {
      std::vector<NodeId> ids;
      for (const auto& e : h.cyclon.view(id).entries())
        ids.push_back(e.node);
      views.push_back(ids);
    }
    return views;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Cyclon, ShuffleCounterAdvances) {
  CyclonHarness h(50, {5, 3});
  sim::bootstrapStar(h.network, h.cyclon);
  h.engine.run(4);
  // Node 0 starts with an empty view and skips its first step, so the
  // count is slightly below 50*4; it must be close to it.
  EXPECT_GE(h.cyclon.shufflesInitiated(), 150u);
  EXPECT_LE(h.cyclon.shufflesInitiated(), 200u);
}

TEST(Cyclon, IsolatedNodeSkipsStep) {
  CyclonHarness h(5, {5, 3});
  // No bootstrap: all views empty; stepping must be a harmless no-op.
  h.engine.run(3);
  for (NodeId id = 0; id < 5; ++id) EXPECT_TRUE(h.cyclon.view(id).empty());
}

TEST(Cyclon, ViewsNeverContainSelfOrDuplicates) {
  // The View class enforces this by contract; run a long churn-heavy
  // scenario to probe the merge logic through every code path.
  CyclonHarness h(100, {8, 4});
  sim::bootstrapStar(h.network, h.cyclon);
  sim::ChurnControl churn(h.network, 0.05, 77);
  churn.addJoinHandler(h.cyclon);
  h.engine.addControl(churn);
  h.engine.run(100);  // throws on any invariant violation inside View
  for (const NodeId id : h.network.aliveIds()) {
    const auto& v = h.cyclon.view(id);
    for (const auto& e : v.entries()) EXPECT_NE(e.node, id);
  }
}

}  // namespace
}  // namespace vs07::gossip
