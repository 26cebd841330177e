// Unit coverage for the search subsystem: content placement, report
// bookkeeping, the local-knowledge cache, and the paper-quick strategy
// ordering (flood >= ttl-gossip >= random walk at equal TTL).
#include <algorithm>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "cast/strategy.hpp"
#include "search/content.hpp"
#include "search/query.hpp"

namespace vs07::search {
namespace {

analysis::Scenario quickScenario(std::uint32_t nodes = 400,
                                 std::uint64_t seed = 42) {
  return analysis::Scenario::builder()
      .nodes(nodes)
      .seed(seed)
      .warmupCycles(50)
      .build();
}

TEST(ContentPlacement, PlacesEachItemOnDistinctAliveHolders) {
  const auto scenario = quickScenario();
  const auto overlay = scenario.snapshotRing();
  const ContentPlacement placement(overlay, /*items=*/32, /*replication=*/8,
                                   /*seed=*/7);
  ASSERT_EQ(placement.items(), 32u);
  ASSERT_EQ(placement.replication(), 8u);
  for (ItemId item = 0; item < placement.items(); ++item) {
    const auto holders = placement.holders(item);
    ASSERT_EQ(holders.size(), 8u) << "item=" << item;
    std::set<NodeId> distinct(holders.begin(), holders.end());
    EXPECT_EQ(distinct.size(), holders.size()) << "item=" << item;
    EXPECT_TRUE(std::is_sorted(holders.begin(), holders.end()));
    for (const NodeId holder : holders) {
      EXPECT_TRUE(overlay.isAlive(holder));
      EXPECT_TRUE(placement.holds(holder, item));
    }
  }
}

TEST(ContentPlacement, NodeToItemInversionMatchesHolderSets) {
  const auto overlay = quickScenario().snapshotRing();
  const ContentPlacement placement(overlay, 16, 4, 7);
  std::uint64_t fromItems = 0;
  std::uint64_t fromNodes = 0;
  for (ItemId item = 0; item < placement.items(); ++item)
    fromItems += placement.holders(item).size();
  for (NodeId node = 0; node < overlay.totalIds(); ++node) {
    for (const ItemId item : placement.itemsHeldBy(node)) {
      EXPECT_TRUE(placement.holds(node, item));
      ++fromNodes;
    }
  }
  EXPECT_EQ(fromItems, fromNodes);
  EXPECT_EQ(fromItems, 16u * 4u);
}

TEST(ContentPlacement, IdsOutsideThePopulationHoldNothing) {
  // kNoNode is the "no link" marker snapshots may carry; it and the first
  // id past the population must read as empty, never index the CSR.
  const auto overlay = quickScenario().snapshotRing();
  const ContentPlacement placement(overlay, 16, 4, 7);
  for (const NodeId outside : {overlay.totalIds(), kNoNode}) {
    EXPECT_TRUE(placement.itemsHeldBy(outside).empty()) << outside;
    for (ItemId item = 0; item < placement.items(); ++item)
      EXPECT_FALSE(placement.holds(outside, item)) << outside;
  }
}

TEST(QuerySession, ReportBookkeepingIsConsistent) {
  const auto scenario = quickScenario();
  auto session = scenario.querySession(QueryOptions::ttlGossip(6, 2));
  const auto report = session.run(300);
  EXPECT_EQ(report.queries, 300u);
  EXPECT_LE(report.resolved, report.queries);
  EXPECT_LE(report.cacheResolved, report.resolved);
  EXPECT_LE(report.messagesToDead, report.messagesTotal);
  ASSERT_EQ(report.resolvedPerHop.size(), 7u);  // hops 0..ttl
  std::uint64_t perHopSum = 0;
  std::uint64_t hopWeighted = 0;
  for (std::size_t hop = 0; hop < report.resolvedPerHop.size(); ++hop) {
    perHopSum += report.resolvedPerHop[hop];
    hopWeighted += hop * report.resolvedPerHop[hop];
  }
  EXPECT_EQ(perHopSum, report.resolved);
  EXPECT_EQ(hopWeighted, report.hopsToResolveTotal);
  EXPECT_GT(report.resolved, 0u);  // 6 hops over a warm overlay finds *some*
}

TEST(QuerySession, RunsAreReproducibleFromFreshSessions) {
  const auto scenario = quickScenario();
  auto first = scenario.querySession(QueryOptions::ttlGossip());
  auto second = scenario.querySession(QueryOptions::ttlGossip());
  EXPECT_EQ(first.run(200), second.run(200));
}

TEST(QuerySession, AdvertisementSeedsLocalKnowledge) {
  const auto scenario = quickScenario();
  auto session = scenario.querySession(QueryOptions::ttlGossip());
  // Every alive node has overlay neighbours, and every node holds a few
  // items on average, so advertisement must have written entries.
  EXPECT_GT(session.cachedEntries(), 0u);
  auto bare = QueryOptions::ttlGossip();
  bare.advertiseToNeighbours = false;
  auto cold = scenario.querySession(bare);
  EXPECT_EQ(cold.cachedEntries(), 0u);
  // Cold caches still warm up from answer traffic.
  const auto report = cold.run(400);
  EXPECT_GT(report.cacheInsertions, 0u);
  EXPECT_GT(cold.cachedEntries(), 0u);
}

TEST(QuerySession, CacheResolutionsAreCountedSeparately) {
  const auto scenario = quickScenario();
  auto session = scenario.querySession(QueryOptions::ttlGossip(4, 2));
  const auto report = session.run(500);
  // With advertised knowledge on a replication-8 catalogue, a visible
  // share of resolutions comes from cache entries rather than copies.
  EXPECT_GT(report.cacheResolved, 0u);
  EXPECT_GT(report.cacheHitFraction(), 0.0);
}

TEST(QuerySession, StrategyNamesMatchTheChoiceList) {
  const auto& choices = searchStrategyChoices();
  ASSERT_EQ(choices.size(), 3u);
  EXPECT_EQ(choices[0], searchStrategyName(SearchStrategy::kTtlGossip));
  EXPECT_EQ(choices[1], searchStrategyName(SearchStrategy::kFlood));
  EXPECT_EQ(choices[2], searchStrategyName(SearchStrategy::kRandomWalk));
}

TEST(QuerySession, ScenarioBuilderWiresQueryOptionsThrough) {
  auto options = QueryOptions::ttlGossip(5, 3);
  options.items = 24;
  const auto scenario = analysis::Scenario::builder()
                            .nodes(300)
                            .seed(9)
                            .warmupCycles(40)
                            .query(options)
                            .build();
  auto session = scenario.querySession();  // config-driven overload
  EXPECT_EQ(session.options().ttl, 5u);
  EXPECT_EQ(session.options().fanout, 3u);
  EXPECT_EQ(session.options().items, 24u);
  const auto report = session.run(50);
  EXPECT_EQ(report.ttl, 5u);
  EXPECT_EQ(report.items, 24u);
}

TEST(QuerySession, StrategiesOrderAsTheLiteratureSays) {
  // The acceptance-bar ordering at paper-quick scale: flooding reaches
  // the most nodes per query, TTL-gossip trades some coverage for a
  // bounded fanout, and k random walks cover the least — so at equal TTL
  // the hit rates must order flood >= ttl-gossip >= random walk, and the
  // message bill must order the same way.
  const auto scenario = quickScenario(600);
  const std::uint32_t ttl = 6;
  auto gossip = scenario.querySession(QueryOptions::ttlGossip(ttl, 2));
  auto flood = scenario.querySession(QueryOptions::flood(ttl));
  auto walk = scenario.querySession(QueryOptions::randomWalk(4, ttl));
  const auto gossipReport = gossip.run(400);
  const auto floodReport = flood.run(400);
  const auto walkReport = walk.run(400);
  EXPECT_GE(floodReport.hitRatePercent(), gossipReport.hitRatePercent());
  EXPECT_GE(gossipReport.hitRatePercent(), walkReport.hitRatePercent());
  // Cost ordering is only claimed where it is structural: flooding pays
  // for every link of every visited node, gossip for at most fanout of
  // them. (Gossip-vs-walk cost flips with the cache: early resolutions
  // make cached gossip *cheaper* than 4 walkers at the same TTL.)
  EXPECT_GE(floodReport.messagesPerQuery(), gossipReport.messagesPerQuery());
  // And the flood baseline actually saturates on a warm 600-node overlay.
  EXPECT_GT(floodReport.hitRatePercent(), 99.0);
}

}  // namespace
}  // namespace vs07::search
