#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "common/expect.hpp"
#include "gossip/domain_key.hpp"
#include "gossip/multiring.hpp"
#include "harness/view_invariants.hpp"

namespace vs07::gossip {
namespace {

analysis::Scenario ringsStack(std::uint32_t n, std::uint32_t rings,
                              bool warm = true) {
  auto builder = analysis::Scenario::builder().nodes(n).rings(rings).seed(31);
  if (!warm) builder.noWarmup();
  return builder.build();
}

TEST(MultiRing, RingZeroUsesPlainSequenceIds) {
  const auto stack = ringsStack(50, 2, /*warm=*/false);
  const auto& rings = stack.rings();
  for (NodeId id = 0; id < 50; ++id)
    EXPECT_EQ(rings.ring(0).profileOf(id), stack.network().seqId(id));
}

TEST(MultiRing, FurtherRingsUseIndependentOrders) {
  const auto stack = ringsStack(50, 3, /*warm=*/false);
  const auto& rings = stack.rings();
  std::uint32_t sameAsPlain = 0;
  std::set<SequenceId> ring1Profiles;
  for (NodeId id = 0; id < 50; ++id) {
    const auto p1 = rings.ring(1).profileOf(id);
    const auto p2 = rings.ring(2).profileOf(id);
    sameAsPlain += p1 == stack.network().seqId(id);
    EXPECT_NE(p1, p2);  // distinct salts => distinct profiles
    ring1Profiles.insert(p1);
  }
  EXPECT_EQ(sameAsPlain, 0u);
  EXPECT_EQ(ring1Profiles.size(), 50u);  // still collision-free
}

TEST(MultiRing, AllRingsConvergeIndependently) {
  const auto stack = ringsStack(150, 2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto convergence =
        analysis::ringConvergence(stack.network(), stack.rings().ring(r));
    EXPECT_GE(convergence.bothAccuracy, 0.97) << "ring " << r;
  }
}

TEST(MultiRing, NeighborSetsDifferAcrossRings) {
  const auto stack = ringsStack(150, 2);
  std::uint32_t distinctNeighbors = 0;
  for (const NodeId id : stack.network().aliveIds()) {
    const auto all = stack.rings().allRingNeighbors(id);
    ASSERT_EQ(all.size(), 2u);
    distinctNeighbors += all[0].successor != all[1].successor;
  }
  // Independent random orders: almost all nodes have different
  // successors on the two rings.
  EXPECT_GT(distinctNeighbors, 140u);
}

TEST(MultiRing, ProfilesFollowSetSeqIdAfterBuild) {
  // Rewriting sequence ids after the protocols registered (the domain
  // ring's set-up) must move every ring: ring 0 reads the new id, ring 1
  // the new id under its salt, and gossip converges in the new orders.
  constexpr std::uint32_t kNodes = 150;
  auto stack = ringsStack(kNodes, 2, /*warm=*/false);
  auto& network = stack.network();
  const std::uint64_t ring1Salt = mix64(0x52494E47ULL + 1);  // multiring.cpp
  Rng rng(77);
  for (NodeId id = 0; id < kNodes; ++id) network.setSeqId(id, rng());

  const std::array<std::function<SequenceId(NodeId)>, 2> position{
      [&](NodeId n) { return network.seqId(n); },
      [&](NodeId n) { return mix64(network.seqId(n) ^ ring1Salt); }};
  for (std::uint32_t r = 0; r < 2; ++r)
    for (NodeId id = 0; id < kNodes; ++id)
      ASSERT_EQ(stack.rings().ring(r).profileOf(id), position[r](id))
          << "ring " << r << " node " << id;

  stack.warmup();
  EXPECT_TRUE(harness::viewsWellFormed(stack));
  for (std::uint32_t r = 0; r < 2; ++r) {
    // Ground truth from the new ids, not from profileOf.
    std::vector<NodeId> order(network.aliveIds());
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return position[r](a) < position[r](b);
    });
    std::uint32_t correct = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto links = stack.rings().ring(r).ringNeighbors(order[i]);
      correct += links.successor == order[(i + 1) % kNodes] &&
                 links.predecessor == order[(i + kNodes - 1) % kNodes];
    }
    EXPECT_GE(correct, kNodes * 97 / 100) << "ring " << r;
  }
}

TEST(MultiRing, RingCountLimits) {
  auto builder = analysis::Scenario::builder().nodes(20).rings(0).seed(31);
  EXPECT_THROW(builder.build(), ContractViolation);
}

TEST(DomainKey, ReverseDomainBasics) {
  EXPECT_EQ(reverseDomain("inf.ethz.ch"), "ch.ethz.inf");
  EXPECT_EQ(reverseDomain("few.vu.nl"), "nl.vu.few");
  EXPECT_EQ(reverseDomain("single"), "single");
  EXPECT_EQ(reverseDomain(""), "");
  EXPECT_EQ(reverseDomain("a.b"), "b.a");
  EXPECT_EQ(reverseDomain("..weird..dots.."), "dots.weird");
}

TEST(DomainKey, SameDomainSharesHighBits) {
  const auto a = domainSequenceId("inf.ethz.ch", 1);
  const auto b = domainSequenceId("inf.ethz.ch", 9999);
  EXPECT_EQ(a >> 24, b >> 24);
  EXPECT_NE(a, b);
}

TEST(DomainKey, RandomBitsMasked) {
  // Only 24 low bits of `random` are used; overflow must not leak into
  // the domain prefix.
  const auto a = domainSequenceId("vu.nl", 0xFF000001);
  const auto b = domainSequenceId("vu.nl", 0x00000001);
  EXPECT_EQ(a, b);
}

TEST(DomainKey, OrdersByCountryThenOrganisation) {
  // Reversed: "ch.eth..." < "nl.vu...". Numeric order must match.
  const auto zurich = domainSequenceId("inf.ethz.ch", 500);
  const auto amsterdam = domainSequenceId("few.vu.nl", 500);
  EXPECT_LT(zurich, amsterdam);
  // Same country, different org: ethz < uzh (lexicographic).
  const auto ethz = domainSequenceId("ethz.ch", 0);
  const auto uzh = domainSequenceId("uzh.ch", 0);
  EXPECT_LT(ethz, uzh);
}

TEST(DomainKey, PrefixRoundTrip) {
  const auto id = domainSequenceId("vu.nl", 7);
  EXPECT_EQ(domainPrefixOf(id), "nl.vu");  // 5 chars + zero padding
  const auto shortId = domainSequenceId("x", 7);
  EXPECT_EQ(domainPrefixOf(shortId), "x");
}

TEST(DomainKey, ClusteringOnTheRing) {
  // 3 domains x 20 nodes: sorting by sequence id must group domains
  // contiguously (the §8 domain-ring property).
  const std::array<std::string, 3> domains{"ethz.ch", "vu.nl",
                                           "berkeley.edu"};
  std::vector<std::pair<SequenceId, std::string>> nodes;
  Rng rng(5);
  for (const auto& domain : domains)
    for (int i = 0; i < 20; ++i)
      nodes.emplace_back(
          domainSequenceId(domain, static_cast<std::uint16_t>(rng())),
          domain);
  std::sort(nodes.begin(), nodes.end());
  // Count domain changes along the sorted order: perfect grouping gives 2.
  int changes = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i)
    changes += nodes[i].second != nodes[i - 1].second;
  EXPECT_EQ(changes, 2);
}

}  // namespace
}  // namespace vs07::gossip
