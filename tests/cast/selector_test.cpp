#include "cast/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "cast/snapshot.hpp"

namespace vs07::cast {
namespace {

/// Hand-built snapshot: node 0 with r-links {1..6} and d-links {7, 8};
/// nodes 1..8 linkless; all alive.
OverlaySnapshot makeSnapshot() {
  std::vector<OverlaySnapshot::NodeLinks> links(9);
  links[0].rlinks = {1, 2, 3, 4, 5, 6};
  links[0].dlinks = {7, 8};
  return {std::move(links), std::vector<std::uint8_t>(9, 1)};
}

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

bool allDistinct(const std::vector<NodeId>& v) {
  return std::set<NodeId>(v.begin(), v.end()).size() == v.size();
}

TEST(RandCastSelector, PicksExactlyFanoutDistinctRlinks) {
  const auto overlay = makeSnapshot();
  RandCastSelector selector;
  Rng rng(1);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 100; ++trial) {
    selector.selectTargets(overlay, 0, kNoNode, 3, rng, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(allDistinct(out));
    for (const NodeId t : out) {
      EXPECT_GE(t, 1u);
      EXPECT_LE(t, 6u);  // never a d-link
    }
  }
}

TEST(RandCastSelector, ExcludesSender) {
  const auto overlay = makeSnapshot();
  RandCastSelector selector;
  Rng rng(2);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 200; ++trial) {
    selector.selectTargets(overlay, 0, /*receivedFrom=*/3, 5, rng, out);
    EXPECT_FALSE(contains(out, 3));
  }
}

TEST(RandCastSelector, FanoutLargerThanViewTakesAll) {
  const auto overlay = makeSnapshot();
  RandCastSelector selector;
  Rng rng(3);
  std::vector<NodeId> out;
  selector.selectTargets(overlay, 0, kNoNode, 50, rng, out);
  EXPECT_EQ(out.size(), 6u);
  selector.selectTargets(overlay, 0, /*receivedFrom=*/1, 50, rng, out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(RandCastSelector, UniformOverRlinks) {
  const auto overlay = makeSnapshot();
  RandCastSelector selector;
  Rng rng(4);
  std::vector<NodeId> out;
  std::map<NodeId, int> hits;
  constexpr int kTrials = 12'000;
  for (int trial = 0; trial < kTrials; ++trial) {
    selector.selectTargets(overlay, 0, kNoNode, 2, rng, out);
    for (const NodeId t : out) ++hits[t];
  }
  for (NodeId id = 1; id <= 6; ++id) {
    EXPECT_GT(hits[id], kTrials * 2 / 6 * 0.9) << "node " << id;
    EXPECT_LT(hits[id], kTrials * 2 / 6 * 1.1) << "node " << id;
  }
}

TEST(RingCastSelector, AlwaysIncludesBothRingNeighbors) {
  const auto overlay = makeSnapshot();
  RingCastSelector selector;
  Rng rng(5);
  std::vector<NodeId> out;
  for (std::uint32_t fanout = 2; fanout <= 6; ++fanout) {
    selector.selectTargets(overlay, 0, kNoNode, fanout, rng, out);
    EXPECT_TRUE(contains(out, 7));
    EXPECT_TRUE(contains(out, 8));
    EXPECT_EQ(out.size(), fanout);
    EXPECT_TRUE(allDistinct(out));
  }
}

TEST(RingCastSelector, FanoutOneStillSendsToBothNeighbors) {
  // Fig. 5: the deterministic component is unconditional; with F=1 the
  // target list is the two ring neighbours and nothing else.
  const auto overlay = makeSnapshot();
  RingCastSelector selector;
  Rng rng(6);
  std::vector<NodeId> out;
  selector.selectTargets(overlay, 0, kNoNode, 1, rng, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(contains(out, 7));
  EXPECT_TRUE(contains(out, 8));
}

TEST(RingCastSelector, MessageFromRingNeighborGoesToOtherNeighbor) {
  const auto overlay = makeSnapshot();
  RingCastSelector selector;
  Rng rng(7);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 50; ++trial) {
    selector.selectTargets(overlay, 0, /*receivedFrom=*/7, 3, rng, out);
    EXPECT_FALSE(contains(out, 7));
    EXPECT_TRUE(contains(out, 8));
    // F-1 random r-links fill the remainder.
    EXPECT_EQ(out.size(), 3u);
  }
}

TEST(RingCastSelector, RandomFillNeverDuplicatesDlinks) {
  // d-links that also appear among r-links must not be picked twice.
  std::vector<OverlaySnapshot::NodeLinks> links(5);
  links[0].rlinks = {1, 2, 3};
  links[0].dlinks = {1, 2};  // overlap with r-links
  OverlaySnapshot overlay{std::move(links), std::vector<std::uint8_t>(5, 1)};
  RingCastSelector selector;
  Rng rng(8);
  std::vector<NodeId> out;
  for (int trial = 0; trial < 100; ++trial) {
    selector.selectTargets(overlay, 0, kNoNode, 4, rng, out);
    EXPECT_TRUE(allDistinct(out));
    EXPECT_EQ(out.size(), 3u);  // {1,2} as d-links + only 3 as r-link
  }
}

TEST(RingCastSelector, SingleDlinkWhenNeighborsCoincide) {
  // Two-node ring: successor == predecessor; the snapshot stores it once.
  std::vector<OverlaySnapshot::NodeLinks> links(2);
  links[0].dlinks = {1};
  OverlaySnapshot overlay{std::move(links), std::vector<std::uint8_t>(2, 1)};
  RingCastSelector selector;
  Rng rng(9);
  std::vector<NodeId> out;
  selector.selectTargets(overlay, 0, kNoNode, 2, rng, out);
  EXPECT_EQ(out, std::vector<NodeId>{1});
}

TEST(FloodSelector, ForwardsAcrossEverythingExceptSender) {
  const auto overlay = makeSnapshot();
  FloodSelector selector;
  Rng rng(10);
  std::vector<NodeId> out;
  selector.selectTargets(overlay, 0, /*receivedFrom=*/4, 1, rng, out);
  // All 6 r-links + 2 d-links minus the sender = 7.
  EXPECT_EQ(out.size(), 7u);
  EXPECT_FALSE(contains(out, 4));
  EXPECT_TRUE(allDistinct(out));
}

TEST(FloodSelector, DedupsOverlappingLinkSets) {
  std::vector<OverlaySnapshot::NodeLinks> links(4);
  links[0].rlinks = {1, 2};
  links[0].dlinks = {2, 3};
  OverlaySnapshot overlay{std::move(links), std::vector<std::uint8_t>(4, 1)};
  FloodSelector selector;
  Rng rng(11);
  std::vector<NodeId> out;
  selector.selectTargets(overlay, 0, kNoNode, 1, rng, out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(allDistinct(out));
}

TEST(Selectors, NamesAreStable) {
  EXPECT_EQ(RandCastSelector{}.name(), "RandCast");
  EXPECT_EQ(RingCastSelector{}.name(), "RingCast");
  EXPECT_EQ(FloodSelector{}.name(), "Flood");
  EXPECT_EQ(MultiRingCastSelector{}.name(), "MultiRingCast");
}

TEST(Selectors, EmptyLinksYieldNoTargets) {
  std::vector<OverlaySnapshot::NodeLinks> links(1);
  OverlaySnapshot overlay{std::move(links), std::vector<std::uint8_t>(1, 1)};
  Rng rng(12);
  std::vector<NodeId> out{99};  // must be cleared
  RingCastSelector ring;
  ring.selectTargets(overlay, 0, kNoNode, 5, rng, out);
  EXPECT_TRUE(out.empty());
  RandCastSelector rand;
  out = {99};
  rand.selectTargets(overlay, 0, kNoNode, 5, rng, out);
  EXPECT_TRUE(out.empty());
}

/// The copy-and-shuffle top-up that appendRandomTargets replaced, kept
/// verbatim as the oracle for its output and its rng consumption.
void referenceAppendRandomTargets(std::span<const NodeId> pool, NodeId self,
                                  NodeId exclude, std::size_t want, Rng& rng,
                                  std::vector<NodeId>& out) {
  if (want == 0) return;
  std::vector<NodeId> eligible;
  for (const NodeId candidate : pool) {
    if (candidate == exclude || candidate == self) continue;
    if (contains(out, candidate)) continue;
    eligible.push_back(candidate);
  }
  const std::size_t take = std::min(want, eligible.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.below(eligible.size() - i);
    std::swap(eligible[i], eligible[j]);
    out.push_back(eligible[i]);
  }
}

TEST(AppendRandomTargets, MatchesTheCopyAndShuffleReference) {
  Rng gen(2024);
  std::size_t widePools = 0;
  std::size_t starved = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    // Pools up to 80 entries drawn from a small id range, so entries
    // repeat and self, the sender and chosen targets all land in them.
    const std::size_t poolSize = gen.below(81);
    const NodeId range = static_cast<NodeId>(1 + gen.below(poolSize + 4));
    const auto draw = [&] {
      return gen.chance(0.05) ? kNoNode
                              : static_cast<NodeId>(gen.below(range));
    };
    std::vector<NodeId> pool(poolSize);
    for (NodeId& entry : pool) entry = draw();
    const NodeId self = draw();
    const NodeId exclude = draw();
    std::vector<NodeId> chosen(gen.below(4));
    for (NodeId& entry : chosen) entry = draw();
    const std::size_t want = gen.below(poolSize + 3);
    const std::uint64_t seed = gen();

    Rng referenceRng(seed);
    std::vector<NodeId> expected = chosen;
    referenceAppendRandomTargets(pool, self, exclude, want, referenceRng,
                                 expected);

    // Exactly the documented room, so a sanitizer sees any overrun.
    std::vector<NodeId> out(chosen.size() + pool.size());
    std::copy(chosen.begin(), chosen.end(), out.begin());
    Rng rng(seed);
    out.resize(appendRandomTargets(pool, self, exclude, want, rng, out,
                                   chosen.size()));

    ASSERT_EQ(out, expected) << "trial " << trial << " pool " << poolSize
                             << " want " << want;
    for (int next = 0; next < 3; ++next)
      ASSERT_EQ(rng(), referenceRng()) << "trial " << trial;
    widePools += poolSize > 64;
    starved += expected.size() - chosen.size() < want;
  }
  // The sweep covered pools wider than a 64-bit mask and wants past the
  // eligible count.
  EXPECT_GT(widePools, 2'000u);
  EXPECT_GT(starved, 2'000u);
}

}  // namespace
}  // namespace vs07::cast
