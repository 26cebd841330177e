// Oracle tests for VICINITY's keyed ring-order primitive
// (gossip/ring_band.hpp): the pools and bands an exchange forms must equal,
// entry for entry and in order, what the full-sort selection produced
// before it — over random pools with cross-layer duplicates, equal
// profiles, distance 0 and ring wrap-around — and Vicinity::ringBand must
// equal its former sort-based definition on live views. As in VICINITY,
// each node has one profile, drawn into a per-node table that the
// selection and the reference both read.
#include "gossip/ring_band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::gossip {
namespace {

// -- reference: the exchange's former pool and band, kept verbatim --------

void referencePoolInsert(std::vector<PeerDescriptor>& pool,
                         const PeerDescriptor& entry) {
  for (auto& existing : pool) {
    if (existing.node == entry.node) {
      if (entry.age < existing.age) existing = entry;
      return;
    }
  }
  pool.push_back(entry);
}

using Profiles = std::vector<SequenceId>;

bool referenceLess(SequenceId anchor, const Profiles& profiles,
                   const PeerDescriptor& a, const PeerDescriptor& b) {
  const auto da = clockwiseDistance(anchor, profiles.at(a.node));
  const auto db = clockwiseDistance(anchor, profiles.at(b.node));
  if (da != db) return da < db;
  return a.node < b.node;
}

void referenceSelectRingBand(SequenceId anchor, const Profiles& profiles,
                             std::vector<PeerDescriptor>& pool,
                             std::size_t budget) {
  if (pool.size() <= budget) return;
  std::sort(pool.begin(), pool.end(),
            [&](const PeerDescriptor& a, const PeerDescriptor& b) {
              return referenceLess(anchor, profiles, a, b);
            });
  const std::size_t succCount = (budget + 1) / 2;
  const std::size_t predCount = budget - succCount;
  for (std::size_t i = 0; i < predCount; ++i)
    pool[succCount + i] = pool[pool.size() - predCount + i];
  pool.resize(budget);
}

std::vector<NodeId> referenceRingBand(SequenceId self,
                                      const Profiles& profiles,
                                      std::span<const PeerDescriptor> view,
                                      std::uint32_t width) {
  std::vector<PeerDescriptor> sorted(view.begin(), view.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](const PeerDescriptor& a, const PeerDescriptor& b) {
              return referenceLess(self, profiles, a, b);
            });
  std::vector<NodeId> band;
  const std::size_t succ = std::min<std::size_t>(width, sorted.size());
  for (std::size_t i = 0; i < succ; ++i) band.push_back(sorted[i].node);
  for (std::size_t i = 0; i < width && i < sorted.size(); ++i) {
    const NodeId candidate = sorted[sorted.size() - 1 - i].node;
    if (std::find(band.begin(), band.end(), candidate) == band.end())
      band.push_back(candidate);
  }
  return band;
}

// -- random inputs ---------------------------------------------------------

/// Draws profiles that stress the key: a handful of shared values (equal
/// profiles, ties broken by node id), the anchor itself (distance 0),
/// values just either side of the anchor and of the 2^64 wrap, and
/// uniform draws.
class ProfileSource {
 public:
  ProfileSource(Rng& rng, SequenceId anchor) : rng_(rng), anchor_(anchor) {
    for (auto& shared : shared_) shared = rng_();
  }

  SequenceId operator()() {
    switch (rng_.below(6)) {
      case 0:
        return shared_[rng_.below(shared_.size())];
      case 1:
        return anchor_;
      case 2:
        return anchor_ + rng_.below(5) - 2;
      case 3:
        return rng_.below(5) - 2;  // straddles 0 / 2^64 - 1
      default:
        return rng_();
    }
  }

 private:
  Rng& rng_;
  SequenceId anchor_;
  std::array<SequenceId, 4> shared_{};
};

/// Anchors on both sides of the wrap as well as anywhere on the ring.
SequenceId drawAnchor(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return rng.below(3);
    case 1:
      return 0 - 1 - rng.below(3);
    default:
      return rng();
  }
}

/// One profile per node id in [0, ids), as VICINITY's table holds them.
Profiles drawProfiles(ProfileSource& profile, NodeId ids) {
  Profiles profiles(ids);
  for (auto& p : profiles) p = profile();
  return profiles;
}

/// A duplicate-free view, as a View holds it: min(size, idSpace) entries
/// over node ids [idBase, idBase + idSpace), ages 0-7.
std::vector<PeerDescriptor> drawView(Rng& rng, std::size_t size,
                                     NodeId idBase, NodeId idSpace) {
  std::vector<PeerDescriptor> view;
  size = std::min<std::size_t>(size, idSpace);
  while (view.size() < size) {
    const auto node = static_cast<NodeId>(idBase + rng.below(idSpace));
    const bool taken =
        std::any_of(view.begin(), view.end(),
                    [node](const PeerDescriptor& e) { return e.node == node; });
    if (!taken)
      view.push_back({node, static_cast<std::uint32_t>(rng.below(8))});
  }
  return view;
}

/// Budgets from 0 (exchangeLength 1) up to beyond the pool.
std::size_t drawBudget(Rng& rng, std::size_t poolSize) {
  return rng.below(poolSize + 4);
}

std::vector<PeerDescriptor> bandOf(SequenceId anchor,
                                   std::span<const PeerDescriptor> pool,
                                   const Profiles& profiles,
                                   std::size_t viewed, std::size_t budget,
                                   RingBand& band) {
  std::vector<PeerDescriptor> out;
  emitRingBand(anchor, pool, profiles, viewed, budget, band,
               [&out](const PeerDescriptor& e) { out.push_back(e); });
  return out;
}

constexpr int kTrials = 20'000;

// -- the exchange's two pools ----------------------------------------------

TEST(RingBandOracle, OfferPoolAndBandMatchFullSort) {
  Rng rng(1901);
  RingBand band;  // reused: buffers settle as in a protocol instance
  std::array<bool, 65> poolSizes{};
  std::size_t crossDuplicates = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const SequenceId anchor = drawAnchor(rng);
    ProfileSource profile(rng, anchor);
    // Up to 64 candidates split between the layers. A quarter of the
    // trials keep the layers disjoint (every pool size 0-64 occurs); the
    // rest draw both from a small id space, forcing overlap.
    const std::size_t total = rng.below(65);
    const std::size_t ownSize = rng.below(total + 1);
    const bool disjoint = rng.below(4) == 0;
    const auto idSpace = static_cast<NodeId>(
        disjoint ? 64 : std::max(ownSize, total - ownSize) + 1 +
                            rng.below(16));
    const Profiles profiles = drawProfiles(profile, 2 * idSpace);
    const auto own = drawView(rng, ownSize, 0, idSpace);
    const auto random =
        drawView(rng, total - ownSize, disjoint ? idSpace : 0, idSpace);
    // A random-layer duplicate names a node of the proximity part at an
    // age of its own; its position is the node's, from the table.
    for (const auto& e : random)
      crossDuplicates += std::any_of(
          own.begin(), own.end(),
          [&e](const PeerDescriptor& o) { return o.node == e.node; });
    // Mostly the target is no candidate at all.
    const NodeId target = static_cast<NodeId>(rng.below(4 * idSpace));

    std::vector<PeerDescriptor> expected;
    for (const auto& e : own)
      if (e.node != target) referencePoolInsert(expected, e);
    for (const auto& e : random)
      if (e.node != target) referencePoolInsert(expected, e);

    std::vector<PeerDescriptor> pool;
    std::uint64_t ownBits = 0;
    for (const auto& e : own) {
      if (e.node == target) continue;
      pool.push_back(e);
      ownBits |= nodeBit(e.node);
    }
    const std::size_t ownCount = pool.size();
    for (const auto& e : random)
      if (e.node != target) poolAdmit(pool, ownCount, ownBits, e);
    ASSERT_EQ(pool, expected) << "trial " << trial;
    poolSizes[pool.size()] = true;

    const std::size_t budget = drawBudget(rng, pool.size());
    const auto got = bandOf(anchor, pool, profiles, ownCount, budget, band);
    referenceSelectRingBand(anchor, profiles, expected, budget);
    ASSERT_EQ(got, expected) << "trial " << trial << " budget " << budget;
  }
  EXPECT_TRUE(std::all_of(poolSizes.begin(), poolSizes.end(),
                          [](bool seen) { return seen; }));
  EXPECT_GT(crossDuplicates, std::size_t{kTrials});
}

TEST(RingBandOracle, MergePoolAndBandMatchFullSort) {
  Rng rng(1902);
  RingBand band;
  std::size_t repeatedIncoming = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const SequenceId anchor = drawAnchor(rng);
    ProfileSource profile(rng, anchor);
    const auto idSpace = static_cast<NodeId>(4 + rng.below(60));
    const Profiles profiles = drawProfiles(profile, idSpace);
    const auto view = drawView(rng, rng.below(41), 0, idSpace);
    // An offer may name peers of the view at other ages and, malformed,
    // repeat itself.
    std::vector<PeerDescriptor> incoming;
    const std::size_t offered = rng.below(25);
    for (std::size_t i = 0; i < offered; ++i) {
      if (!incoming.empty() && rng.below(5) == 0) {
        auto again = incoming[rng.below(incoming.size())];
        again.age = static_cast<std::uint32_t>(rng.below(8));
        incoming.push_back(again);
        ++repeatedIncoming;
        continue;
      }
      incoming.push_back({static_cast<NodeId>(rng.below(idSpace)),
                          static_cast<std::uint32_t>(rng.below(8))});
    }
    const NodeId self = static_cast<NodeId>(rng.below(idSpace + 1));
    const NodeId banned = static_cast<NodeId>(rng.below(idSpace + 1));
    const auto admitted = [&](const PeerDescriptor& e) {
      return e.node != self && e.node != banned;
    };

    std::vector<PeerDescriptor> expected;
    for (const auto& e : view) referencePoolInsert(expected, e);
    for (const auto& e : incoming)
      if (admitted(e)) referencePoolInsert(expected, e);

    std::vector<PeerDescriptor> pool(view.begin(), view.end());
    std::uint64_t bits = 0;
    for (const auto& e : view) bits |= nodeBit(e.node);
    for (const auto& e : incoming)
      if (admitted(e) && poolAdmit(pool, pool.size(), bits, e))
        bits |= nodeBit(e.node);
    ASSERT_EQ(pool, expected) << "trial " << trial;

    const std::size_t budget = drawBudget(rng, pool.size());
    const auto got = bandOf(anchor, pool, profiles, view.size(), budget, band);
    referenceSelectRingBand(anchor, profiles, expected, budget);
    ASSERT_EQ(got, expected) << "trial " << trial << " budget " << budget;
  }
  EXPECT_GT(repeatedIncoming, std::size_t{kTrials});
}

// -- the selector itself ---------------------------------------------------

TEST(RingBandOracle, SidesAreTheEndsOfTheSortedOrder) {
  // Both sides at any counts, overlapping when the span is short; each
  // side nearest first.
  Rng rng(1903);
  RingBand band;
  for (int trial = 0; trial < kTrials; ++trial) {
    const SequenceId anchor = drawAnchor(rng);
    ProfileSource profile(rng, anchor);
    const Profiles profiles = drawProfiles(profile, 80);
    const auto candidates = drawView(rng, rng.below(65), 0, 80);
    const std::size_t succCount = rng.below(24);
    const std::size_t predCount = rng.below(24);
    // The scan hint may be anything, past the span included.
    const std::size_t viewed = rng.below(candidates.size() + 3);
    band.select(anchor, candidates, profiles, succCount, predCount, viewed);

    std::vector<PeerDescriptor> sorted(candidates);
    std::sort(sorted.begin(), sorted.end(),
              [&](const PeerDescriptor& a, const PeerDescriptor& b) {
                return referenceLess(anchor, profiles, a, b);
              });
    const auto n = sorted.size();
    const auto succ = band.successors();
    const auto pred = band.predecessors();
    ASSERT_EQ(succ.size(), std::min(succCount, n));
    ASSERT_EQ(pred.size(), std::min(predCount, n));
    for (std::size_t i = 0; i < succ.size(); ++i) {
      ASSERT_EQ(succ[i].node, sorted[i].node) << "trial " << trial;
      ASSERT_EQ(candidates[succ[i].slot].node, succ[i].node);
      ASSERT_EQ(succ[i].distance,
                clockwiseDistance(anchor, profiles[sorted[i].node]));
    }
    for (std::size_t i = 0; i < pred.size(); ++i) {
      ASSERT_EQ(pred[i].node, sorted[n - 1 - i].node) << "trial " << trial;
      ASSERT_EQ(candidates[pred[i].slot].node, pred[i].node);
      ASSERT_EQ(pred[i].distance,
                clockwiseDistance(anchor, profiles[sorted[n - 1 - i].node]));
    }
  }
}

TEST(RingBandOracle, TiesGoToTheLowerNodeIdAndDistanceZeroComesFirst) {
  // Three peers share one profile at distance 5; one sits on the anchor.
  const SequenceId anchor = 100;
  Profiles profiles(10);
  profiles[7] = profiles[3] = profiles[9] = 105;
  profiles[4] = 100;
  profiles[8] = 90;
  const std::vector<PeerDescriptor> pool{{7, 0}, {3, 0}, {9, 0}, {4, 0},
                                         {8, 0}};
  RingBand band;
  band.select(anchor, pool, profiles, 4, 1, pool.size());
  std::vector<NodeId> succ;
  for (const auto& key : band.successors()) succ.push_back(key.node);
  EXPECT_EQ(succ, (std::vector<NodeId>{4, 3, 7, 9}));
  ASSERT_EQ(band.predecessors().size(), 1u);
  EXPECT_EQ(band.predecessors()[0].node, 8u);  // 90 wraps: farthest key
}

TEST(RingBandOracle, CandidatesOutsideTheProfileTableAreRefused) {
  // Every key reads the table once, bounds-checked: a node id the table
  // does not cover throws instead of reading past it.
  const Profiles profiles(4, 7);
  const std::vector<PeerDescriptor> pool{{1, 0}, {4, 0}, {2, 0}};
  RingBand band;
  EXPECT_THROW(band.select(0, pool, profiles, 1, 1, pool.size()),
               ContractViolation);
  EXPECT_THROW(bandOf(0, pool, profiles, pool.size(), 1, band),
               ContractViolation);
}

// -- Vicinity::ringBand on live views ---------------------------------------

TEST(RingBandOracle, VicinityRingBandMatchesTheSortDefinition) {
  // Coarse profiles (16 distinct values over 120 nodes) make equal
  // profiles and distance 0 common; widths run past half the view, where
  // the two sides share entries.
  constexpr std::uint32_t kNodes = 120;
  sim::Network network(kNodes, 5);
  sim::MessageRouter router(network);
  net::ImmediateTransport transport(router);
  Cyclon cyclon(network, transport, router, {20, 8}, 6);
  const ProfileFn coarse = [&network](NodeId n) -> SequenceId {
    return network.seqId(n) & (SequenceId{0xF} << 60);
  };
  Vicinity vicinity(network, transport, router, cyclon, {}, 7, coarse);
  sim::Engine engine(network, 8);
  engine.addProtocol(cyclon);
  engine.addProtocol(vicinity);
  sim::bootstrapStar(network, cyclon);
  Profiles profiles(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) profiles[id] = coarse(id);

  std::size_t checked = 0;
  for (int round = 0; round < 4; ++round) {
    engine.run(round == 0 ? 1 : 10);  // sparse views first, then full
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto& view = vicinity.view(id);
      for (std::uint32_t width = 1; width <= 24; ++width) {
        ASSERT_EQ(vicinity.ringBand(id, width),
                  referenceRingBand(profiles[id], profiles, view.entries(),
                                    width))
            << "node " << id << " width " << width;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size_t{4} * kNodes * 24);
}

}  // namespace
}  // namespace vs07::gossip
