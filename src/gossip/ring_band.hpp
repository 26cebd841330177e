// Ring-order band selection — VICINITY's one keyed primitive.
//
// A VICINITY view is a band around its owner on the id ring: the nearest
// successors and the nearest predecessors. Every band the protocol forms
// (the offer to a partner, the merged view, Vicinity::ringBand) ranks its
// candidates on one strict key around an anchor: (clockwise distance from
// the anchor, node id). The smallest keys are the nearest successors, the
// largest the nearest predecessors; node ids break equal-profile ties, so
// over duplicate-free candidates the order is total.
//
// Candidates carry no ring position: every call reads each candidate's
// profile once from a per-node table (VICINITY's profile table) into a
// key buffer. RingBand then keeps the k smallest and the m largest keys by
// bounded insertion, one scan per side over those keys. That yields
// exactly the entries, in exactly the order, that a full sort on the key
// puts at its two ends, at O(n·(k+m)) worst case with n, k and m the tens
// a view holds, and without moving the candidates themselves.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "net/message.hpp"
#include "net/node_id.hpp"

namespace vs07::gossip {

using net::PeerDescriptor;

/// A candidate's rank around an anchor.
struct RingKey {
  /// Clockwise distance from the anchor to the candidate's profile.
  std::uint64_t distance = 0;
  NodeId node = kNoNode;
  /// The candidate's index in the span RingBand::select read.
  std::uint32_t slot = 0;

  friend bool operator<(const RingKey& a, const RingKey& b) noexcept {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.node < b.node;
  }
};

/// Bounded selection of an anchor's nearest successors and predecessors.
/// The buffers grow only when a call asks for more than any earlier one,
/// so a reused RingBand settles and then allocates nothing.
class RingBand {
 public:
  RingBand() = default;
  /// Pre-sizes the buffers for up to `succCapacity` successors and
  /// `predCapacity` predecessors.
  RingBand(std::size_t succCapacity, std::size_t predCapacity)
      : succ_(succCapacity), pred_(predCapacity) {}

  /// Ranks `candidates` around `anchor`, each at `profiles[node]`, and
  /// keeps the `succCount` smallest and the `predCount` largest keys. Node
  /// ids must be distinct and index `profiles`. The two sides overlap when
  /// the span holds fewer than succCount + predCount candidates. `viewed`
  /// counts the leading candidates taken from a view in band order; it
  /// steers the scan, never the result.
  void select(SequenceId anchor, std::span<const PeerDescriptor> candidates,
              std::span<const SequenceId> profiles, std::size_t succCount,
              std::size_t predCount, std::size_t viewed) {
    if (succ_.size() < succCount) succ_.resize(succCount);
    if (pred_.size() < predCount) pred_.resize(predCount);
    const std::size_t n = candidates.size();
    if (keys_.size() < n) keys_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId node = candidates[i].node;
      VS07_EXPECT(node < profiles.size());
      keys_[i] = {clockwiseDistance(anchor, profiles[node]), node,
                  static_cast<std::uint32_t>(i)};
    }
    succSize_ = 0;
    predSize_ = 0;
    viewed = std::min(viewed, n);
    // A view in band order ascends by key around its owner: its
    // successors, then its predecessors farthest first. The successor side
    // scans forwards; the predecessor side reads the viewed part backwards
    // and then the rest. Around (or near) the view's owner each side so
    // meets the view's nearest entries first and appends them without
    // shifting.
    const auto succNearer = [](const RingKey& a, const RingKey& b) {
      return a < b;
    };
    const auto predNearer = [](const RingKey& a, const RingKey& b) {
      return b < a;
    };
    const RingKey* keys = keys_.data();
    for (std::size_t i = 0; i < n; ++i)
      keepNearest(succ_.data(), succSize_, succCount, keys[i], succNearer);
    for (std::size_t i = viewed; i-- > 0;)
      keepNearest(pred_.data(), predSize_, predCount, keys[i], predNearer);
    for (std::size_t i = viewed; i < n; ++i)
      keepNearest(pred_.data(), predSize_, predCount, keys[i], predNearer);
  }

  /// Kept successors, nearest first (ascending key).
  std::span<const RingKey> successors() const noexcept {
    return {succ_.data(), succSize_};
  }
  /// Kept predecessors, nearest first (descending key).
  std::span<const RingKey> predecessors() const noexcept {
    return {pred_.data(), predSize_};
  }

 private:
  /// Bounded insertion into `buf`, ordered nearest first by `nearer`: a
  /// key enters while the buffer has room or when it is nearer than the
  /// last kept one, and shifts into place.
  template <class Nearer>
  static void keepNearest(RingKey* buf, std::size_t& size, std::size_t cap,
                          const RingKey& key, Nearer nearer) noexcept {
    std::size_t i = size;
    if (size < cap)
      ++size;
    else if (cap != 0 && nearer(key, buf[cap - 1]))
      i = cap - 1;
    else
      return;
    for (; i > 0 && nearer(key, buf[i - 1]); --i) buf[i] = buf[i - 1];
    buf[i] = key;
  }

  /// Every candidate's key, in span order (the scans' input).
  std::vector<RingKey> keys_;
  std::vector<RingKey> succ_;
  std::vector<RingKey> pred_;
  std::size_t succSize_ = 0;
  std::size_t predSize_ = 0;
};

/// VICINITY's balanced band of `pool` around `anchor`, handed to `emit`
/// entry by entry: the pool as it stands when it holds at most `budget`
/// entries, else its ⌈budget/2⌉ nearest successors followed by its
/// ⌊budget/2⌋ nearest predecessors, each side in ascending key order (the
/// order a full sort on the key gives). This is the paper's §6 view
/// content — "peers with gradually higher and lower sequence IDs" — and,
/// unlike a symmetric nearest-k selection, it keeps both ring directions
/// represented even when sequence ids cluster (the §8 domain-sorted ring,
/// where a node's whole cluster is nearer than its true cross-cluster
/// successor). Node ids in `pool` must be distinct and index `profiles`;
/// `viewed` is passed on to RingBand::select.
template <class Emit>
void emitRingBand(SequenceId anchor, std::span<const PeerDescriptor> pool,
                  std::span<const SequenceId> profiles, std::size_t viewed,
                  std::size_t budget, RingBand& band, Emit&& emit) {
  if (pool.size() <= budget) {
    for (const auto& entry : pool) emit(entry);
    return;
  }
  const std::size_t succCount = (budget + 1) / 2;
  band.select(anchor, pool, profiles, succCount, budget - succCount, viewed);
  for (const RingKey& key : band.successors()) emit(pool[key.slot]);
  const auto pred = band.predecessors();
  for (auto it = pred.rbegin(); it != pred.rend(); ++it) emit(pool[it->slot]);
}

/// A node's bit in a 64-bit filter over pooled entries: OR it in for every
/// node pooled, and a clear bit proves a node absent.
constexpr std::uint64_t nodeBit(NodeId node) noexcept {
  return std::uint64_t{1} << (node & 63);
}

/// Appends `entry` to `pool` unless `pool[0, checkedEnd)` already holds its
/// node, in which case the fresher (lower age) of the two stays, in the
/// existing entry's position; returns whether it appended. `checkedBits`
/// ORs nodeBit over `pool[0, checkedEnd)`, so most absent nodes skip the
/// scan. Check only where duplicates can occur: a View is duplicate-free,
/// so entries appended from one view need no check, and entries from a
/// second source need one against what came before them.
inline bool poolAdmit(std::vector<PeerDescriptor>& pool,
                      std::size_t checkedEnd, std::uint64_t checkedBits,
                      const PeerDescriptor& entry) {
  if (checkedBits & nodeBit(entry.node)) {
    for (std::size_t i = 0; i < checkedEnd; ++i) {
      if (pool[i].node == entry.node) {
        if (entry.age < pool[i].age) pool[i] = entry;
        return false;
      }
    }
  }
  pool.push_back(entry);
  return true;
}

}  // namespace vs07::gossip
