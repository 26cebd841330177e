// Replicated content placement over frozen overlays — what searches
// look for.
//
// Ferretti's search evaluation ("Searching in Unstructured Overlays
// Using Local Knowledge and Gossip") places a catalogue of items over
// the population, each replicated on a handful of random nodes, and
// measures how reliably TTL-limited queries locate a copy as the
// replication factor varies. ContentPlacement reproduces that setup on
// top of a cast::OverlaySnapshot: items land only on alive nodes, the
// assignment is deterministic in one seed, and both directions of the
// relation (item -> holders, node -> items) are queryable in O(log)
// from compact CSR arrays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cast/snapshot.hpp"
#include "common/expect.hpp"
#include "net/node_id.hpp"

namespace vs07::search {

/// Item ids are dense: [0, items).
using ItemId = std::uint32_t;

/// Immutable item -> holders assignment (see file comment).
class ContentPlacement {
 public:
  /// Replicates each of `items` items on min(`replication`, alive)
  /// distinct alive nodes of `overlay`, uniformly at random,
  /// deterministically in `seed`. Requires at least one alive node when
  /// items > 0.
  ContentPlacement(const cast::OverlaySnapshot& overlay, std::uint32_t items,
                   std::uint32_t replication, std::uint64_t seed);

  std::uint32_t items() const noexcept { return items_; }
  std::uint32_t replication() const noexcept { return replication_; }

  /// The nodes holding `item`, ascending by id.
  std::span<const NodeId> holders(ItemId item) const {
    VS07_EXPECT(item < items_);
    return {holderData_.data() + holderOffsets_[item],
            holderOffsets_[item + 1] - holderOffsets_[item]};
  }

  /// The items held by `node`, ascending by id (empty for non-holders
  /// and for ids outside the placement's population).
  std::span<const ItemId> itemsHeldBy(NodeId node) const {
    if (std::size_t{node} + 1 >= itemOffsets_.size()) return {};
    return {itemData_.data() + itemOffsets_[node],
            itemOffsets_[node + 1] - itemOffsets_[node]};
  }

  /// Whether `node` holds a copy of `item` (binary search over the
  /// node's item list).
  bool holds(NodeId node, ItemId item) const {
    const auto held = itemsHeldBy(node);
    return std::binary_search(held.begin(), held.end(), item);
  }

 private:
  std::uint32_t items_ = 0;
  std::uint32_t replication_ = 0;
  // CSR item -> holders, holders ascending within an item.
  std::vector<std::uint32_t> holderOffsets_;
  std::vector<NodeId> holderData_;
  // CSR node -> items, items ascending within a node.
  std::vector<std::uint32_t> itemOffsets_;
  std::vector<ItemId> itemData_;
};

}  // namespace vs07::search
