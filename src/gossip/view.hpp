// Bounded partial view of the network — the core data structure of both
// CYCLON (random neighbours, r-links) and VICINITY (closest neighbours,
// d-link candidates).
//
// Invariants (checked in mutators):
//   * at most `capacity` entries,
//   * no entry for the owner itself,
//   * no duplicate node ids.
//
// Storage: entries live in a fixed inline buffer for capacities up to
// kInlineCapacity (the paper's view lengths fit), so a population's views
// are one dense block inside the protocol's views_ vector — no per-view
// heap allocation, no pointer chase on the shuffle hot path, and a
// guaranteed no-realloc steady state. An entry is (node, age) in 8 bytes,
// so a 20-entry view takes 184 bytes on a 64-bit target. Larger
// capacities fall back to one heap block sized exactly at construction;
// either way the entry buffer never grows or moves after the View is
// built.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"

namespace vs07::gossip {

using net::PeerDescriptor;

/// Fixed-capacity set of PeerDescriptors owned by one node.
class View {
 public:
  /// Capacities up to this are stored inline (no heap block). Covers the
  /// paper's view lengths (cyc = vic = 20).
  static constexpr std::uint32_t kInlineCapacity = 20;

  View() = default;

  /// Creates an empty view owned by `owner` with the given capacity.
  View(NodeId owner, std::uint32_t capacity) : owner_(owner) {
    VS07_EXPECT(capacity > 0);
    capacity_ = capacity;
    if (capacity_ > kInlineCapacity)
      heap_ = std::make_unique<PeerDescriptor[]>(capacity_);
  }

  View(const View& other) { copyFrom(other); }
  View& operator=(const View& other) {
    if (this != &other) copyFrom(other);
    return *this;
  }
  View(View&&) noexcept = default;
  View& operator=(View&&) noexcept = default;

  NodeId owner() const noexcept { return owner_; }
  std::uint32_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ >= capacity_; }

  /// True when the entries live in the inline buffer (no heap block).
  bool storesInline() const noexcept { return heap_ == nullptr; }

  std::span<const PeerDescriptor> entries() const noexcept {
    return {data(), size_};
  }
  const PeerDescriptor& at(std::size_t i) const {
    VS07_EXPECT(i < size_);
    return data()[i];
  }

  /// Index of the entry for `node`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t indexOf(NodeId node) const noexcept;
  bool contains(NodeId node) const noexcept {
    return indexOf(node) != npos;
  }

  /// Index of the entry with the highest age (CYCLON's exchange partner
  /// choice). Requires non-empty.
  std::size_t oldestIndex() const;

  /// Adds an entry. Requires: not full, not self, not a duplicate.
  void add(const PeerDescriptor& entry);

  /// Removes the entry at `i` (order not preserved — O(1)).
  void removeAt(std::size_t i);

  /// Removes the entry for `node` if present; returns whether it was.
  bool removeNode(NodeId node);

  /// Increments every entry's age by one (start of an active gossip step).
  void incrementAges() noexcept;

  /// Copies of `count` distinct random entries, excluding `exclude`
  /// (pass kNoNode for no exclusion). Returns fewer if the view is small.
  std::vector<PeerDescriptor> randomEntries(std::size_t count, NodeId exclude,
                                            Rng& rng) const;

  /// Allocation-free variant: fills `out` (cleared first; capacity is
  /// reused) with the same sample, consuming `rng` identically to
  /// randomEntries. Protocols pass a context's scratch buffer so a
  /// steady-state exchange never touches the allocator.
  void randomEntriesInto(std::size_t count, NodeId exclude, Rng& rng,
                         std::vector<PeerDescriptor>& out) const;

  /// Removes everything (node death / reset).
  void clear() noexcept { size_ = 0; }

 private:
  const PeerDescriptor* data() const noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }
  PeerDescriptor* data() noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }
  void copyFrom(const View& other);

  NodeId owner_ = kNoNode;
  std::uint32_t capacity_ = 0;
  std::uint32_t size_ = 0;
  std::array<PeerDescriptor, kInlineCapacity> inline_{};
  /// Engaged only when capacity_ > kInlineCapacity; sized exactly.
  std::unique_ptr<PeerDescriptor[]> heap_;
};

}  // namespace vs07::gossip
