// IdSet — a flat set of 64-bit ids.
//
// Open addressing with linear probing over a power-of-two table kept at
// load <= 1/2, hashed with mix64; erase shifts the rest of the probe run
// back (no tombstones), so lookups stay short however many ids churn
// through. Slot value 0 marks an empty slot, and id 0 itself is held in a
// flag beside the table: every 64-bit value, 0 and ~0 included, is a
// valid key, because ids can come off the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace vs07 {

class IdSet {
 public:
  bool contains(std::uint64_t id) const noexcept {
    if (id == 0) return hasZero_;
    if (table_.empty()) return false;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      if (table_[i] == id) return true;
      if (table_[i] == 0) return false;
    }
  }

  /// Adds `id` (a no-op when present).
  void insert(std::uint64_t id) {
    if (id == 0) {
      hasZero_ = true;
      return;
    }
    if (2 * (used_ + 1) > table_.size()) grow();
    std::size_t i = home(id);
    for (; table_[i] != 0; i = (i + 1) & mask())
      if (table_[i] == id) return;
    table_[i] = id;
    ++used_;
  }

  /// Removes `id` (a no-op when absent).
  void erase(std::uint64_t id) noexcept {
    if (id == 0) {
      hasZero_ = false;
      return;
    }
    if (table_.empty()) return;
    std::size_t hole = home(id);
    for (; table_[hole] != id; hole = (hole + 1) & mask())
      if (table_[hole] == 0) return;
    // Backward shift: pull later members of the probe run into the hole
    // whenever their home does not lie between the hole and themselves.
    for (std::size_t j = (hole + 1) & mask(); table_[j] != 0;
         j = (j + 1) & mask()) {
      const std::size_t distFromHome = (j - home(table_[j])) & mask();
      const std::size_t distFromHole = (j - hole) & mask();
      if (distFromHome >= distFromHole) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = 0;
    --used_;
  }

  /// Forgets every id and releases the table.
  void clear() noexcept {
    std::vector<std::uint64_t>().swap(table_);
    used_ = 0;
    hasZero_ = false;
  }

 private:
  std::size_t mask() const noexcept { return table_.size() - 1; }
  std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(mix64(id)) & mask();
  }

  void grow() {
    std::vector<std::uint64_t> old(table_.empty() ? 8 : 2 * table_.size());
    old.swap(table_);
    for (const std::uint64_t id : old) {
      if (id == 0) continue;
      std::size_t i = home(id);
      while (table_[i] != 0) i = (i + 1) & mask();
      table_[i] = id;
    }
  }

  /// Nonzero ids; 0 = empty slot.
  std::vector<std::uint64_t> table_;
  std::size_t used_ = 0;
  bool hasZero_ = false;
};

}  // namespace vs07
