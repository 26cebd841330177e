#include "search/content.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace vs07::search {

ContentPlacement::ContentPlacement(const cast::OverlaySnapshot& overlay,
                                   std::uint32_t items,
                                   std::uint32_t replication,
                                   std::uint64_t seed)
    : items_(items), replication_(replication) {
  const auto& alive = overlay.aliveIds();
  VS07_EXPECT((items == 0 || !alive.empty()) &&
              "placing items needs at least one alive node");
  const std::uint32_t copies = static_cast<std::uint32_t>(
      std::min<std::size_t>(replication, alive.size()));

  holderOffsets_.assign(items_ + 1, 0);
  holderData_.reserve(static_cast<std::size_t>(items_) * copies);
  std::vector<NodeId> picked;
  picked.reserve(copies);
  for (ItemId item = 0; item < items_; ++item) {
    // Each item draws from its own derived stream, so a placement is a
    // pure function of (seed, item) — independent of catalogue size
    // changes elsewhere and cheap to reason about in property tests.
    Rng rng(deriveStreamSeed(seed, /*lane=*/0x706C6163ULL /*"plac"*/, item));
    picked.clear();
    // Rejection sampling: copies << alive in every realistic setting, so
    // the expected number of redraws is tiny and the cost stays
    // O(copies^2) instead of O(alive) per item.
    while (picked.size() < copies) {
      const NodeId candidate = alive[rng.below(alive.size())];
      if (std::find(picked.begin(), picked.end(), candidate) == picked.end())
        picked.push_back(candidate);
    }
    std::sort(picked.begin(), picked.end());
    holderOffsets_[item + 1] =
        holderOffsets_[item] + static_cast<std::uint32_t>(picked.size());
    holderData_.insert(holderData_.end(), picked.begin(), picked.end());
  }

  // Invert into node -> items with a counting pass (both CSRs stay
  // ascending: items are appended in id order).
  const std::uint32_t totalIds = overlay.totalIds();
  itemOffsets_.assign(totalIds + 1, 0);
  for (const NodeId holder : holderData_) ++itemOffsets_[holder + 1];
  for (std::uint32_t n = 0; n < totalIds; ++n)
    itemOffsets_[n + 1] += itemOffsets_[n];
  itemData_.resize(holderData_.size());
  std::vector<std::uint32_t> cursor(itemOffsets_.begin(),
                                    itemOffsets_.end() - 1);
  for (ItemId item = 0; item < items_; ++item)
    for (const NodeId holder : holders(item))
      itemData_[cursor[holder]++] = item;
}

}  // namespace vs07::search
