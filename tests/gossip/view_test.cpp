#include "gossip/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/expect.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"

namespace vs07::gossip {
namespace {

PeerDescriptor entry(NodeId node, std::uint32_t age = 0) {
  return {node, age};
}

TEST(View, StartsEmpty) {
  View v(0, 5);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 5u);
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.owner(), 0u);
}

TEST(View, AddAndLookup) {
  View v(0, 5);
  v.add(entry(1));
  v.add(entry(2));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.contains(1));
  EXPECT_TRUE(v.contains(2));
  EXPECT_FALSE(v.contains(3));
  EXPECT_NE(v.indexOf(1), View::npos);
  EXPECT_EQ(v.indexOf(9), View::npos);
}

TEST(View, RejectsSelfEntry) {
  View v(7, 5);
  EXPECT_THROW(v.add(entry(7)), ContractViolation);
}

TEST(View, RejectsDuplicates) {
  View v(0, 5);
  v.add(entry(1));
  EXPECT_THROW(v.add(entry(1)), ContractViolation);
}

TEST(View, RejectsOverflow) {
  View v(0, 2);
  v.add(entry(1));
  v.add(entry(2));
  EXPECT_TRUE(v.full());
  EXPECT_THROW(v.add(entry(3)), ContractViolation);
}

TEST(View, ZeroCapacityRejected) {
  EXPECT_THROW(View(0, 0), ContractViolation);
}

TEST(View, RemoveAtSwapsWithLast) {
  View v(0, 5);
  v.add(entry(1));
  v.add(entry(2));
  v.add(entry(3));
  v.removeAt(0);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_FALSE(v.contains(1));
  EXPECT_TRUE(v.contains(2));
  EXPECT_TRUE(v.contains(3));
}

TEST(View, RemoveNode) {
  View v(0, 5);
  v.add(entry(1));
  EXPECT_TRUE(v.removeNode(1));
  EXPECT_FALSE(v.removeNode(1));
  EXPECT_TRUE(v.empty());
}

TEST(View, OldestIndexFindsMaxAge) {
  View v(0, 5);
  v.add(entry(1, 3));
  v.add(entry(2, 9));
  v.add(entry(3, 1));
  EXPECT_EQ(v.at(v.oldestIndex()).node, 2u);
}

TEST(View, OldestOnEmptyThrows) {
  View v(0, 5);
  EXPECT_THROW(v.oldestIndex(), ContractViolation);
}

TEST(View, IncrementAges) {
  View v(0, 5);
  v.add(entry(1, 0));
  v.add(entry(2, 7));
  v.incrementAges();
  EXPECT_EQ(v.at(v.indexOf(1)).age, 1u);
  EXPECT_EQ(v.at(v.indexOf(2)).age, 8u);
}

TEST(View, RandomEntriesDistinctAndExcluding) {
  View v(0, 10);
  for (NodeId id = 1; id <= 10; ++id) v.add(entry(id));
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = v.randomEntries(4, /*exclude=*/5, rng);
    ASSERT_EQ(sample.size(), 4u);
    std::set<NodeId> ids;
    for (const auto& e : sample) {
      EXPECT_NE(e.node, 5u);
      ids.insert(e.node);
    }
    EXPECT_EQ(ids.size(), 4u);
  }
}

TEST(View, RandomEntriesWhenAskingForTooMany) {
  View v(0, 5);
  v.add(entry(1));
  v.add(entry(2));
  Rng rng(1);
  const auto sample = v.randomEntries(10, kNoNode, rng);
  EXPECT_EQ(sample.size(), 2u);
}

TEST(View, RandomEntriesUniformCoverage) {
  View v(0, 10);
  for (NodeId id = 1; id <= 10; ++id) v.add(entry(id));
  Rng rng(7);
  std::map<NodeId, int> hits;
  constexpr int kTrials = 10'000;
  for (int trial = 0; trial < kTrials; ++trial)
    for (const auto& e : v.randomEntries(3, kNoNode, rng)) ++hits[e.node];
  // Each of 10 nodes should appear in ~3/10 of trials.
  for (NodeId id = 1; id <= 10; ++id) {
    EXPECT_GT(hits[id], kTrials * 3 / 10 * 0.85) << "node " << id;
    EXPECT_LT(hits[id], kTrials * 3 / 10 * 1.15) << "node " << id;
  }
}

TEST(View, ClearEmptiesView) {
  View v(0, 3);
  v.add(entry(1));
  v.clear();
  EXPECT_TRUE(v.empty());
  v.add(entry(2));  // still usable
  EXPECT_EQ(v.size(), 1u);
}

TEST(View, RandomEntriesIntoMatchesAllocatingPathBitForBit) {
  // The scratch-buffer variant must consume the rng identically and
  // produce the identical sample — it is what keeps the refactored hot
  // path bit-compatible with the paper-model results.
  View v(0, 20);
  for (NodeId id = 1; id <= 17; ++id) v.add(entry(id, id % 5));
  Rng rngOld(123);
  Rng rngNew(123);
  std::vector<PeerDescriptor> scratch;
  for (std::size_t count : {0u, 1u, 7u, 16u, 17u, 30u}) {
    for (const NodeId exclude : {kNoNode, NodeId{4}, NodeId{17}}) {
      const auto allocated = v.randomEntries(count, exclude, rngOld);
      v.randomEntriesInto(count, exclude, rngNew, scratch);
      EXPECT_EQ(allocated, scratch)
          << "count=" << count << " exclude=" << exclude;
      // And the two streams stay in lockstep.
      EXPECT_EQ(rngOld(), rngNew());
    }
  }
}

TEST(View, LayoutIsHalfSizeDescriptorsInline) {
  // A descriptor is (node, age), so a paper-length view's entries take
  // 160 bytes inline, beside three 4-byte fields and the heap pointer.
  static_assert(sizeof(net::PeerDescriptor) == 8);
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(View), 184u);
  }
}

TEST(View, LookupsMatchALinearScanModel) {
  // Random add / removeAt / removeNode / clear / copy sequences against a
  // plain vector searched linearly, in both storage modes. Every self,
  // duplicate or overflowing add must throw and leave the view as it was.
  Rng rng(321);
  constexpr NodeId kIds = 96;
  constexpr NodeId kOwner = 5;
  std::size_t refusedSelf = 0;
  std::size_t refusedDuplicate = 0;
  for (const std::uint32_t capacity : {View::kInlineCapacity,
                                       View::kInlineCapacity + 7}) {
    View v(kOwner, capacity);
    std::vector<PeerDescriptor> model;
    const auto modelIndex = [&model](NodeId node) {
      for (std::size_t i = 0; i < model.size(); ++i)
        if (model[i].node == node) return i;
      return View::npos;
    };
    for (int op = 0; op < 50'000; ++op) {
      const auto node = static_cast<NodeId>(rng.below(kIds));
      switch (rng.below(16)) {
        case 0:
          v.clear();
          model.clear();
          break;
        case 1: {
          const View copy(v);
          v = View(kOwner, capacity);
          v = copy;
          break;
        }
        case 2:
        case 3:
        case 4:
          if (model.empty()) break;
          {
            const std::size_t i = rng.below(model.size());
            v.removeAt(i);
            model[i] = model.back();
            model.pop_back();
          }
          break;
        case 5:
        case 6: {
          const std::size_t i = modelIndex(node);
          ASSERT_EQ(v.removeNode(node), i != View::npos);
          if (i != View::npos) {
            model[i] = model.back();
            model.pop_back();
          }
          break;
        }
        default: {
          const PeerDescriptor e{node, static_cast<std::uint32_t>(op)};
          const bool duplicate = modelIndex(node) != View::npos;
          if (model.size() >= capacity || node == kOwner || duplicate) {
            EXPECT_THROW(v.add(e), ContractViolation);
            refusedSelf += model.size() < capacity && node == kOwner;
            refusedDuplicate += model.size() < capacity && duplicate;
          } else {
            v.add(e);
            model.push_back(e);
          }
        }
      }
      ASSERT_TRUE(std::equal(v.entries().begin(), v.entries().end(),
                             model.begin(), model.end()))
          << "op " << op;
      for (NodeId id = 0; id < kIds; ++id)
        ASSERT_EQ(v.indexOf(id), modelIndex(id)) << "op " << op << " id " << id;
    }
  }
  EXPECT_GT(refusedSelf, 100u);
  EXPECT_GT(refusedDuplicate, 1000u);
}

TEST(View, InlineStorageUpToInlineCapacity) {
  // The paper's view lengths (cyc = vic = 20) must fit the inline buffer:
  // a population's views are then one dense block, no per-view heap.
  EXPECT_TRUE(View(0, 1).storesInline());
  EXPECT_TRUE(View(0, View::kInlineCapacity).storesInline());
  EXPECT_FALSE(View(0, View::kInlineCapacity + 1).storesInline());
  EXPECT_TRUE(View(0, Cyclon::Params{}.viewLength).storesInline());
  EXPECT_TRUE(View(0, Vicinity::Params{}.viewLength).storesInline());
}

TEST(View, InlineViewLifecycleNeverAllocates) {
  AllocScope scope;
  View v(3, View::kInlineCapacity);
  for (NodeId id = 0; id < View::kInlineCapacity; ++id)
    v.add(entry(id == 3 ? 99 : id));
  EXPECT_TRUE(v.full());
  v.incrementAges();
  v.removeAt(v.oldestIndex());
  v.removeNode(7);
  v.clear();
  for (NodeId id = 100; id < 100 + View::kInlineCapacity; ++id) v.add(entry(id));
  EXPECT_EQ(scope.allocations(), 0u)
      << "inline-capacity views must never touch the allocator";
}

TEST(View, HeapFallbackAllocatesOnceAndRetainsCapacity) {
  const std::uint32_t capacity = View::kInlineCapacity + 10;
  View v(0, capacity);
  EXPECT_FALSE(v.storesInline());
  AllocScope scope;
  // Fill, churn, clear, refill: the heap block was sized at construction
  // and never grows or moves.
  for (NodeId id = 1; id <= capacity; ++id) v.add(entry(id));
  EXPECT_TRUE(v.full());
  const auto* stable = v.entries().data();
  v.clear();
  EXPECT_EQ(v.capacity(), capacity);
  for (NodeId id = 200; id < 200 + capacity; ++id) v.add(entry(id));
  EXPECT_EQ(v.entries().data(), stable) << "entry buffer moved";
  EXPECT_EQ(scope.allocations(), 0u);
}

TEST(View, CopyPreservesStorageModeAndContents) {
  View inlineView(0, 5);
  inlineView.add(entry(1, 4));
  inlineView.add(entry(2, 1));
  View inlineCopy(inlineView);
  EXPECT_TRUE(inlineCopy.storesInline());
  ASSERT_EQ(inlineCopy.size(), 2u);
  EXPECT_EQ(inlineCopy.at(0), inlineView.at(0));
  EXPECT_EQ(inlineCopy.at(1), inlineView.at(1));
  inlineCopy.removeNode(1);
  EXPECT_TRUE(inlineView.contains(1)) << "copies must not share storage";

  View heapView(0, View::kInlineCapacity + 5);
  for (NodeId id = 1; id <= 21; ++id) heapView.add(entry(id));
  View heapCopy(heapView);
  EXPECT_FALSE(heapCopy.storesInline());
  ASSERT_EQ(heapCopy.size(), heapView.size());
  for (std::size_t i = 0; i < heapView.size(); ++i)
    EXPECT_EQ(heapCopy.at(i), heapView.at(i));
  heapCopy.removeNode(1);
  EXPECT_TRUE(heapView.contains(1));

  // Assignment across storage modes.
  inlineView = heapView;
  EXPECT_FALSE(inlineView.storesInline());
  EXPECT_EQ(inlineView.size(), heapView.size());

  // Heap-to-heap with mismatched capacities: the target's smaller block
  // must be reallocated, not reused (regression: a stale capacity check
  // once wrote past the old allocation).
  View smallHeap(0, View::kInlineCapacity + 2);
  for (NodeId id = 1; id <= View::kInlineCapacity + 2; ++id)
    smallHeap.add(entry(id));
  View bigHeap(0, View::kInlineCapacity + 30);
  for (NodeId id = 1; id <= View::kInlineCapacity + 30; ++id)
    bigHeap.add(entry(id));
  smallHeap = bigHeap;
  EXPECT_FALSE(smallHeap.storesInline());
  EXPECT_EQ(smallHeap.capacity(), bigHeap.capacity());
  ASSERT_EQ(smallHeap.size(), bigHeap.size());
  for (std::size_t i = 0; i < bigHeap.size(); ++i)
    EXPECT_EQ(smallHeap.at(i), bigHeap.at(i));
  // And the capacity must be usable: fill the copy to the brim.
  while (!smallHeap.full())
    smallHeap.add(entry(static_cast<NodeId>(1000 + smallHeap.size())));
  EXPECT_EQ(smallHeap.size(), View::kInlineCapacity + 30);
  // Shrinking direction (big over small) must right-size too: a later
  // add() beyond the new capacity has to trip the full() contract.
  View donor(0, View::kInlineCapacity + 2);
  donor.add(entry(7));
  bigHeap = donor;
  EXPECT_EQ(bigHeap.capacity(), View::kInlineCapacity + 2);
  EXPECT_EQ(bigHeap.size(), 1u);
  while (!bigHeap.full())
    bigHeap.add(entry(static_cast<NodeId>(2000 + bigHeap.size())));
  EXPECT_EQ(bigHeap.size(), View::kInlineCapacity + 2);
  EXPECT_THROW(bigHeap.add(entry(3000)), ContractViolation);

  heapView = View(9, 3);
  EXPECT_TRUE(heapView.storesInline());
  EXPECT_EQ(heapView.capacity(), 3u);
  EXPECT_EQ(heapView.owner(), 9u);
}

TEST(View, MoveTransfersEntries) {
  View v(0, View::kInlineCapacity + 2);
  for (NodeId id = 1; id <= 10; ++id) v.add(entry(id));
  View moved(std::move(v));
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_TRUE(moved.contains(10));
}

TEST(View, RandomEntriesIntoReusesScratchCapacity) {
  View v(0, 20);
  for (NodeId id = 1; id <= 20; ++id) v.add(entry(id));
  Rng rng(9);
  std::vector<PeerDescriptor> scratch;
  v.randomEntriesInto(8, kNoNode, rng, scratch);
  const auto* data = scratch.data();
  const auto cap = scratch.capacity();
  for (int i = 0; i < 100; ++i) v.randomEntriesInto(8, kNoNode, rng, scratch);
  EXPECT_EQ(scratch.data(), data) << "scratch buffer was reallocated";
  EXPECT_EQ(scratch.capacity(), cap);
}

}  // namespace
}  // namespace vs07::gossip
