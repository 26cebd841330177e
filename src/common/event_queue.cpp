#include "common/event_queue.hpp"

#include <utility>

namespace vs07 {

void EventQueue::schedule(std::uint64_t dueTick, std::uint8_t priority,
                          Action action) {
  VS07_EXPECT(action != nullptr);
  VS07_EXPECT(priority < kPriorityClasses);
  Bucket& bucket = buckets_[bucketFor(dueTick)];
  bucket.classes[priority].actions.push_back(std::move(action));
  ++bucket.pending;
  ++size_;
}

std::uint32_t EventQueue::bucketFor(std::uint64_t dueTick) {
  const auto it = std::lower_bound(
      ticks_.begin(), ticks_.end(), dueTick,
      [](const PendingTick& p, std::uint64_t t) { return p.tick < t; });
  if (it != ticks_.end() && it->tick == dueTick) return it->bucket;
  std::uint32_t index;
  if (!freeBuckets_.empty()) {
    index = freeBuckets_.back();
    freeBuckets_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  ticks_.insert(it, {dueTick, index});
  return index;
}

std::uint64_t EventQueue::nextDueTick() const {
  VS07_EXPECT(!ticks_.empty());
  return ticks_.front().tick;
}

void EventQueue::advanceTo(std::uint64_t tick) {
  if (tick > now_) now_ = tick;
  // One event per iteration, always the global minimum: the earliest
  // pending tick (an action may have scheduled an earlier one), its
  // lowest class with pending actions (an action may have refilled a
  // lower class of its own tick), the oldest action of that class.
  while (!ticks_.empty() && ticks_.front().tick <= tick) {
    const std::uint32_t index = ticks_.front().bucket;
    Bucket& bucket = buckets_[index];
    Fifo* fifo = bucket.classes.data();
    while (fifo->head == fifo->actions.size()) ++fifo;
    // Moved out before it runs: the action may schedule into this very
    // FIFO (reallocating it) or create buckets (reallocating buckets_).
    Action action = std::move(fifo->actions[fifo->head]);
    ++fifo->head;
    --size_;
    if (--bucket.pending == 0) {
      for (Fifo& f : bucket.classes) {
        f.actions.clear();
        f.head = 0;
      }
      freeBuckets_.push_back(index);
      ticks_.erase(ticks_.begin());
    }
    action();
  }
}

}  // namespace vs07
