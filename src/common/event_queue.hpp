// Deterministic discrete-event scheduler — the one priority structure
// behind simulated time.
//
// Events are keyed on (dueTick, priority, seq): due tick first, then an
// ordering class within the tick (the simulation engine uses delivery <
// timer < control), then a monotonically increasing sequence number that
// makes ties FIFO. Because the key is a pure function of the schedule
// calls — never of wall-clock, addresses, or container internals — two
// identically seeded simulations replay the exact same event order,
// which is what every determinism suite in this repo leans on.
//
// Used by sim::Engine as the simulation core: node timers, message
// deliveries and cycle-boundary controls all share this one queue. The
// parallel engine (sim::ShardedEngine) replaces the single global queue
// with one ShardDeliveryQueue per shard plus a horizon query — see below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/expect.hpp"

namespace vs07 {

/// Deterministic (dueTick, priority, seq)-ordered event queue. Executing
/// an event may schedule further events (re-entrancy is the normal case:
/// a delivered message triggers forwards); see advanceTo for how those
/// are ordered.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at (dueTick, priority); ties with already
  /// scheduled events break FIFO. Returns the sequence number assigned.
  std::uint64_t schedule(std::uint64_t dueTick, std::uint8_t priority,
                         Action action);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// The current simulated tick: the largest tick ever advanced to.
  std::uint64_t now() const noexcept { return now_; }

  /// Due tick of the earliest pending event. Requires !empty().
  std::uint64_t nextDueTick() const;

  /// Advances now() to `tick` and executes every event with
  /// dueTick <= tick in (dueTick, priority, seq) order. Events scheduled
  /// *during* execution join the same ordering: one due at or before
  /// `tick` still runs in this call, after the already pending events of
  /// its (dueTick, priority) class.
  void advanceTo(std::uint64_t tick);

 private:
  struct Event {
    std::uint64_t dueTick;
    std::uint8_t priority;
    std::uint64_t seq;
    Action action;
  };
  /// Min-heap order on (dueTick, priority, seq).
  struct After {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.dueTick != b.dueTick) return a.dueTick > b.dueTick;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, After> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

/// Shard-local due-tick queue for the windowed parallel engine
/// (sim::ShardedEngine): a min-heap keyed on dueTick alone. Each shard
/// stores the in-flight messages addressed to its own nodes here; the
/// coordinator's safe horizon for the next execution window is
/// min over shards of nextDueTickOr(...) combined with the next timer
/// tick, plus the model lookahead. Within one tick the caller re-sorts
/// the popped items into its canonical (to, from, seq) delivery order,
/// so heap tie-breaking never leaks into results. The backing vector
/// keeps its capacity across pops — steady-state traffic allocates
/// nothing once the high-water mark is reached.
template <typename Item>
class ShardDeliveryQueue {
 public:
  void push(std::uint64_t dueTick, Item item) {
    heap_.push_back(Entry{dueTick, std::move(item)});
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Pre-sizes the backing vector (slack over the in-flight record, so
  /// a new record reached mid-window doesn't reallocate mid-cycle).
  void reserve(std::size_t n) { heap_.reserve(n); }
  std::size_t capacity() const noexcept { return heap_.capacity(); }

  /// Due tick of the earliest pending item, or `fallback` when empty —
  /// the horizon query the coordinator runs between barriers.
  std::uint64_t nextDueTickOr(std::uint64_t fallback) const noexcept {
    return heap_.empty() ? fallback : heap_.front().dueTick;
  }

  /// Pops every item with dueTick <= tick, appending to `out` in
  /// unspecified order (callers sort into their canonical order).
  void popDueInto(std::uint64_t tick, std::vector<Item>& out) {
    while (!heap_.empty() && heap_.front().dueTick <= tick) {
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      out.push_back(std::move(heap_.back().item));
      heap_.pop_back();
    }
  }

 private:
  struct Entry {
    std::uint64_t dueTick;
    Item item;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.dueTick > b.dueTick;
    }
  };
  std::vector<Entry> heap_;
};

}  // namespace vs07
