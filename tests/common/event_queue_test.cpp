// Determinism tests for the discrete-event scheduler: (dueTick,
// priority, seq) ordering, tie-breaks, re-entrant scheduling, and
// bit-identical replay.
#include "common/event_queue.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace vs07 {
namespace {

TEST(EventQueue, ExecutesInDueTickOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3, 0, [&] { order.push_back(3); });
  queue.schedule(1, 0, [&] { order.push_back(1); });
  queue.schedule(2, 0, [&] { order.push_back(2); });
  queue.advanceTo(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueue, PriorityBreaksTiesWithinATick) {
  EventQueue queue;
  std::vector<std::string> order;
  queue.schedule(1, 2, [&] { order.push_back("control"); });
  queue.schedule(1, 1, [&] { order.push_back("timer"); });
  queue.schedule(1, 0, [&] { order.push_back("delivery"); });
  queue.advanceTo(1);
  EXPECT_EQ(order,
            (std::vector<std::string>{"delivery", "timer", "control"}));
}

TEST(EventQueue, SeqMakesEqualKeysFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    queue.schedule(4, 1, [&order, i] { order.push_back(i); });
  queue.advanceTo(4);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, OnlyDueEventsRun) {
  EventQueue queue;
  int ran = 0;
  queue.schedule(2, 0, [&] { ++ran; });
  queue.schedule(7, 0, [&] { ++ran; });
  queue.advanceTo(2);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.nextDueTick(), 7u);
}

TEST(EventQueue, ReentrantSchedulingAtCurrentTickRunsInSameAdvance) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1, 1, [&] {
    order.push_back(1);
    // Same tick, delivery priority (0): runs in this advance and jumps
    // ahead of the still pending timer event (priority 1) — within a
    // tick, deliveries always land before timers fire.
    queue.schedule(1, 0, [&] { order.push_back(3); });
  });
  queue.schedule(1, 1, [&] { order.push_back(2); });
  queue.advanceTo(1);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));

  // Same-priority re-entrant events instead queue behind pending ones.
  order.clear();
  queue.schedule(2, 1, [&] {
    order.push_back(1);
    queue.schedule(2, 1, [&] { order.push_back(3); });
  });
  queue.schedule(2, 1, [&] { order.push_back(2); });
  queue.advanceTo(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NullActionRejected) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1, 0, nullptr), ContractViolation);
}

TEST(EventQueue, NextDueTickRequiresPendingEvents) {
  EventQueue queue;
  EXPECT_THROW(queue.nextDueTick(), ContractViolation);
}

TEST(EventQueue, PriorityOutsideTheClassesRejected) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1, EventQueue::kPriorityClasses, [] {}),
               ContractViolation);
  EXPECT_TRUE(queue.empty());
  queue.schedule(1, EventQueue::kPriorityClasses - 1, [] {});
  EXPECT_EQ(queue.size(), 1u);
}

/// The binary-heap queue the per-tick buckets replaced, kept as the
/// reference: a std::priority_queue on the explicit (dueTick, priority,
/// seq) key, popping the global minimum one event at a time.
class ReferenceQueue {
 public:
  void schedule(std::uint64_t dueTick, std::uint8_t priority,
                EventQueue::Action action) {
    heap_.push({dueTick, priority, nextSeq_++, std::move(action)});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::uint64_t now() const { return now_; }
  std::uint64_t nextDueTick() const { return heap_.top().dueTick; }
  void advanceTo(std::uint64_t tick) {
    if (tick > now_) now_ = tick;
    while (!heap_.empty() && heap_.top().dueTick <= tick) {
      Event event = std::move(const_cast<Event&>(heap_.top()));
      heap_.pop();
      event.action();
    }
  }

 private:
  struct Event {
    std::uint64_t dueTick;
    std::uint8_t priority;
    std::uint64_t seq;
    EventQueue::Action action;
  };
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

/// A queue under a scripted workload: every event logs its id when it
/// runs and, by a hash of that id, schedules up to three re-entrant
/// children — into its own class at its own tick, a lower class of its
/// own tick, an earlier tick (possibly already passed), or a later one.
template <typename Queue>
struct Scripted {
  explicit Scripted(std::uint64_t salt) : salt(salt) {}

  void add(std::uint64_t dueTick, std::uint8_t priority, int depth) {
    const std::uint64_t id = nextId++;
    queue.schedule(dueTick, priority, [this, id, dueTick, priority, depth] {
      run(id, dueTick, priority, depth);
    });
  }

  void run(std::uint64_t id, std::uint64_t dueTick, std::uint8_t priority,
           int depth) {
    order.push_back(id);
    if (depth >= 2) return;
    const std::uint64_t plan = mix64(id ^ salt);
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t arg = (plan >> (16 + 8 * k)) & 0xFF;
      switch ((plan >> (4 * k)) & 7) {
        case 0:  // same tick, same class: queues behind it
          add(dueTick, priority, depth + 1);
          break;
        case 1:  // same tick, a lower class: runs next
          if (priority > 0)
            add(dueTick, static_cast<std::uint8_t>(arg % priority),
                depth + 1);
          break;
        case 2:  // an earlier tick, maybe long passed
          add(dueTick - std::min<std::uint64_t>(dueTick, 1 + arg % 4),
              static_cast<std::uint8_t>(arg % 3), depth + 1);
          break;
        case 3:  // a later tick
          add(dueTick + 1 + arg % 6, static_cast<std::uint8_t>(arg % 3),
              depth + 1);
          break;
        default:  // no child
          break;
      }
    }
  }

  std::uint64_t salt;
  Queue queue;
  std::vector<std::uint64_t> order;
  std::uint64_t nextId = 0;
};

/// Per-tick buckets against the heap reference: random schedules (due
/// ticks 0-60, already passed ones included, every class), re-entrant
/// inserts of every kind, advanceTo in random strides (0 included).
/// After every advance both queues have run the same events in the same
/// order and agree on size(), nextDueTick() and now().
TEST(EventQueue, BucketsMatchTheHeapReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scripted<EventQueue> buckets(seed);
    Scripted<ReferenceQueue> heap(seed);
    Rng rng(seed);
    const auto schedule = [&](std::uint64_t due, std::uint8_t priority) {
      buckets.add(due, priority, 0);
      heap.add(due, priority, 0);
    };
    for (int i = 0; i < 200; ++i)
      schedule(rng.below(61), static_cast<std::uint8_t>(rng.below(3)));
    for (int step = 0; step < 40; ++step) {
      // A few fresh events between advances, due anywhere from a few
      // ticks in the past to well past the schedule.
      const std::uint64_t now = heap.queue.now();
      for (std::uint64_t i = rng.below(4); i > 0; --i) {
        const std::uint64_t due = now - std::min<std::uint64_t>(
                                            now, rng.below(5)) +
                                  rng.below(20);
        schedule(due, static_cast<std::uint8_t>(rng.below(3)));
      }
      const std::uint64_t to = now + rng.below(6);
      buckets.queue.advanceTo(to);
      heap.queue.advanceTo(to);
      ASSERT_EQ(buckets.order, heap.order) << "seed " << seed;
      ASSERT_EQ(buckets.queue.size(), heap.queue.size());
      ASSERT_EQ(buckets.queue.now(), heap.queue.now());
      ASSERT_EQ(buckets.queue.empty(), heap.queue.empty());
      if (!heap.queue.empty()) {
        ASSERT_EQ(buckets.queue.nextDueTick(), heap.queue.nextDueTick());
      }
    }
    while (!heap.queue.empty()) {
      const std::uint64_t to = heap.queue.nextDueTick();
      buckets.queue.advanceTo(to);
      heap.queue.advanceTo(to);
    }
    EXPECT_TRUE(buckets.queue.empty());
    EXPECT_EQ(buckets.order, heap.order) << "seed " << seed;
    EXPECT_GT(heap.order.size(), 300u);  // the children did run
  }
}

/// Replay determinism: a randomised schedule (random due ticks and
/// priorities, re-entrant inserts) executes in exactly the same order
/// every time — the property every simulation suite builds on.
TEST(EventQueue, RandomisedScheduleReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue queue;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const auto due = rng.below(50);
      const auto priority = static_cast<std::uint8_t>(rng.below(3));
      queue.schedule(due, priority, [&order, &queue, &rng, i] {
        order.push_back(i);
        if (order.size() % 7 == 0)  // occasional re-entrant insert
          queue.schedule(queue.now() + rng.below(5), 0,
                         [&order, i] { order.push_back(1000 + i); });
      });
    }
    // Re-entrant tails due at or before the advanced tick run in the
    // same call; later ones are picked up by the next iteration.
    while (!queue.empty()) queue.advanceTo(queue.nextDueTick());
    return order;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed: almost surely a different order
}

}  // namespace
}  // namespace vs07
