// MessagePool mechanics plus the end-to-end recycling invariants the
// flattened hot path relies on: slot reuse, buffer capacity retention
// across check-in/release cycles, leak-freedom (inUse returns to zero)
// under churned simulations with queued transports, and the zero
// steady-state allocation property of gossip cycles.
#include "net/message_pool.hpp"

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"

namespace vs07::net {
namespace {

Message gossipMessage(NodeId from, std::size_t entries) {
  Message m;
  m.kind = MessageKind::CyclonRequest;
  m.from = from;
  for (std::size_t i = 0; i < entries; ++i)
    m.entries.push_back({static_cast<NodeId>(i + 1),
                         static_cast<std::uint32_t>(i)});
  return m;
}

TEST(MessagePool, CheckInStoresPayloadAndReturnsStableSlot) {
  MessagePool pool;
  Message a = gossipMessage(1, 3);
  Message b = gossipMessage(2, 5);
  const auto slotA = pool.checkIn(/*to=*/7, a);
  const auto slotB = pool.checkIn(/*to=*/9, b);
  EXPECT_NE(slotA, slotB);
  EXPECT_EQ(pool.inUse(), 2u);
  EXPECT_EQ(pool.at(slotA).from, 1u);
  EXPECT_EQ(pool.at(slotA).entries.size(), 3u);
  EXPECT_EQ(pool.destination(slotA), 7u);
  EXPECT_EQ(pool.at(slotB).from, 2u);
  EXPECT_EQ(pool.at(slotB).entries.size(), 5u);
  EXPECT_EQ(pool.destination(slotB), 9u);
}

TEST(MessagePool, CheckInHandsRecycledBuffersBackToTheSender) {
  MessagePool pool;
  Message first = gossipMessage(1, 8);
  const auto slot = pool.checkIn(/*to=*/5, first);
  // The sender's message is left reset (fresh fields, no entries)...
  EXPECT_EQ(first.entries.size(), 0u);
  EXPECT_EQ(first.from, kNoNode);
  pool.release(slot);

  // ...and a later check-in of a fresh payload reuses the released
  // slot's buffer: the capacity the first message grew is handed back.
  Message second = gossipMessage(2, 4);
  const auto slot2 = pool.checkIn(/*to=*/6, second);
  EXPECT_EQ(slot2, slot);  // LIFO freelist reuse
  EXPECT_GE(second.entries.capacity(), 8u)
      << "recycled buffer capacity was lost";
  EXPECT_EQ(pool.recycledCheckIns(), 1u);
}

TEST(MessagePool, SteadyStateTrafficStopsGrowingThePool) {
  MessagePool pool;
  Message scratch;
  // Simulate steady-state traffic: at most 4 in flight at a time.
  MessagePool::Slot slots[4];
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 4; ++i) {
      scratch.reset();
      scratch.from = static_cast<NodeId>(i);
      for (int e = 0; e < 8; ++e) scratch.entries.push_back({});
      slots[i] = pool.checkIn(/*to=*/1, scratch);
    }
    for (int i = 0; i < 4; ++i) pool.release(slots[i]);
  }
  EXPECT_EQ(pool.inUse(), 0u);
  EXPECT_EQ(pool.capacity(), 4u) << "pool grew beyond peak concurrency";
}

TEST(MessagePool, BufferlessCheckInPreservesSlotCapacity) {
  // Data messages own no entry buffers; riding a slot warmed by gossip
  // traffic must not drain the slot's capacity into a message that is
  // about to be destroyed.
  MessagePool pool;
  Message gossip = gossipMessage(1, 8);
  const auto slot = pool.checkIn(/*to=*/2, gossip);
  pool.release(slot);

  Message data;  // transient: would die right after delivery
  data.kind = MessageKind::Data;
  data.dataId = 5;
  const auto slot2 = pool.checkIn(/*to=*/3, data);
  EXPECT_NE(slot2, slot);  // the Data check-in does not take the warm slot
  EXPECT_EQ(pool.at(slot2).dataId, 5u);
  pool.release(slot2);

  // The warmed buffer is still in the slot for the next gossip sender.
  Message gossip2 = gossipMessage(2, 1);
  pool.checkIn(/*to=*/4, gossip2);
  EXPECT_GE(gossip2.entries.capacity(), 8u)
      << "slot capacity was destroyed by the bufferless check-in";
}

TEST(MessagePool, MixedShapeTrafficIsAllocationFreeOnceWarm) {
  // A live cycle's in-flight mix through one pool: gossip exchanges and
  // pull digests from reused scratch messages, and a burst of bufferless
  // Data messages, each held for a delay and released out of order. Once
  // every shape has reached its own in-flight peak, a scratch sender
  // must always swap its warm buffer for a warm one — never for the
  // empty buffer of a slot that last carried Data — so the mix allocates
  // nothing.
  constexpr std::size_t kData = 24;  // Data check-ins per tick
  constexpr std::size_t kDelay = 6;  // ticks a message stays in flight
  MessagePool pool;
  Message gossip;
  Message pull;
  Rng rng(5);
  // In flight, by due tick (ring of kDelay + 1), reserved up front so
  // the harness itself never allocates.
  std::vector<std::vector<MessagePool::Slot>> due(kDelay + 1);
  for (auto& slots : due) slots.reserve(kData + 2);
  std::vector<std::uint32_t> sends;  // this tick's senders, shuffled
  sends.reserve(kData + 2);
  const auto runTick = [&](std::uint64_t tick) {
    auto& dueNow = due[tick % due.size()];
    rng.shuffle(dueNow);
    for (const auto slot : dueNow) pool.release(slot);
    dueNow.clear();
    sends.clear();
    for (std::uint32_t i = 0; i < kData + 2; ++i) sends.push_back(i);
    rng.shuffle(sends);
    for (const std::uint32_t sender : sends) {
      MessagePool::Slot slot;
      std::uint64_t delay;
      if (sender == kData) {
        gossip.kind = MessageKind::CyclonRequest;
        gossip.from = 1;
        for (std::uint32_t e = 0; e < 8; ++e) gossip.entries.push_back({e});
        slot = pool.checkIn(/*to=*/2, gossip);
        delay = kDelay;
      } else if (sender == kData + 1) {
        pull.kind = MessageKind::PullRequest;
        pull.from = 3;
        for (std::uint64_t id = 0; id < 16; ++id) pull.ids.push_back(id);
        slot = pool.checkIn(/*to=*/4, pull);
        delay = kDelay;
      } else {
        Message data;  // transient, like LiveCast's forwards
        data.dataId = tick;
        slot = pool.checkIn(/*to=*/sender, data);
        delay = 1 + sender % kDelay;  // every tick the same delay mix
      }
      due[(tick + delay) % due.size()].push_back(slot);
    }
  };
  std::uint64_t tick = 0;
  for (; tick < 3 * kDelay; ++tick) runTick(tick);  // warm-up
  const std::size_t warmCapacity = pool.capacity();
  const AllocScope allocs;
  for (; tick < 3 * kDelay + 200; ++tick) runTick(tick);
  EXPECT_EQ(allocs.allocations(), 0u)
      << "a scratch sender drew a cold slot after warm-up";
  EXPECT_EQ(pool.capacity(), warmCapacity);
  EXPECT_GE(gossip.entries.capacity(), 8u);
  EXPECT_GE(pull.ids.capacity(), 16u);
}

TEST(MessagePool, RewarmTopsUpEverySlotOfTheShape) {
  MessagePool pool;
  Message small = gossipMessage(1, 2);
  Message live = gossipMessage(2, 2);
  const auto freed = pool.checkIn(/*to=*/5, small);
  const auto held = pool.checkIn(/*to=*/6, live);
  pool.release(freed);
  pool.rewarm(/*entryCapacity=*/64, /*idCapacity=*/0);
  // The checked-in slot keeps its payload while its buffer grows...
  EXPECT_EQ(pool.at(held).entries.size(), 2u);
  EXPECT_GE(pool.at(held).entries.capacity(), 64u);
  // ...and the free slot hands a topped-up buffer to its next sender.
  Message next = gossipMessage(3, 1);
  EXPECT_EQ(pool.checkIn(/*to=*/7, next), freed);
  EXPECT_GE(next.entries.capacity(), 64u);
}

TEST(MessagePool, ResetPeakRestartsFromTheSlotsInUse) {
  MessagePool pool;
  Message a = gossipMessage(1, 1);
  Message b = gossipMessage(2, 1);
  const auto slotA = pool.checkIn(/*to=*/5, a);
  pool.checkIn(/*to=*/6, b);
  pool.release(slotA);
  EXPECT_EQ(pool.peakInUse(), 2u);
  pool.resetPeak();
  EXPECT_EQ(pool.peakInUse(), 1u);
}

TEST(MessagePool, ReleaseOfUnusedSlotRejected) {
  MessagePool pool;
  Message m = gossipMessage(1, 1);
  const auto slot = pool.checkIn(/*to=*/2, m);
  pool.release(slot);
  EXPECT_THROW(pool.release(slot), ContractViolation);
}

TEST(MessagePool, DoubleReleaseDetectedWhileOtherSlotsAreLive) {
  // The dangerous variant: with other slots still checked in, a double
  // release would put the slot on the freelist twice and alias two later
  // in-flight messages. The per-slot live flag must catch it even though
  // inUse_ is nonzero.
  MessagePool pool;
  Message a = gossipMessage(1, 2);
  Message b = gossipMessage(2, 2);
  const auto slotA = pool.checkIn(/*to=*/7, a);
  const auto slotB = pool.checkIn(/*to=*/9, b);
  pool.release(slotA);
  EXPECT_THROW(pool.release(slotA), ContractViolation);
  EXPECT_THROW(pool.at(slotA), ContractViolation);  // stale access too
  EXPECT_EQ(pool.inUse(), 1u);
  pool.release(slotB);
  EXPECT_EQ(pool.inUse(), 0u);
}

// -- end-to-end recycling through the simulation stack -------------------

TEST(MessagePoolIntegration, ChurnedLatencyScenarioLeaksNoSlots) {
  // Latency-model traffic rides the engine's pool; churn kills nodes with
  // messages in flight (delivered to dead nodes -> dropped by the
  // router). Whatever the path, every slot must come back.
  auto scenario = analysis::Scenario::builder()
                      .nodes(150)
                      .seed(7)
                      .warmupCycles(30)
                      .timing(sim::TimingConfig::jitteredLatency(
                          sim::LatencyModel::uniform(1, 4)))
                      .churn(0.02)
                      .build();
  scenario.runCycles(50);
  const auto& engine = scenario.engine();
  // In-flight slots are exactly the scheduled-but-undelivered messages.
  EXPECT_EQ(engine.deliveryPool().inUse(), engine.pendingDeliveries());
  // The pool reaches a steady capacity: more cycles must not grow it.
  const std::size_t settled = engine.deliveryPool().capacity();
  scenario.runCycles(100);
  EXPECT_EQ(engine.deliveryPool().inUse(), engine.pendingDeliveries());
  EXPECT_LE(engine.deliveryPool().capacity(), settled + settled / 4)
      << "pool capacity kept growing under steady churned traffic";
}

TEST(MessagePoolIntegration, SteadyStateGossipCycleIsAllocationFree) {
  // The tentpole invariant: once buffers reach steady capacity, a
  // cycle-synchronous gossip cycle performs zero heap allocations.
  auto scenario = analysis::Scenario::builder()
                      .nodes(300)
                      .seed(11)
                      .warmupCycles(50)
                      .build();
  scenario.runCycles(5);  // settle every scratch buffer and queue
  const AllocScope allocs;
  scenario.runCycles(10);
  EXPECT_EQ(allocs.allocations(), 0u)
      << "steady-state gossip cycles must not touch the allocator";
}

}  // namespace
}  // namespace vs07::net
