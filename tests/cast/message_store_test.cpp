// Dedicated MessageStore coverage: FIFO eviction at capacity, arrival
// order, and the §8 forgetting semantics — "the duration for which
// nodes maintain old messages" is the buffer capacity, and once an id is
// evicted the node treats a re-reception as brand new: it delivers,
// re-buffers, and re-forwards it (src/cast/live.cpp, handleData).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "cast/live.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::cast {
namespace {

TEST(MessageStore, FifoEvictionAtCapacity) {
  MessageStore store(4);
  for (std::uint64_t id = 1; id <= 4; ++id) store.remember(id);
  EXPECT_EQ(store.buffered().size(), 4u);

  // Each further remember evicts exactly the oldest surviving id.
  store.remember(5);
  EXPECT_FALSE(store.hasSeen(1));
  EXPECT_TRUE(store.hasSeen(2));
  store.remember(6);
  EXPECT_FALSE(store.hasSeen(2));
  EXPECT_TRUE(store.hasSeen(3));
  EXPECT_EQ(store.buffered().size(), 4u);
  EXPECT_EQ(store.buffered().front(), 3u);  // oldest first
  EXPECT_EQ(store.buffered().back(), 6u);
}

TEST(MessageStore, ReRememberingDoesNotRefreshFifoPosition) {
  // Eviction order is arrival order, not last-touch order (FIFO, not LRU).
  MessageStore store(2);
  store.remember(1);
  store.remember(2);
  store.remember(1);  // no-op: 1 keeps its original (oldest) slot
  store.remember(3);  // evicts 1, not 2
  EXPECT_FALSE(store.hasSeen(1));
  EXPECT_TRUE(store.hasSeen(2));
  EXPECT_TRUE(store.hasSeen(3));
}

TEST(MessageStore, ZeroCapacityRejected) {
  EXPECT_THROW(MessageStore(0), ContractViolation);
}

TEST(MessageStore, ClearForgetsEverything) {
  MessageStore store(4);
  store.remember(1);
  store.clear();
  EXPECT_FALSE(store.hasSeen(1));
  EXPECT_TRUE(store.buffered().empty());
}

TEST(MessageStore, EvictionIsSticky) {
  // hasEvicted() marks the moment "not buffered" stops meaning "never
  // received" — windowed pull digests keep their lower bound at 0 until
  // then, so a joiner can recover ids older than everything it holds.
  MessageStore store(2);
  EXPECT_FALSE(store.hasEvicted());
  store.remember(1);
  store.remember(2);
  EXPECT_FALSE(store.hasEvicted());  // full, but nothing lost yet
  store.remember(3);
  EXPECT_TRUE(store.hasEvicted());
  store.clear();
  EXPECT_FALSE(store.hasEvicted());
}

TEST(MessageStore, RecoveryHorizonIsTheMaxEvictedId) {
  // Eviction is FIFO by *arrival*: jumbled arrival order means the
  // evicted id can be larger than ids still held, so the horizon is the
  // max over everything evicted, not the oldest arrival.
  MessageStore store(2);
  EXPECT_EQ(store.recoveryHorizon(), 0u);
  store.remember(9);  // arrives first, evicted first
  store.remember(4);
  store.remember(5);  // evicts 9
  EXPECT_EQ(store.recoveryHorizon(), 9u);
  store.remember(6);  // evicts 4: horizon keeps the max, not the latest
  EXPECT_EQ(store.recoveryHorizon(), 9u);
  store.clear();
  EXPECT_EQ(store.recoveryHorizon(), 0u);
}

TEST(MessageStore, EvictedIdIsSeenAsNewAgain) {
  MessageStore store(1);
  store.remember(1);
  store.remember(2);  // evicts 1
  EXPECT_FALSE(store.hasSeen(1));
  store.remember(1);  // accepted like a brand-new id
  EXPECT_TRUE(store.hasSeen(1));
  EXPECT_FALSE(store.hasSeen(2));
}

/// The store's contract as a plain model: a std::deque FIFO and a
/// std::unordered_set of the ids it holds.
struct StoreModel {
  explicit StoreModel(std::uint32_t capacity) : capacity(capacity) {}

  void remember(std::uint64_t id) {
    if (seen.contains(id)) return;
    buffer.push_back(id);
    seen.insert(id);
    if (buffer.size() > capacity) {
      maxEvicted = std::max(maxEvicted, buffer.front());
      seen.erase(buffer.front());
      buffer.pop_front();
      evicted = true;
    }
  }
  void clear() {
    buffer.clear();
    seen.clear();
    evicted = false;
    maxEvicted = 0;
  }

  std::uint32_t capacity;
  std::deque<std::uint64_t> buffer;
  std::unordered_set<std::uint64_t> seen;
  bool evicted = false;
  std::uint64_t maxEvicted = 0;
};

/// The flat store against the model under random operations: every
/// capacity from 1 to 9, ids drawn dense (1..24), sparse ((k + 1) << 32,
/// the runtime's per-process id bases), and the extremes 0 and ~0 —
/// every 64-bit value is a valid id off the wire. After every step the
/// buffered ids, the eviction flag and the recovery horizon agree.
TEST(MessageStore, FlatStoreMatchesDequeAndSetModel) {
  Rng rng(2024);
  const auto drawId = [&rng]() -> std::uint64_t {
    switch (rng.below(8)) {
      case 0:
        return 0;
      case 1:
        return ~std::uint64_t{0};
      case 2:
      case 3:
      case 4:
        return (rng.below(24) + 1) << 32;
      default:
        return 1 + rng.below(24);
    }
  };
  for (std::uint32_t capacity = 1; capacity <= 9; ++capacity) {
    MessageStore store(capacity);
    StoreModel model(capacity);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 55) {
        const std::uint64_t id = drawId();
        store.remember(id);
        model.remember(id);
      } else if (op < 97) {
        const std::uint64_t id = drawId();
        ASSERT_EQ(store.hasSeen(id), model.seen.contains(id))
            << "capacity " << capacity << " step " << step << " id " << id;
      } else {
        store.clear();
        model.clear();
      }
      const auto held = store.buffered();
      ASSERT_TRUE(std::equal(held.begin(), held.end(), model.buffer.begin(),
                             model.buffer.end()))
          << "capacity " << capacity << " step " << step;
      ASSERT_EQ(store.size(), model.buffer.size());
      ASSERT_EQ(store.hasEvicted(), model.evicted);
      ASSERT_EQ(store.recoveryHorizon(), model.maxEvicted);
      for (const std::uint64_t id : model.buffer) ASSERT_TRUE(store.hasSeen(id));
    }
  }
}

/// Minimal live wiring for the re-forwarding test below.
struct TinyLive {
  explicit TinyLive(std::uint32_t n, LiveCast::Params params)
      : network(n, /*seed=*/3),
        router(network),
        transport(router),
        cyclon(network, transport, router, {20, 8}, 4),
        vicinity(network, transport, router, cyclon, {}, 5),
        live(network, transport, router, cyclon, &vicinity, params, 6),
        engine(network, 7) {
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
    sim::bootstrapStar(network, cyclon);
    engine.run(50);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  gossip::Cyclon cyclon;
  gossip::Vicinity vicinity;
  LiveCast live;
  sim::Engine engine;
};

TEST(MessageStore, EvictedMessageIsReForwardedOnReReception) {
  // §8 semantics end to end: with a 1-slot buffer, publishing message B
  // evicts message A everywhere; re-injecting A at one node makes that
  // node treat it as new — it forwards A again (push traffic grows by a
  // whole re-dissemination, not by zero as a duplicate would).
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 0;  // isolate push behaviour
  params.bufferCapacity = 1;
  TinyLive h(50, params);

  const auto a = h.live.publish(0);
  const auto b = h.live.publish(0);
  ASSERT_NE(a, b);
  for (const NodeId id : h.network.aliveIds()) {
    EXPECT_FALSE(h.live.store(id).hasSeen(a)) << "node " << id;
  }

  const auto sentBefore = h.live.pushMessagesSent();
  net::Message again;
  again.kind = net::MessageKind::Data;
  again.from = 0;
  again.dataId = a;
  h.transport.send(/*to=*/1, std::move(again));

  // Node 1 re-buffered A and the re-forward cascaded through every node
  // whose buffer had also forgotten it.
  EXPECT_TRUE(h.live.store(1).hasSeen(a));
  EXPECT_GT(h.live.pushMessagesSent(), sentBefore + 1);
  // Delivery bookkeeping counts the wave as redundant, not as new
  // deliveries: every node already got A once.
  EXPECT_GT(h.live.stats(a).redundantDeliveries, 0u);
  EXPECT_EQ(h.live.stats(a).pushDelivered, 50u);
}

TEST(MessageStore, WindowedPullDoesNotResurrectEvictedIds) {
  // With identical post-eviction buffers everywhere, windowed digests
  // advertise [oldest-held, inf) — evicted ids sit *below* every window
  // and are beyond the recovery horizon. No pull answer may re-inject
  // them (re-injection would go supercritical: every re-delivery of a
  // forgotten id spawns a fresh fanout-wide wave, see the test above).
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 1;
  params.bufferCapacity = 4;
  TinyLive h(50, params);
  h.engine.addProtocol(h.live);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(h.live.publish(0));
  for (const NodeId node : h.network.aliveIds())
    ASSERT_FALSE(h.live.store(node).hasSeen(ids[0]));

  const auto pushBefore = h.live.pushMessagesSent();
  const auto pullsBefore = h.live.pullRequestsSent();
  h.engine.run(10);
  EXPECT_GT(h.live.pullRequestsSent(), pullsBefore);  // pulls did run
  EXPECT_EQ(h.live.pullAnswersSent(), 0u);  // nothing useful to serve
  EXPECT_EQ(h.live.pushMessagesSent(), pushBefore);  // no re-waves
  for (const NodeId node : h.network.aliveIds()) {
    EXPECT_FALSE(h.live.store(node).hasSeen(ids[0])) << "node " << node;
    EXPECT_FALSE(h.live.store(node).hasSeen(ids[1])) << "node " << node;
  }
}

TEST(MessageStore, RecoveryDeliveriesBelowTheHorizonAreDropped) {
  // The receiver-side half of the recovery horizon: a pull-layer Data
  // message (answer or recovery-wave forward) for an id the node already
  // evicted must be dropped, not re-buffered. Accepting it would evict
  // another id early — the positive feedback that winds sustained
  // traffic into supercritical re-wave storms. Plain push traffic keeps
  // §8's "evicted ids are new again" semantics (see the re-forwarding
  // test above).
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 0;
  params.bufferCapacity = 1;
  TinyLive h(50, params);

  const auto a = h.live.publish(0);
  const auto b = h.live.publish(0);  // evicts `a` everywhere
  ASSERT_LT(a, b);
  ASSERT_GT(h.live.store(1).recoveryHorizon(), 0u);

  const auto pushBefore = h.live.pushMessagesSent();
  net::Message zombie;
  zombie.kind = net::MessageKind::Data;
  zombie.flags = net::kFlagPullAnswer;
  zombie.from = 0;
  zombie.dataId = a;
  h.transport.send(/*to=*/1, std::move(zombie));

  EXPECT_FALSE(h.live.store(1).hasSeen(a));  // not re-buffered
  EXPECT_EQ(h.live.pushMessagesSent(), pushBefore);  // no re-wave
  EXPECT_EQ(h.live.recoveryDropsBeyondHorizon(), 1u);
  // `b` sits above the horizon, so the drop branch must not touch it:
  // node 1 still holds it, and the repair lands in the ordinary
  // redundant path instead.
  const auto redundantBefore = h.live.stats(b).redundantDeliveries;
  net::Message repair;
  repair.kind = net::MessageKind::Data;
  repair.flags = net::kFlagPullAnswer;
  repair.from = 0;
  repair.dataId = b;
  h.transport.send(/*to=*/1, std::move(repair));
  EXPECT_EQ(h.live.recoveryDropsBeyondHorizon(), 1u);
  EXPECT_EQ(h.live.stats(b).redundantDeliveries, redundantBefore + 1);
}

TEST(MessageStore, WindowedPullBackfillsAJoinerUnderOneSharedBudget) {
  // A fresh joiner advertises an empty window [0, inf): everything its
  // peer buffers is a candidate, and one pull answer serves at most
  // pullBudget ids — one budget shared across ids, chosen uniformly among
  // the useful ones (random-useful, Sanghavi et al.), not newest-first.
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 1;
  params.bufferCapacity = 32;
  params.digestLength = 8;
  params.pullBudget = 4;
  TinyLive h(60, params);
  h.engine.addProtocol(h.live);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(h.live.publish(0));

  const NodeId joiner = h.network.spawn(h.engine.cycle());
  Rng rng(21);
  NodeId introducer = joiner;
  while (introducer == joiner) introducer = h.network.randomAlive(rng);
  h.cyclon.onJoin(joiner, introducer);
  h.vicinity.onJoin(joiner, introducer);

  const auto deliveredToJoiner = [&] {
    std::size_t count = 0;
    for (const auto id : ids)
      if (h.live.hasDelivered(id, joiner)) ++count;
    return count;
  };
  ASSERT_EQ(deliveredToJoiner(), 0u);
  h.engine.run(1);
  const auto afterOnePull = deliveredToJoiner();
  EXPECT_GT(afterOnePull, 0u);
  EXPECT_LE(afterOnePull, 4u);  // the budget caps one answer
  h.engine.run(12);
  EXPECT_EQ(deliveredToJoiner(), 10u);  // old gaps close, not just new
}

}  // namespace
}  // namespace vs07::cast
