#include "cast/live.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/expect.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::cast {
namespace {

/// Full live wiring: CYCLON + VICINITY + LiveCast on one router.
struct LiveHarness {
  explicit LiveHarness(std::uint32_t n, LiveCast::Params params = {},
                       std::uint64_t seed = 1, bool withRing = true)
      : network(n, seed),
        router(network),
        transport(router),
        cyclon(network, transport, router, {20, 8}, seed + 1),
        vicinity(network, transport, router, cyclon, {}, seed + 2),
        live(network, transport, router, cyclon,
             withRing ? &vicinity : nullptr, params, seed + 3),
        engine(network, seed + 4) {
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
    engine.addProtocol(live);
    sim::bootstrapStar(network, cyclon);
    engine.run(100);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  gossip::Cyclon cyclon;
  gossip::Vicinity vicinity;
  LiveCast live;
  sim::Engine engine;
};

TEST(MessageStore, RemembersAndEvictsFifo) {
  MessageStore store(3);
  store.remember(1);
  store.remember(2);
  store.remember(3);
  EXPECT_TRUE(store.hasSeen(1));
  store.remember(4);  // evicts 1
  EXPECT_FALSE(store.hasSeen(1));
  EXPECT_TRUE(store.hasSeen(2));
  EXPECT_TRUE(store.hasSeen(4));
}

TEST(MessageStore, RememberIsIdempotent) {
  MessageStore store(2);
  store.remember(7);
  store.remember(7);
  store.remember(8);
  EXPECT_EQ(store.buffered().size(), 2u);
  EXPECT_TRUE(store.hasSeen(7));
}

TEST(MessageStore, DigestNewestLast) {
  MessageStore store(10);
  for (std::uint64_t id = 1; id <= 5; ++id) store.remember(id);
  EXPECT_EQ(store.digest(3), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(store.digest(99).size(), 5u);
}

TEST(MessageStore, ClearForgetsEverything) {
  MessageStore store(4);
  store.remember(1);
  store.clear();
  EXPECT_FALSE(store.hasSeen(1));
  EXPECT_TRUE(store.buffered().empty());
}

TEST(LiveCast, PushCompletesOnHealthyOverlay) {
  LiveHarness h(400);
  const auto id = h.live.publish(0);
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);
  const auto& stats = h.live.stats(id);
  EXPECT_EQ(stats.pushDelivered, 400u);
  EXPECT_EQ(stats.pullDelivered, 0u);
  // Overhead ≈ fanout × N, exactly as the frozen-path disseminator.
  EXPECT_NEAR(static_cast<double>(h.live.pushMessagesSent()),
              3.0 * 400, 0.05 * 3 * 400);
}

TEST(LiveCast, DeliveryFlagsQueryable) {
  LiveHarness h(100);
  const auto id = h.live.publish(5);
  for (const NodeId node : h.network.aliveIds())
    EXPECT_TRUE(h.live.hasDelivered(id, node));
  EXPECT_FALSE(h.live.hasDelivered(id + 1, 0));  // unknown message
}

TEST(LiveCast, PublishFromDeadNodeRejected) {
  LiveHarness h(50);
  h.network.kill(3);
  EXPECT_THROW(h.live.publish(3), ContractViolation);
}

TEST(LiveCast, DeepRingChainDoesNotOverflowStack) {
  // Fanout 1 over the ring: the message crawls node by node through the
  // whole population — thousands of sequential forwards must be handled
  // iteratively by the outbox trampoline, not by recursion.
  LiveCast::Params params;
  params.fanout = 1;
  params.pullInterval = 0;
  LiveHarness h(4000, params);
  const auto id = h.live.publish(0);
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);
}

TEST(LiveCast, PullRepairsCatastrophicMisses) {
  LiveCast::Params params;
  params.fanout = 2;
  params.pullInterval = 1;
  LiveHarness h(800, params);

  // Heavy failure right before publishing: push alone will miss nodes.
  Rng killRng(9);
  sim::killRandomFraction(h.network, 0.20, killRng);
  const auto id = h.live.publish(h.network.aliveIds().front());
  const double missAfterPush = h.live.missRatioPercentNow(id);

  // A few cycles of anti-entropy pulls close the gap completely.
  h.engine.run(10);
  const double missAfterPull = h.live.missRatioPercentNow(id);
  EXPECT_LE(missAfterPull, missAfterPush);
  EXPECT_EQ(missAfterPull, 0.0);
  EXPECT_GT(h.live.pullRequestsSent(), 0u);
  if (missAfterPush > 0.0) {
    EXPECT_GT(h.live.stats(id).pullDelivered, 0u);
  }
}

TEST(LiveCast, PullDisabledLeavesMisses) {
  LiveCast::Params params;
  params.fanout = 2;
  params.pullInterval = 0;  // pure push, the paper's main setting
  LiveHarness h(800, params, /*seed=*/2);
  Rng killRng(10);
  sim::killRandomFraction(h.network, 0.20, killRng);
  const auto id = h.live.publish(h.network.aliveIds().front());
  const double missAfterPush = h.live.missRatioPercentNow(id);
  h.engine.run(10);
  // Gossip may heal the overlay for *future* messages, but this message
  // is never re-disseminated without pull.
  EXPECT_EQ(h.live.missRatioPercentNow(id), missAfterPush);
  EXPECT_EQ(h.live.pullRequestsSent(), 0u);
}

TEST(LiveCast, PullIntervalThrottlesTraffic) {
  LiveCast::Params everyCycle;
  everyCycle.pullInterval = 1;
  LiveCast::Params everyFour;
  everyFour.pullInterval = 4;
  LiveHarness fast(200, everyCycle, /*seed=*/3);
  LiveHarness slow(200, everyFour, /*seed=*/3);
  const auto fastBefore = fast.live.pullRequestsSent();
  const auto slowBefore = slow.live.pullRequestsSent();
  fast.engine.run(20);
  slow.engine.run(20);
  const auto fastSent = fast.live.pullRequestsSent() - fastBefore;
  const auto slowSent = slow.live.pullRequestsSent() - slowBefore;
  EXPECT_NEAR(static_cast<double>(fastSent) / slowSent, 4.0, 0.5);
}

TEST(LiveCast, BufferEvictionLimitsRecoverability) {
  // §8: "the duration for which nodes maintain old messages, the size of
  // buffers" — once every node has buffered `capacity` newer messages,
  // an old message exists nowhere and can never be served to latecomers.
  LiveCast::Params params;
  params.fanout = 3;
  params.bufferCapacity = 4;
  params.pullInterval = 1;
  params.pullBudget = 16;
  LiveHarness h(300, params, /*seed=*/4);

  const auto first = h.live.publish(0);
  std::vector<std::uint64_t> later;
  for (int i = 0; i < 6; ++i) later.push_back(h.live.publish(0));

  // All pushes completed, so every buffer holds the newest 4 ids and the
  // first message is gone from the whole network.
  for (const NodeId node : h.network.aliveIds()) {
    EXPECT_FALSE(h.live.store(node).hasSeen(first)) << "node " << node;
    EXPECT_TRUE(h.live.store(node).hasSeen(later.back()));
  }

  // A fresh joiner can pull the retained messages but never the evicted
  // one: no node can serve what no node stores.
  const NodeId joiner = h.network.spawn(h.engine.cycle());
  Rng rng(5);
  NodeId introducer = joiner;
  while (introducer == joiner) introducer = h.network.randomAlive(rng);
  h.cyclon.onJoin(joiner, introducer);
  h.vicinity.onJoin(joiner, introducer);
  h.engine.run(10);

  EXPECT_TRUE(h.live.hasDelivered(later.back(), joiner));
  EXPECT_FALSE(h.live.hasDelivered(first, joiner));
}

TEST(LiveCast, RandCastModeWithoutRing) {
  LiveCast::Params params;
  params.fanout = 2;
  params.pullInterval = 0;
  LiveHarness h(600, params, /*seed=*/5, /*withRing=*/false);
  const auto id = h.live.publish(0);
  // Pure RANDCAST at F=2: a clear residue remains (Fig. 6 shape).
  EXPECT_GT(h.live.missRatioPercentNow(id), 1.0);
}

TEST(LiveCast, PullAlsoSpreadsBetweenPublishes) {
  // A node that receives a message via pull forwards it onwards: one
  // repaired node re-seeds its whole ring partition.
  LiveCast::Params params;
  params.fanout = 2;
  params.pullInterval = 1;
  LiveHarness h(500, params, /*seed=*/6);
  Rng killRng(12);
  sim::killRandomFraction(h.network, 0.25, killRng);
  const auto id = h.live.publish(h.network.aliveIds().front());
  const double before = h.live.missRatioPercentNow(id);
  h.engine.run(1);
  const double after = h.live.missRatioPercentNow(id);
  EXPECT_LE(after, before);
  if (before > 2.0) {
    // One pull round at interval 1 should already repair most misses.
    EXPECT_LT(after, before);
  }
}

TEST(LiveCast, PullRecoveryKeepsTheHopHistogramClean) {
  // Regression: a pull answer lands with hop 0, so a recovered node's
  // onward forwards used to pour fresh deliveries into
  // newlyNotifiedPerHop[1] and could bump lastHop — the origin-wave
  // histogram silently mixed in recovery re-waves. Recovery forwards are
  // now tagged (kFlagRecoveryWave) and count as pullDelivered only.
  LiveCast::Params params;
  params.fanout = 2;
  params.pullInterval = 1;
  LiveHarness h(800, params, /*seed=*/14);
  Rng killRng(15);
  sim::killRandomFraction(h.network, 0.25, killRng);

  const auto id = h.live.publish(h.network.aliveIds().front());
  const auto afterPush = h.live.stats(id);  // copy
  ASSERT_GT(h.live.missRatioPercentNow(id), 0.0)
      << "seed must leave push misses for pull to repair";

  h.engine.run(10);
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);
  const auto& repaired = h.live.stats(id);
  // Everything pull recovered — the answers and the re-wave forwards
  // they triggered — is pull bookkeeping; the push-wave histogram is
  // exactly what it was the moment the push finished.
  EXPECT_EQ(repaired.pushDelivered, afterPush.pushDelivered);
  EXPECT_GT(repaired.pullDelivered, 0u);
  EXPECT_EQ(repaired.newlyNotifiedPerHop, afterPush.newlyNotifiedPerHop);
  EXPECT_EQ(repaired.lastHop, afterPush.lastHop);
  const auto histogramSum =
      std::accumulate(repaired.newlyNotifiedPerHop.begin(),
                      repaired.newlyNotifiedPerHop.end(), std::uint64_t{0});
  EXPECT_EQ(histogramSum, repaired.pushDelivered);
  // The re-wave really happened: recovered nodes forwarded onwards.
  EXPECT_GT(h.live.recoveryForwardsSent(), 0u);
}

TEST(LiveCast, StatsForUnknownMessageRejected) {
  LiveHarness h(20, {}, /*seed=*/7);
  EXPECT_THROW(h.live.stats(42), ContractViolation);
  EXPECT_THROW(h.live.missRatioPercentNow(42), ContractViolation);
}

TEST(LiveCast, ChurnJoinersCatchUpThroughPull) {
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 1;
  LiveHarness h(400, params, /*seed=*/8);

  const auto id = h.live.publish(0);
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);

  // Churn in fresh nodes; they missed the original push entirely...
  sim::ChurnControl churn(h.network, 0.02, 13);
  churn.addJoinHandler(h.cyclon);
  churn.addJoinHandler(h.vicinity);
  h.engine.addControl(churn);
  h.engine.run(15);
  // ...but anti-entropy catches them up: every node that has lived
  // through at least two full cycles (i.e. had a chance to pull) holds
  // the message. Only the newest joiners may still be catching up.
  const auto now = h.engine.cycle();
  for (const NodeId node : h.network.aliveIds())
    if (h.network.lifetime(node, now) >= 3) {
      EXPECT_TRUE(h.live.hasDelivered(id, node))
          << "node " << node << " lifetime "
          << h.network.lifetime(node, now);
    }
}

}  // namespace
}  // namespace vs07::cast
