#include "cast/live.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/codec.hpp"
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

/// One answering node, wired to capture its sends instead of delivering
/// them. Node 0's CYCLON view stays empty, so filling its buffer with
/// push deliveries forwards nothing and draws nothing.
struct PullProbe {
  class Capture final : public net::DeliverySink {
   public:
    void deliver(NodeId to, net::Message&& msg) override {
      sent.push_back({to, msg});
    }
    std::vector<std::pair<NodeId, net::Message>> sent;
  };

  explicit PullProbe(LiveCast::Params params)
      : network(2, /*seed=*/1),
        router(network),
        transport(capture),
        cyclon(network, transport, router, {20, 8}, 2),
        live(network, transport, router, cyclon, nullptr, params, 3) {}

  void fill(const std::vector<std::uint64_t>& ids) {
    for (const std::uint64_t id : ids) {
      net::Message m;
      m.kind = net::MessageKind::Data;
      m.from = 1;
      m.dataId = id;
      router.deliver(0, std::move(m));
    }
    capture.sent.clear();
  }

  /// Node 0's answer to a pull from node 1 carrying `ids`.
  std::vector<std::uint64_t> answer(
      std::vector<std::uint64_t> ids,
      std::uint8_t flags = net::kFlagWindowedDigest) {
    capture.sent.clear();
    net::Message request;
    request.kind = net::MessageKind::PullRequest;
    request.from = 1;
    request.flags = flags;
    request.ids = std::move(ids);
    router.deliver(0, std::move(request));
    std::vector<std::uint64_t> answered;
    for (const auto& [to, msg] : capture.sent) {
      EXPECT_EQ(to, 1u);
      EXPECT_NE(msg.flags & net::kFlagPullAnswer, 0);
      answered.push_back(msg.dataId);
    }
    return answered;
  }

  /// Runs one pull step of node 0 and returns the ids of the
  /// PullRequest it sent (node 0 needs a CYCLON view to pull from).
  std::vector<std::uint64_t> pull() {
    capture.sent.clear();
    live.step(0);
    EXPECT_EQ(capture.sent.size(), 1u);
    if (capture.sent.empty()) return {};
    const net::Message& request = capture.sent.front().second;
    EXPECT_EQ(request.kind, net::MessageKind::PullRequest);
    EXPECT_EQ(request.from, 0u);
    EXPECT_EQ(request.flags, net::kFlagWindowedDigest);
    return request.ids;
  }

  sim::Network network;
  sim::MessageRouter router;
  Capture capture;
  net::ImmediateTransport transport;
  gossip::Cyclon cyclon;
  LiveCast live;
};

/// The useful ids of a pull by the plain reference: the [lo, hi] bounds
/// in ids[0..1], then a linear scan of the window per buffered id.
std::vector<std::uint64_t> linearUseful(std::span<const std::uint64_t> have,
                                        const std::vector<std::uint64_t>& ids) {
  std::vector<std::uint64_t> useful;
  for (const std::uint64_t id : have) {
    if (id < ids[0] || id > ids[1]) continue;
    if (std::find(ids.begin() + 2, ids.end(), id) != ids.end()) continue;
    useful.push_back(id);
  }
  return useful;
}

TEST(LiveCast, PullAnswersMatchTheLinearScanReference) {
  // Random buffers and windows (bounds anywhere, windows mixing held and
  // foreign ids, duplicates, 0 and ~0): an answer serves exactly the
  // useful ids when the budget covers them and a budget-sized subset of
  // them otherwise, never one id twice.
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    LiveCast::Params params;
    params.bufferCapacity = 1 + static_cast<std::uint32_t>(rng.below(48));
    params.pullBudget = 1 + static_cast<std::uint32_t>(rng.below(64));
    PullProbe probe(params);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = rng.below(80); i > 0; --i)
      ids.push_back(rng.below(4) == 0 ? ~std::uint64_t{0} - rng.below(3)
                                      : rng.below(100));
    probe.fill(ids);
    const auto have = probe.live.store(0).buffered();

    const std::uint64_t lo = rng.below(3) == 0 ? 0 : rng.below(60);
    const std::uint64_t hi =
        rng.below(3) == 0 ? ~std::uint64_t{0} : lo + rng.below(60);
    std::vector<std::uint64_t> request = {lo, hi};
    for (std::uint64_t i = rng.below(40); i > 0; --i)
      request.push_back(rng.below(2) == 0 && !have.empty()
                            ? have[rng.below(have.size())]
                            : rng.below(120));
    const auto useful = linearUseful(have, request);
    const auto answered = probe.answer(request);
    const std::size_t budget = params.pullBudget;
    ASSERT_EQ(answered.size(), std::min(budget, useful.size()))
        << "round " << round;
    for (const std::uint64_t id : answered)
      ASSERT_NE(std::find(useful.begin(), useful.end(), id), useful.end());
    auto sorted = answered;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());  // no id served twice
  }
}

TEST(LiveCast, MaximalPullDigestIsAnswered) {
  // A frame-sized windowed digest: [0, ~0] bounds plus 65,534 ids, the
  // most a PullRequest carries off the wire (kMaxWireEntries). It costs
  // one sort plus a binary search per buffered id, and the answer still
  // serves exactly the buffered ids the digest lacks.
  LiveCast::Params params;
  params.bufferCapacity = 64;
  params.pullBudget = 64;
  PullProbe probe(params);
  std::vector<std::uint64_t> held;
  for (std::uint64_t id = 1; id <= 64; ++id) held.push_back(id * 1000);
  probe.fill(held);

  std::vector<std::uint64_t> request = {0, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; request.size() < net::kMaxWireEntries; ++i)
    request.push_back(i % 2 == 0 ? 7 + 1000 * i : 1000 * (i % 64 + 1));
  ASSERT_EQ(request.size(), 65'536u);
  const auto useful = linearUseful(probe.live.store(0).buffered(), request);
  ASSERT_FALSE(useful.empty());
  auto answered = probe.answer(request);
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(answered, useful);
}


TEST(LiveCast, PullRequestsWithoutWindowBoundsAreNotAnswered) {
  // Every PullRequest carries kFlagWindowedDigest and [lo, hi] bounds
  // ahead of its window; anything else is malformed and gets no answer.
  LiveCast::Params params;
  params.pullBudget = 8;
  PullProbe probe(params);
  probe.fill({1, 2, 3, 4});
  constexpr std::uint64_t kOpen = ~std::uint64_t{0};
  EXPECT_TRUE(probe.answer({}, /*flags=*/0).empty());
  EXPECT_TRUE(probe.answer({2}, /*flags=*/0).empty());
  EXPECT_TRUE(probe.answer({0, kOpen}, /*flags=*/0).empty());
  EXPECT_TRUE(probe.answer({}).empty());
  EXPECT_TRUE(probe.answer({0}).empty());
  EXPECT_EQ(probe.live.pullAnswersSent(), 0u);
  // The same buffer answers a well-formed request.
  EXPECT_EQ(probe.answer({0, kOpen}).size(), 4u);
}

TEST(LiveCast, PullWindowsWalkTheBufferOldestFirst) {
  // One node's successive PullRequests: [lo, hi] bounds, then a
  // digestLength-wide slice of its buffer. The slices walk the buffer
  // oldest first and never wrap, so the last one is short; at the newest
  // end hi opens to +inf, and the next request starts over at the oldest
  // id. hi is the slice maximum, not its last element (arrival order is
  // not id order).
  LiveCast::Params params;
  params.bufferCapacity = 8;
  params.digestLength = 4;
  PullProbe probe(params);
  probe.cyclon.onJoin(0, 1);  // node 0 pulls from node 1
  using Ids = std::vector<std::uint64_t>;
  constexpr std::uint64_t kOpen = ~std::uint64_t{0};

  // An empty buffer wants anything: [0, +inf), no ids.
  EXPECT_EQ(probe.pull(), (Ids{0, kOpen}));

  // Nothing evicted yet: "not buffered" means "never received", so lo
  // stays 0 and a joiner can recover ids older than all it holds.
  probe.fill({10, 11, 14, 12, 13, 15});
  EXPECT_EQ(probe.pull(), (Ids{0, 14, 10, 11, 14, 12}));
  EXPECT_EQ(probe.pull(), (Ids{0, kOpen, 13, 15}));
  EXPECT_EQ(probe.pull(), (Ids{0, 14, 10, 11, 14, 12}));

  // Five more ids evict 10, 11 and 14, in arrival order: the buffer is
  // 12 13 15 16 17 18 19 20 and the recovery horizon 14. From now on lo
  // is at least recoveryHorizon() + 1, above slice minima it exceeds.
  probe.fill({16, 17, 18, 19, 20});
  ASSERT_EQ(probe.live.store(0).recoveryHorizon(), 14u);
  EXPECT_EQ(probe.pull(), (Ids{17, kOpen, 17, 18, 19, 20}));
  EXPECT_EQ(probe.pull(), (Ids{15, 16, 12, 13, 15, 16}));
  EXPECT_EQ(probe.pull(), (Ids{17, kOpen, 17, 18, 19, 20}));
}

TEST(LiveCast, NextDataIdOnlyMovesForward) {
  // Tracked messages are looked up by binary search over publish order,
  // which is id order only while ids grow: a process may jump to its
  // own id base, never back below the next id.
  LiveHarness h(20, {}, /*seed=*/9);
  const std::uint64_t base = std::uint64_t{3} << 32;
  h.live.setNextDataId(base);
  EXPECT_EQ(h.live.publish(0), base);
  EXPECT_THROW(h.live.setNextDataId(base), ContractViolation);
  EXPECT_THROW(h.live.setNextDataId(1), ContractViolation);
  h.live.setNextDataId(base + 1);  // the next id itself is accepted
  EXPECT_EQ(h.live.publish(0), base + 1);
  EXPECT_TRUE(h.live.isTracked(base));
  EXPECT_TRUE(h.live.isTracked(base + 1));
}

}  // namespace
}  // namespace vs07::cast
