// Sustained-traffic bookkeeping: the tracked-message cap, retirement into
// the SteadyStateStats aggregates, allocation-free warm publishing, and
// the TrafficSource publish schedule. Together these pin the memory frontier
// LiveCast holds under a publish *rate*: O(maxTrackedMessages * N), not
// O(messages * N).
#include <gtest/gtest.h>

#include "cast/live.hpp"
#include "cast/traffic.hpp"
#include "common/alloc_probe.hpp"
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

/// Full live wiring (as live_test's harness) with the engine clock
/// attached, so linger-based retirement has a time base.
struct SteadyHarness {
  explicit SteadyHarness(std::uint32_t n, LiveCast::Params params = {},
                         std::uint64_t seed = 1)
      : network(n, seed),
        router(network),
        transport(router),
        cyclon(network, transport, router, {20, 8}, seed + 1),
        vicinity(network, transport, router, cyclon, {}, seed + 2),
        live(network, transport, router, cyclon, &vicinity, params,
             seed + 3),
        engine(network, seed + 4) {
    live.attachClock(engine);
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
    engine.addProtocol(live);
    sim::bootstrapStar(network, cyclon);
    engine.run(60);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  gossip::Cyclon cyclon;
  gossip::Vicinity vicinity;
  LiveCast live;
  sim::Engine engine;
};

TEST(SteadyState, TrackedCapRetiresTheOldest) {
  LiveCast::Params params;
  params.fanout = 3;
  params.maxTrackedMessages = 4;
  SteadyHarness h(60, params);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(h.live.publish(0));

  // Only the newest 4 ids still carry full state; the 6 oldest retired.
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(h.live.isTracked(ids[i]), i >= 6) << "id index " << i;
  EXPECT_THROW(h.live.stats(ids[0]), ContractViolation);
  EXPECT_THROW(h.live.missRatioPercentNow(ids[0]), ContractViolation);
  // Per-node knowledge is dropped at retirement.
  EXPECT_FALSE(h.live.hasDelivered(ids[0], 1));
  EXPECT_TRUE(h.live.hasDelivered(ids.back(), 1));

  const auto steady = h.live.steadyStats();
  EXPECT_EQ(steady.published, 10u);
  EXPECT_EQ(steady.retiredCompleted, 6u);
  EXPECT_EQ(steady.retiredAgedOut, 0u);
  EXPECT_EQ(steady.trackedNow, 4u);
  EXPECT_EQ(steady.peakTracked, 4u);
  // 4 bitmaps over 60 nodes, and never more than that.
  EXPECT_EQ(steady.trackedBitmapBytes, 4u * 60u);
  EXPECT_EQ(steady.peakTrackedBitmapBytes, 4u * 60u);
  // Every publish covered the whole population via push.
  EXPECT_EQ(steady.firstDeliveries, 10u * 60u);
  EXPECT_EQ(steady.pushDeliveries, 10u * 60u);
  EXPECT_EQ(steady.pullDeliveries, 0u);
}

TEST(SteadyState, CompletedLingerRetiresWithoutCapPressure) {
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 1;
  params.completedLingerTicks = 2;
  SteadyHarness h(50, params);

  const auto id = h.live.publish(0);
  EXPECT_TRUE(h.live.isTracked(id));  // completion alone does not retire
  h.engine.run(5);                    // well past the 2-tick linger
  // The sweep runs on the next publish, far below the cap.
  h.live.publish(0);
  EXPECT_FALSE(h.live.isTracked(id));
  EXPECT_EQ(h.live.steadyStats().retiredCompleted, 1u);
}

TEST(SteadyState, WarmPublishingAllocatesNothing) {
  // Once the tracked cap and the node buffers are warm, a publish reuses
  // a retired record's delivery bitmap and hop histogram, and every
  // buffer recycles its slots: a sustained rate allocates nothing.
  LiveCast::Params params;
  params.fanout = 3;
  params.pullInterval = 0;
  params.bufferCapacity = 4;
  params.maxTrackedMessages = 4;
  SteadyHarness h(200, params);
  Rng origins(31);
  for (int i = 0; i < 40; ++i) h.live.publish(h.network.randomAlive(origins));

  const AllocScope allocs;
  for (int i = 0; i < 100; ++i) h.live.publish(h.network.randomAlive(origins));
  EXPECT_EQ(allocs.allocations(), 0u);
  EXPECT_EQ(h.live.steadyStats().published, 140u);
}

TEST(SteadyState, RedundancyRatioCountsDuplicates) {
  LiveCast::Params params;
  params.fanout = 4;
  SteadyHarness h(80, params);
  h.live.publish(0);
  const auto steady = h.live.steadyStats();
  // Fanout 4 over 80 nodes pushes ~4x80 messages for 80 first
  // deliveries: a clear redundant remainder.
  EXPECT_EQ(steady.firstDeliveries, 80u);
  EXPECT_GT(steady.redundantDeliveries, 0u);
  EXPECT_NEAR(steady.redundancyRatio(),
              static_cast<double>(steady.redundantDeliveries) / 80.0,
              1e-12);
}

TEST(SteadyState, MergeFoldsCountersPeaksAndFrontiers) {
  SteadyStateStats a;
  a.published = 10;
  a.retiredCompleted = 6;
  a.retiredAgedOut = 1;
  a.firstDeliveries = 600;
  a.pushDeliveries = 550;
  a.pullDeliveries = 50;
  a.redundantDeliveries = 120;
  a.trackedNow = 3;
  a.peakTracked = 4;
  a.trackedBitmapBytes = 180;
  a.peakTrackedBitmapBytes = 240;

  SteadyStateStats b;
  b.published = 5;
  b.retiredCompleted = 2;
  b.retiredAgedOut = 2;
  b.firstDeliveries = 200;
  b.pushDeliveries = 200;
  b.redundantDeliveries = 40;
  b.trackedNow = 1;
  b.peakTracked = 2;
  b.trackedBitmapBytes = 60;
  b.peakTrackedBitmapBytes = 120;

  SteadyStateStats m = a;
  m.merge(b);
  // Counters add...
  EXPECT_EQ(m.published, 15u);
  EXPECT_EQ(m.retired(), 11u);
  EXPECT_EQ(m.firstDeliveries, 800u);
  EXPECT_EQ(m.pushDeliveries, 750u);
  EXPECT_EQ(m.pullDeliveries, 50u);
  EXPECT_EQ(m.redundantDeliveries, 160u);
  // ...peaks take the max...
  EXPECT_EQ(m.peakTracked, 4u);
  EXPECT_EQ(m.peakTrackedBitmapBytes, 240u);
  // ...and concurrent live frontiers add (the memory is held at once).
  EXPECT_EQ(m.trackedNow, 4u);
  EXPECT_EQ(m.trackedBitmapBytes, 240u);
  EXPECT_NEAR(m.redundancyRatio(), 160.0 / 800.0, 1e-12);
}

TEST(SteadyState, MergeOfInstanceStatsEqualsTheCombinedAccounting) {
  // Two independent populations vs their SteadyStateStats merged: the
  // published/delivery counters of the union are exactly the sums.
  LiveCast::Params params;
  params.fanout = 3;
  params.maxTrackedMessages = 2;
  SteadyHarness h1(40, params, /*seed=*/1);
  SteadyHarness h2(30, params, /*seed=*/2);
  for (int i = 0; i < 4; ++i) h1.live.publish(0);
  for (int i = 0; i < 3; ++i) h2.live.publish(0);

  SteadyStateStats merged = h1.live.steadyStats();
  merged.merge(h2.live.steadyStats());
  EXPECT_EQ(merged.published, 7u);
  EXPECT_EQ(merged.firstDeliveries, 4u * 40u + 3u * 30u);
  EXPECT_EQ(merged.trackedNow, 4u);           // 2 tracked per instance
  EXPECT_EQ(merged.trackedBitmapBytes, 2u * 40u + 2u * 30u);
  EXPECT_EQ(merged.retired(), (4u - 2u) + (3u - 2u));

  // Merge is associative and commutative on these integer fields.
  SteadyStateStats other = h2.live.steadyStats();
  other.merge(h1.live.steadyStats());
  EXPECT_EQ(merged.published, other.published);
  EXPECT_EQ(merged.firstDeliveries, other.firstDeliveries);
  EXPECT_EQ(merged.peakTracked, other.peakTracked);
  EXPECT_EQ(merged.trackedBitmapBytes, other.trackedBitmapBytes);
}

// -- TrafficSource -------------------------------------------------------

TEST(TrafficSource, FixedRateAccumulatesFractionalPublishes) {
  SteadyHarness h(30);
  TrafficSource traffic(h.engine, h.network, h.live,
                        {.messagesPerCycle = 0.5, .poisson = false},
                        /*seed=*/9);
  h.engine.addControl(traffic);
  h.engine.run(10);
  // 0.5 msgs/cycle accumulates to exactly one publish every 2nd cycle.
  EXPECT_EQ(traffic.published(), 5u);
  EXPECT_EQ(h.live.steadyStats().published, 5u);
}

TEST(TrafficSource, PoissonRateHitsTheMeanRoughly) {
  SteadyHarness h(30);
  TrafficSource traffic(h.engine, h.network, h.live,
                        {.messagesPerCycle = 2.0, .poisson = true},
                        /*seed=*/10);
  h.engine.addControl(traffic);
  h.engine.run(50);
  // Mean 100, sigma 10: a deterministic draw within ±4 sigma.
  EXPECT_GT(traffic.published(), 60u);
  EXPECT_LT(traffic.published(), 140u);
}

TEST(TrafficSource, MaxMessagesStopsTheSource) {
  SteadyHarness h(30);
  TrafficSource traffic(h.engine, h.network, h.live,
                        {.messagesPerCycle = 5.0, .maxMessages = 7},
                        /*seed=*/11);
  h.engine.addControl(traffic);
  h.engine.run(20);
  EXPECT_EQ(traffic.published(), 7u);
  EXPECT_EQ(traffic.scheduled(), 7u);
}

TEST(TrafficSource, PublishHookSeesEveryMessage) {
  SteadyHarness h(30);
  TrafficSource traffic(h.engine, h.network, h.live,
                        {.messagesPerCycle = 1.0, .poisson = false,
                         .maxMessages = 6},
                        /*seed=*/12);
  std::vector<std::uint64_t> ids;
  std::uint64_t lastTick = 0;
  traffic.setPublishHook(
      [&](std::uint64_t dataId, NodeId origin, std::uint64_t tick) {
        ids.push_back(dataId);
        EXPECT_TRUE(h.network.isAlive(origin));
        EXPECT_GE(tick, lastTick);  // hook fires in tick order
        lastTick = tick;
      });
  h.engine.addControl(traffic);
  h.engine.run(10);
  ASSERT_EQ(ids.size(), 6u);
  for (std::size_t i = 1; i < ids.size(); ++i)
    EXPECT_GT(ids[i], ids[i - 1]);  // ids are fresh and increasing
}

TEST(TrafficSource, PoissonSamplerIsDeterministicAndSane) {
  Rng a(7), b(7);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(samplePoisson(a, 3.0), samplePoisson(b, 3.0));
  Rng zero(8);
  EXPECT_EQ(samplePoisson(zero, 0.0), 0u);
  // The chunked sampler handles means far beyond exp() underflow: the
  // draw stays near the mean instead of saturating or hanging.
  Rng big(9);
  double total = 0;
  for (int i = 0; i < 20; ++i) total += samplePoisson(big, 500.0);
  EXPECT_NEAR(total / 20.0, 500.0, 50.0);
}

}  // namespace
}  // namespace vs07::cast
