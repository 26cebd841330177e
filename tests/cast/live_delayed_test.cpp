// LiveCast over a LatencyTransport: the asynchronous delivery path.
// With per-message latency, a push wave spreads over several engine ticks
// and the outbox trampoline must interleave correctly with queued
// delivery.
#include <gtest/gtest.h>

#include "cast/live.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/engine.hpp"
#include "sim/latency_transport.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::cast {
namespace {

/// Gossip runs on an immediate transport (the warm-up converges the
/// views); dissemination rides a LatencyTransport on the same
/// one-tick-per-cycle engine, so each engine cycle advances the wave by
/// one tick.
struct DelayedHarness {
  explicit DelayedHarness(std::uint32_t n, std::uint64_t seed = 1)
      : network(n, seed),
        router(network),
        immediate(router),
        engine(network, seed + 4),
        delayed(engine, router, sim::LatencyModel::uniform(1, 3), seed),
        cyclon(network, immediate, router, {20, 8}, seed + 1),
        vicinity(network, immediate, router, cyclon, {}, seed + 2),
        live(network, delayed, router, cyclon, &vicinity,
             {.fanout = 3, .pullInterval = 0}, seed + 3) {
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
    sim::bootstrapStar(network, cyclon);
    engine.run(100);
  }

  /// Runs engine cycles until nothing is left in flight.
  void drain() {
    for (int cycle = 0; cycle < 200 && delayed.inFlight() > 0; ++cycle)
      engine.run(1);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport immediate;
  sim::Engine engine;
  sim::LatencyTransport delayed;
  gossip::Cyclon cyclon;
  gossip::Vicinity vicinity;
  LiveCast live;
};

TEST(LiveCastDelayed, PushSpreadsOverTicksAndCompletes) {
  DelayedHarness h(300);
  const auto id = h.live.publish(0);
  // Nothing delivered yet beyond the origin: all sends are in flight.
  EXPECT_GT(h.live.missRatioPercentNow(id), 90.0);
  EXPECT_GT(h.delayed.inFlight(), 0u);

  // Progress is monotone tick by tick, and the wave eventually covers
  // everyone (static fail-free network: RingCast semantics are exact).
  double previous = h.live.missRatioPercentNow(id);
  for (int tick = 0; tick < 200 && h.delayed.inFlight() > 0; ++tick) {
    h.engine.run(1);
    const double current = h.live.missRatioPercentNow(id);
    EXPECT_LE(current, previous);
    previous = current;
  }
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);
  EXPECT_EQ(h.live.stats(id).pushDelivered, 300u);
}

TEST(LiveCastDelayed, DrainFlushesTheWholeWave) {
  DelayedHarness h(200, /*seed=*/2);
  const auto id = h.live.publish(5);
  h.drain();
  EXPECT_EQ(h.live.missRatioPercentNow(id), 0.0);
  EXPECT_EQ(h.delayed.inFlight(), 0u);
  EXPECT_EQ(h.engine.pendingDeliveries(), 0u);
}

TEST(LiveCastDelayed, TwoConcurrentWavesDoNotInterfere) {
  DelayedHarness h(200, /*seed=*/3);
  const auto a = h.live.publish(0);
  const auto b = h.live.publish(1);
  h.drain();
  EXPECT_EQ(h.live.missRatioPercentNow(a), 0.0);
  EXPECT_EQ(h.live.missRatioPercentNow(b), 0.0);
  EXPECT_EQ(h.live.stats(a).pushDelivered, 200u);
  EXPECT_EQ(h.live.stats(b).pushDelivered, 200u);
}

}  // namespace
}  // namespace vs07::cast
