// Bit-identical pin of sustained live push-pull traffic.
//
// A 300-node scenario under jittered timers and uniform 1..4-tick
// latency runs LiveCast push + pull with small buffers, a small tracked
// cap and a short completion linger, fed by a Poisson TrafficSource;
// 15 % of the nodes fail mid-run. At a few cycle marks the test dumps
// every tracked id's LiveMessageStats (completion and last-delivery
// ticks, the origin-wave hop histogram), the set of nodes it reached,
// steadyStats() and the LiveCast counters, and compares the JSON
// byte-for-byte with tests/data/live_traffic.golden.json. Completion
// detection, the linger sweep, the cap's victim rule, the pull windows
// and the recovery horizon all show up here as a byte diff.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./cast_live_traffic_golden_test
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "cast/live.hpp"
#include "cast/session.hpp"
#include "cast/traffic.hpp"
#include "common/json.hpp"
#include "harness/golden.hpp"
#include "sim/timing.hpp"

namespace vs07::cast {
namespace {

/// The nodes `dataId` reached, as a hex bitmap over node ids
/// 0..created-1 (digit k holds ids 4k..4k+3, lowest id in the lowest
/// bit): exact, and one line per message in the golden file.
std::string deliveredHex(const LiveCast& live, std::uint64_t dataId,
                         NodeId created) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (NodeId base = 0; base < created; base += 4) {
    unsigned nibble = 0;
    for (NodeId bit = 0; bit < 4 && base + bit < created; ++bit)
      if (live.hasDelivered(dataId, base + bit)) nibble |= 1u << bit;
    hex.push_back(kDigits[nibble]);
  }
  return hex;
}

Json messageJson(const LiveCast& live, const LiveMessageStats& stats,
                 NodeId created) {
  Json hops = Json::array();
  for (const std::uint64_t count : stats.newlyNotifiedPerHop)
    hops.push(count);
  Json out = Json::object();
  out.set("dataId", stats.dataId)
      .set("origin", stats.origin)
      .set("pushDelivered", stats.pushDelivered)
      .set("pullDelivered", stats.pullDelivered)
      .set("redundantDeliveries", stats.redundantDeliveries)
      .set("messagesSent", stats.messagesSent)
      .set("messagesToDead", stats.messagesToDead)
      .set("newlyNotifiedPerHop", std::move(hops))
      .set("lastHop", stats.lastHop)
      .set("publishedAtTick", stats.publishedAtTick)
      .set("lastDeliveryTick", stats.lastDeliveryTick)
      .set("completedAtTick", stats.completedAtTick)
      .set("delivered", deliveredHex(live, stats.dataId, created));
  return out;
}

Json snapshotJson(const analysis::Scenario& scenario, const LiveCast& live,
                  std::uint64_t published) {
  const NodeId created = scenario.network().totalCreated();
  Json tracked = Json::array();
  for (std::uint64_t id = 1; id <= published; ++id)
    if (live.isTracked(id))
      tracked.push(messageJson(live, live.stats(id), created));

  const SteadyStateStats steady = live.steadyStats();
  Json steadyJson = Json::object();
  steadyJson.set("published", steady.published)
      .set("retiredCompleted", steady.retiredCompleted)
      .set("retiredAgedOut", steady.retiredAgedOut)
      .set("firstDeliveries", steady.firstDeliveries)
      .set("pushDeliveries", steady.pushDeliveries)
      .set("pullDeliveries", steady.pullDeliveries)
      .set("redundantDeliveries", steady.redundantDeliveries)
      .set("trackedNow", steady.trackedNow)
      .set("peakTracked", steady.peakTracked)
      .set("trackedBitmapBytes", steady.trackedBitmapBytes)
      .set("peakTrackedBitmapBytes", steady.peakTrackedBitmapBytes);

  Json counters = Json::object();
  counters.set("pullRequests", live.pullRequestsSent())
      .set("pullAnswers", live.pullAnswersSent())
      .set("pushMessages", live.pushMessagesSent())
      .set("recoveryForwards", live.recoveryForwardsSent())
      .set("redundantDeliveries", live.redundantDeliveries())
      .set("horizonDrops", live.recoveryDropsBeyondHorizon());

  Json out = Json::object();
  out.set("cycle", scenario.engine().cycle())
      .set("alive", scenario.network().aliveCount())
      .set("tracked", std::move(tracked))
      .set("steady", std::move(steadyJson))
      .set("counters", std::move(counters));
  return out;
}

TEST(LiveTrafficGolden, TrackedMessagesAndCountersBitIdentical) {
  auto scenario = analysis::Scenario::builder()
                      .nodes(300)
                      .seed(2024)
                      .timing(sim::TimingConfig::jitteredLatency(
                          sim::LatencyModel::uniform(1, 4)))
                      .build();
  LiveCast& live = scenario
                       .liveSession({.strategy = Strategy::kPushPull,
                                     .fanout = 3,
                                     .seed = 5,
                                     .digestLength = 8,
                                     .bufferCapacity = 16,
                                     .maxTrackedMessages = 8,
                                     .completedLingerTicks = 4})
                       .live();
  sim::Engine& engine = scenario.engine();
  TrafficSource traffic(engine, scenario.network(), live,
                        {.messagesPerCycle = 3.0, .poisson = true},
                        /*seed=*/7);
  engine.addControl(traffic);

  Json marks = Json::array();
  for (int mark = 1; mark <= 4; ++mark) {
    engine.run(12);
    marks.push(snapshotJson(scenario, live, traffic.published()));
    // Mid-run failure: the last two marks measure completion against the
    // shrunken population, with dead forwarding paths for pull to repair.
    if (mark == 2) scenario.killRandomFraction(0.15);
  }
  harness::checkAgainstGolden("live_traffic.golden.json", marks.dump(2));
}

}  // namespace
}  // namespace vs07::cast
