// Bit-identical pin of the sharded engine's schedule under every timing
// model it runs.
//
// The cross-thread conformance table only proves that the worker count
// never shows through; a change that altered the schedule the same way
// at every thread count would pass it. This suite pins the results
// themselves: a 300-node, two-ring scenario on three workers, warmed up,
// 5 % killed, then a few more cycles (once static, once under churn),
// under CycleSync, latency-free jittered timers, jittered timers with a
// zero-floor latency (same-tick deliveries mixed with parked ones), a
// fixed 2-tick latency (multi-tick windows) and a fixed 12-tick latency
// (traffic in flight across cycle boundaries). Each case dumps the
// engine counters, fig06-style RingCast and RandCast snapshot records at
// F = 1..3 and a per-node hash of the CYCLON view and both VICINITY
// views, compared byte-for-byte with tests/data/sharded_schedule.golden.json.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./sim_sharded_schedule_golden_test
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "cast/strategy.hpp"
#include "common/json.hpp"
#include "harness/golden.hpp"
#include "harness/view_hash.hpp"
#include "harness/view_invariants.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {
namespace {

struct ScheduleCase {
  const char* name;
  TimingConfig timing;
};

const ScheduleCase kCases[] = {
    {"cyclesync", TimingConfig::cycleSync()},
    {"jittered", TimingConfig::jittered()},
    {"jittered+uniform(0,3)",
     TimingConfig::jitteredLatency(LatencyModel::uniform(0, 3))},
    {"jittered+fixed(2)", TimingConfig::jitteredLatency(LatencyModel::fixed(2))},
    {"jittered+fixed(12)",
     TimingConfig::jitteredLatency(LatencyModel::fixed(12))},
};

/// One 8-hex-digit hash per node (CYCLON view, then each ring's VICINITY
/// view), 16 nodes to a line, so a diverging node is easy to locate.
Json viewHashes(const analysis::Scenario& scenario) {
  static constexpr char kDigits[] = "0123456789abcdef";
  static constexpr NodeId kPerLine = 16;
  Json lines = Json::array();
  const NodeId created = scenario.network().totalCreated();
  for (NodeId base = 0; base < created; base += kPerLine) {
    std::string line;
    for (NodeId n = base; n < created && n < base + kPerLine; ++n) {
      const std::uint64_t hash =
          harness::mixNodeViews(harness::kFnvOffsetBasis, scenario, n);
      const auto folded = static_cast<std::uint32_t>(hash ^ (hash >> 32));
      if (!line.empty()) line.push_back(' ');
      for (int shift = 28; shift >= 0; shift -= 4)
        line.push_back(kDigits[(folded >> shift) & 0xfu]);
    }
    lines.push(std::move(line));
  }
  return lines;
}

/// fig06-style frozen-overlay dissemination at F = 1..3, one line per
/// fanout.
Json records(const analysis::Scenario& scenario, cast::Strategy strategy) {
  Json out = Json::array();
  for (const std::uint32_t fanout : {1u, 2u, 3u}) {
    auto session = scenario.snapshotSession(
        {.strategy = strategy, .fanout = fanout, .seed = 17});
    const auto report = session.publishFromRandom();
    std::string hops;
    for (const std::uint64_t count : report.newlyNotifiedPerHop) {
      if (!hops.empty()) hops.push_back(' ');
      hops += std::to_string(count);
    }
    out.push("F=" + std::to_string(fanout) +
             " origin=" + std::to_string(report.origin) +
             " notified=" + std::to_string(report.notified) + "/" +
             std::to_string(report.aliveTotal) +
             " total=" + std::to_string(report.messagesTotal) +
             " virgin=" + std::to_string(report.messagesVirgin) +
             " redundant=" + std::to_string(report.messagesRedundant) +
             " toDead=" + std::to_string(report.messagesToDead) +
             " lastHop=" + std::to_string(report.lastHop) + " hops=[" +
             hops + "]");
  }
  return out;
}

Json runCase(const ScheduleCase& scheduleCase, bool churn) {
  auto builder = analysis::Scenario::builder()
                     .nodes(300)
                     .seed(1818)
                     .rings(2)
                     .engineThreads(3)
                     .warmupCycles(40)
                     .timing(scheduleCase.timing);
  if (churn) builder.churn(0.01);
  auto scenario = builder.build();
  EXPECT_TRUE(harness::viewsWellFormed(scenario)) << "after warm-up";
  harness::ViewInvariantControl invariants(scenario);
  scenario.shardedEngine()->addControl(invariants);
  scenario.killRandomFraction(0.05);
  scenario.runCycles(12);
  EXPECT_EQ(invariants.runs(), 12u);

  const ShardedEngine& engine = *scenario.shardedEngine();
  Json out = Json::object();
  out.set("case", std::string(scheduleCase.name) + (churn ? "/churn" : ""))
      .set("cycle", engine.cycle())
      .set("alive", scenario.network().aliveCount())
      .set("created", scenario.network().totalCreated())
      .set("messagesSent", engine.messagesSent())
      .set("droppedDead", engine.droppedDead())
      .set("droppedUnroutable", engine.droppedUnroutable())
      .set("storedInFlight", engine.storedInFlight())
      .set("shufflesInitiated", scenario.cyclon().shufflesInitiated())
      .set("ringcast", records(scenario, cast::Strategy::kRingCast))
      .set("randcast", records(scenario, cast::Strategy::kRandCast))
      .set("views", viewHashes(scenario));
  return out;
}

TEST(ShardedScheduleGolden, CountersRecordsAndViewsBitIdentical) {
  Json cases = Json::array();
  for (const auto& scheduleCase : kCases)
    for (const bool churn : {false, true})
      cases.push(runCase(scheduleCase, churn));
  harness::checkAgainstGolden("sharded_schedule.golden.json",
                              cases.dump(2) + "\n");
}

}  // namespace
}  // namespace vs07::sim
