// Bit-identical pin of every link-level network condition.
//
// No other golden runs the NetworkModel: the benches cover loss,
// clusters, egress caps and ring-split partitions at most, and none of
// them burst loss, duplication or a ring-arc partition. This suite
// builds a 300-node, two-ring scenario for each condition set on its
// own and for all of them together, under CycleSync and under jittered
// timers (the combined set once more under churn), warms it up, runs a
// LiveCast push-pull session through six publishes from random origins
// and six further cycles, and dumps:
//   * every publish's DeliveryReport;
//   * the model's seven counters;
//   * the transport's sends and the router's drop counters;
//   * the engine's tick and pending deliveries;
//   * one hash over every node's CYCLON view and both VICINITY views.
// The JSON is compared byte-for-byte with
// tests/data/network_conditions.golden.json, so any change to the order
// or the number of the model's draws shows up as a byte diff. Under
// CycleSync a tick is a whole cycle, so the sets that add latency or an
// egress cap stretch every hop over cycles and their push waves barely
// leave the origin within the settle window; they still pin every draw.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./sim_network_conditions_golden_test
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "cast/session.hpp"
#include "cast/strategy.hpp"
#include "common/json.hpp"
#include "harness/golden.hpp"
#include "harness/view_hash.hpp"
#include "harness/view_invariants.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {
namespace {

using analysis::ScenarioBuilder;

/// Warm-up length; the loss and burst sets degrade links from its end.
constexpr std::uint64_t kWarmup = 20;

void loss(ScenarioBuilder& b) {
  b.linkLoss(0.05).conditionsFromCycle(kWarmup);
}

void burst(ScenarioBuilder& b) {
  b.burstLoss({.pGoodToBad = 0.1,
               .pBadToGood = 0.3,
               .lossGood = 0.01,
               .lossBad = 0.6})
      .conditionsFromCycle(kWarmup);
}

void duplication(ScenarioBuilder& b) { b.duplication(0.05); }

void reordering(ScenarioBuilder& b) {
  b.latency(LatencyModel::uniform(1, 3)).reordering(0.1, 4);
}

void clusters(ScenarioBuilder& b) {
  b.clusterLatency(3, LatencyModel::fixed(1), LatencyModel::uniform(2, 6));
}

void egress(ScenarioBuilder& b) {
  b.latency(LatencyModel::fixed(1)).egressCap(2);
}

/// Publishes start at cycles 20, 24, 28, ... (each settles four
/// cycles), so both blackout windows cut through two publishes.
void ringSplit(ScenarioBuilder& b) {
  b.partitionRingSplit(3, 22, 26).partitionRingSplit(3, 30, 34);
}

void ringArc(ScenarioBuilder& b) { b.partitionRingArc(0.3, 24, 30); }

/// Every condition at once. A scenario holds one partition grouping, so
/// the ring split stands in for both partition plans.
void all(ScenarioBuilder& b) {
  loss(b);
  burst(b);
  duplication(b);
  reordering(b);
  clusters(b);
  b.egressCap(2);
  ringSplit(b);
}

struct ConditionCase {
  const char* name;
  void (*apply)(ScenarioBuilder&);
};

const ConditionCase kCases[] = {
    {"loss", loss},
    {"burst", burst},
    {"duplication", duplication},
    {"reordering", reordering},
    {"clusters", clusters},
    {"egress", egress},
    {"ring-split", ringSplit},
    {"ring-arc", ringArc},
    {"all", all},
};

/// One hash over every node's CYCLON view and each ring's VICINITY view.
std::string viewHash(const analysis::Scenario& scenario) {
  std::uint64_t hash = harness::kFnvOffsetBasis;
  const NodeId created = scenario.network().totalCreated();
  for (NodeId n = 0; n < created; ++n)
    hash = harness::mixNodeViews(hash, scenario, n);
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (int shift = 60; shift >= 0; shift -= 4)
    hex.push_back(kDigits[(hash >> shift) & 0xfu]);
  return hex;
}

std::string reportLine(const cast::DeliveryReport& report) {
  std::string hops;
  for (const std::uint64_t count : report.newlyNotifiedPerHop) {
    if (!hops.empty()) hops.push_back(' ');
    hops += std::to_string(count);
  }
  return "origin=" + std::to_string(report.origin) +
         " notified=" + std::to_string(report.notified) + "/" +
         std::to_string(report.aliveTotal) +
         " push=" + std::to_string(report.pushDelivered) +
         " pull=" + std::to_string(report.pullDelivered) +
         " total=" + std::to_string(report.messagesTotal) +
         " virgin=" + std::to_string(report.messagesVirgin) +
         " redundant=" + std::to_string(report.messagesRedundant) +
         " toDead=" + std::to_string(report.messagesToDead) +
         " pullRequests=" + std::to_string(report.pullRequests) +
         " lastHop=" + std::to_string(report.lastHop) + " hops=[" + hops +
         "]";
}

Json runCase(const ConditionCase& conditionCase, bool jittered, bool churn) {
  ScenarioBuilder builder = analysis::Scenario::builder();
  builder.nodes(300).seed(2020).rings(2).warmupCycles(kWarmup);
  if (jittered) builder.jitteredTiming();
  conditionCase.apply(builder);
  if (churn) builder.churn(0.01);
  auto scenario = builder.build();
  auto& session = scenario.liveSession({.strategy = cast::Strategy::kPushPull,
                                        .fanout = 3,
                                        .seed = 11,
                                        .settleCycles = 4,
                                        .digestLength = 8,
                                        .bufferCapacity = 16});
  EXPECT_TRUE(harness::viewsWellFormed(scenario)) << "after warm-up";
  harness::ViewInvariantControl invariants(scenario);
  scenario.engine().addControl(invariants);
  Json publishes = Json::array();
  for (int i = 0; i < 6; ++i)
    publishes.push(reportLine(session.publishFromRandom()));
  scenario.runCycles(6);
  // Six publishes settle for four cycles each, then six more cycles.
  EXPECT_EQ(invariants.runs(), 6u * 4u + 6u);

  const NetworkModel& model = *scenario.networkModel();
  Json counters = Json::object();
  counters.set("droppedByLoss", model.droppedByLoss())
      .set("droppedByPartition", model.droppedByPartition())
      .set("duplicated", model.duplicated())
      .set("reordered", model.reordered())
      .set("queuedSends", model.queuedSends())
      .set("queuedDelayTotal", model.queuedDelayTotal())
      .set("maxQueueDelay", model.maxQueueDelay());

  std::string name = conditionCase.name;
  name += jittered ? "/jittered" : "/cyclesync";
  if (churn) name += "/churn";
  Json out = Json::object();
  out.set("case", name)
      .set("publishes", std::move(publishes))
      .set("model", std::move(counters))
      .set("sent", scenario.latencyTransport()->sent())
      .set("droppedDead", scenario.router().droppedDead())
      .set("droppedUnroutable", scenario.router().droppedUnroutable())
      .set("tick", scenario.engine().tick())
      .set("pendingDeliveries", scenario.engine().pendingDeliveries())
      .set("views", viewHash(scenario));
  return out;
}

TEST(NetworkConditionsGolden, ReportsCountersAndViewsBitIdentical) {
  Json cases = Json::array();
  for (const auto& conditionCase : kCases)
    for (const bool jittered : {false, true})
      cases.push(runCase(conditionCase, jittered, /*churn=*/false));
  cases.push(runCase(kCases[std::size(kCases) - 1], /*jittered=*/true,
                     /*churn=*/true));
  harness::checkAgainstGolden("network_conditions.golden.json",
                              cases.dump(2) + "\n");
}

}  // namespace
}  // namespace vs07::sim
