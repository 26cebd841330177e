// Timing-model tests for the discrete-event engine: CycleSync replay
// determinism, JitteredPeriodic phase semantics (independent per-node
// timers inside a cycle, controls at the cycle boundary, churn joiners),
// engine-queue deliveries, and the scenario-level acceptance pin that
// RINGCAST stays complete under jittered timing.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/scenario.hpp"
#include "cast/strategy.hpp"
#include "common/expect.hpp"
#include "sim/latency_transport.hpp"
#include "sim/network.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {
namespace {

/// Records (tick, node) for every step.
class TickRecorder final : public CycleProtocol {
 public:
  explicit TickRecorder(const Engine& engine) : engine_(&engine) {}
  void step(NodeId self) override {
    log.emplace_back(engine_->tick(), self);
  }
  std::vector<std::pair<std::uint64_t, NodeId>> log;

 private:
  const Engine* engine_;
};

class TickControl final : public Control {
 public:
  explicit TickControl(const Engine& engine) : engine_(&engine) {}
  void execute(std::uint64_t cycle) override {
    log.emplace_back(engine_->tick(), cycle);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log;

 private:
  const Engine* engine_;
};

TEST(EngineTiming, CycleSyncReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    Network net(40, 11);
    Engine engine(net, seed);
    TickRecorder recorder(engine);
    engine.addProtocol(recorder);
    engine.run(6);
    return recorder.log;
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(EngineTiming, CycleSyncAdvancesOneTickPerCycle) {
  Network net(10, 12);
  Engine engine(net, 13);
  TickRecorder recorder(engine);
  engine.addProtocol(recorder);
  engine.run(3);
  EXPECT_EQ(engine.cycle(), 3u);
  for (const auto& [tick, node] : recorder.log) EXPECT_LT(tick, 3u);
}

TEST(EngineTiming, JitteredEveryAliveNodeStepsOncePerCycle) {
  Network net(30, 14);
  Engine engine(net, 15, TimingConfig::jittered(8));
  TickRecorder recorder(engine);
  engine.addProtocol(recorder);
  engine.run(4);
  ASSERT_EQ(recorder.log.size(), 30u * 4u);
  // Each cycle spans 8 ticks; count per-node steps per cycle.
  for (std::uint64_t cycle = 0; cycle < 4; ++cycle) {
    std::vector<int> steps(30, 0);
    for (const auto& [tick, node] : recorder.log)
      if (tick / 8 == cycle) ++steps[node];
    for (NodeId id = 0; id < 30; ++id) EXPECT_EQ(steps[id], 1) << id;
  }
}

TEST(EngineTiming, JitteredPhasesSpreadStepsAcrossTicks) {
  Network net(64, 16);
  Engine engine(net, 17, TimingConfig::jittered(8));
  TickRecorder recorder(engine);
  engine.addProtocol(recorder);
  engine.run(1);
  std::set<std::uint64_t> ticks;
  for (const auto& [tick, node] : recorder.log) ticks.insert(tick);
  // 64 nodes across 8 phases: every phase occupied with overwhelming
  // probability, and certainly more than one.
  EXPECT_GT(ticks.size(), 1u);
  EXPECT_LE(ticks.size(), 8u);
}

TEST(EngineTiming, JitteredNodeKeepsItsPhaseAcrossCycles) {
  Network net(20, 18);
  Engine engine(net, 19, TimingConfig::jittered(8));
  TickRecorder recorder(engine);
  engine.addProtocol(recorder);
  engine.run(3);
  // A periodic timer: each node's step ticks are congruent mod 8.
  std::vector<std::set<std::uint64_t>> phases(20);
  for (const auto& [tick, node] : recorder.log)
    phases[node].insert(tick % 8);
  for (NodeId id = 0; id < 20; ++id) EXPECT_EQ(phases[id].size(), 1u) << id;
}

TEST(EngineTiming, JitteredControlsCloseTheCycleAfterAllSteps) {
  Network net(25, 20);
  Engine engine(net, 21, TimingConfig::jittered(8));
  TickRecorder recorder(engine);
  TickControl control(engine);
  engine.addProtocol(recorder);
  engine.addControl(control);
  engine.run(2);
  ASSERT_EQ(control.log.size(), 2u);
  // Controls run on the cycle's last tick, after every timer of that
  // cycle (timers have phases <= 7 and lower priority beats them there).
  EXPECT_EQ(control.log[0], (std::pair<std::uint64_t, std::uint64_t>{7, 1}));
  EXPECT_EQ(control.log[1], (std::pair<std::uint64_t, std::uint64_t>{15, 2}));
  for (const auto& [tick, node] : recorder.log) EXPECT_LE(tick, 15u);
}

TEST(EngineTiming, JitteredReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    Network net(40, 22);
    Engine engine(net, seed, TimingConfig::jittered(8));
    TickRecorder recorder(engine);
    engine.addProtocol(recorder);
    engine.run(5);
    return recorder.log;
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(99);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // phases differ: almost surely a different schedule
}

/// Control that spawns one node per cycle: joiners must receive a timer
/// phase from the engine's membership observer and start next cycle.
class SpawnerControl final : public Control {
 public:
  explicit SpawnerControl(Network& net) : net_(&net) {}
  void execute(std::uint64_t cycle) override { net_->spawn(cycle); }

 private:
  Network* net_;
};

TEST(EngineTiming, JitteredChurnJoinersGetTimersNextCycle) {
  Network net(10, 23);
  Engine engine(net, 24, TimingConfig::jittered(8));
  TickRecorder recorder(engine);
  SpawnerControl spawner(net);
  engine.addProtocol(recorder);
  engine.addControl(spawner);
  engine.run(4);
  // Node 10 spawned at end of cycle 1 -> steps in cycles 2, 3, 4 only.
  int steps = 0;
  for (const auto& [tick, node] : recorder.log)
    if (node == 10) {
      ++steps;
      EXPECT_GE(tick / 8, 1u);
    }
  EXPECT_EQ(steps, 3);
}

TEST(EngineTiming, ScheduledDeliveriesRunAtTheirDueTick) {
  Network net(5, 25);
  Engine engine(net, 26, TimingConfig::jittered(4));
  std::vector<std::uint64_t> deliveredAt;
  // Schedule from inside the run via a control so tick() is live.
  class Scheduler final : public Control {
   public:
    Scheduler(Engine& engine, std::vector<std::uint64_t>& log)
        : engine_(&engine), log_(&log) {}
    void execute(std::uint64_t cycle) override {
      if (cycle == 1)
        engine_->scheduleDelivery(5, [this] {
          log_->push_back(engine_->tick());
        });
    }

   private:
    Engine* engine_;
    std::vector<std::uint64_t>* log_;
  } scheduler(engine, deliveredAt);
  engine.addControl(scheduler);
  engine.run(4);
  // Scheduled at tick 3 (cycle 1's last tick) + 5 => due tick 8.
  ASSERT_EQ(deliveredAt.size(), 1u);
  EXPECT_EQ(deliveredAt[0], 8u);
  EXPECT_EQ(engine.pendingDeliveries(), 0u);
}

TEST(EngineTiming, LatencyTransportDeliversThroughTheEngineQueue) {
  Network net(4, 27);
  Engine engine(net, 28, TimingConfig::jittered(4));
  struct Sink final : net::DeliverySink {
    void deliver(NodeId to, net::Message&& m) override {
      deliveries.emplace_back(to, m.dataId);
    }
    std::vector<std::pair<NodeId, std::uint64_t>> deliveries;
  } sink;
  auto& deliveries = sink.deliveries;
  LatencyTransport transport(engine, sink, LatencyModel::fixed(2),
                             /*seed=*/1);
  net::Message msg;
  msg.kind = net::MessageKind::Data;
  msg.from = 0;
  msg.dataId = 7;
  transport.send(2, std::move(msg));
  EXPECT_EQ(engine.pendingDeliveries(), 1u);
  EXPECT_TRUE(deliveries.empty());
  engine.run(1);  // 4 ticks > 2-tick latency
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], (std::pair<NodeId, std::uint64_t>{2, 7}));
  EXPECT_EQ(engine.pendingDeliveries(), 0u);
}

TEST(EngineTiming, LatencyModelValidatesItsParameters) {
  EXPECT_THROW(LatencyModel::uniform(4, 1), ContractViolation);
  EXPECT_THROW(LatencyModel::exponential(0.0, 8), ContractViolation);
  EXPECT_THROW(LatencyModel::exponential(2.0, 0), ContractViolation);
}

TEST(EngineTiming, UniformMeanComputedInDouble) {
  // (minTicks + maxTicks) summed in uint32 would wrap for bounds near
  // the top of the range; the mean must come out exact regardless.
  const auto wide = LatencyModel::uniform(3'000'000'000u, 4'000'000'000u);
  EXPECT_DOUBLE_EQ(wide.meanTicks, 3.5e9);
  const auto degenerate = LatencyModel::uniform(4'000'000'000u,
                                                4'000'000'000u);
  EXPECT_DOUBLE_EQ(degenerate.meanTicks, 4e9);
  const auto small = LatencyModel::uniform(1, 4);
  EXPECT_DOUBLE_EQ(small.meanTicks, 2.5);
}

TEST(EngineTiming, MinLatencyTicksIsTheConservativeLookahead) {
  // minLatencyTicks() is the windowed sharded engine's lookahead: the
  // smallest delay any draw can return. kNone delivers synchronously
  // (lookahead 0 — per-tick windows); kExponential clamps draws up to
  // its floor of 1.
  EXPECT_EQ(LatencyModel::none().minLatencyTicks(), 0u);
  EXPECT_EQ(LatencyModel::fixed(0).minLatencyTicks(), 0u);
  EXPECT_EQ(LatencyModel::fixed(3).minLatencyTicks(), 3u);
  EXPECT_EQ(LatencyModel::uniform(0, 4).minLatencyTicks(), 0u);
  EXPECT_EQ(LatencyModel::uniform(2, 9).minLatencyTicks(), 2u);
  EXPECT_EQ(LatencyModel::exponential(4.0, 100).minLatencyTicks(), 1u);
  // No draw can undershoot the advertised lookahead.
  Rng rng(99);
  const auto model = LatencyModel::uniform(2, 9);
  for (int i = 0; i < 1000; ++i)
    EXPECT_GE(model.draw(rng), model.minLatencyTicks());
}

// -- scenario-level pins (the ISSUE acceptance criteria) -----------------

TEST(EngineTiming, JitteredStaticRingCastStillComplete) {
  auto scenario = analysis::Scenario::builder()
                      .nodes(400)
                      .seed(31)
                      .jitteredTiming()
                      .build();
  auto session = scenario.snapshotSession(
      {.strategy = cast::Strategy::kRingCast, .fanout = 3});
  const auto report = session.publishFromRandom();
  EXPECT_EQ(report.missRatioPercent(), 0.0);
  EXPECT_EQ(scenario.router().droppedUnroutable(), 0u);
}

TEST(EngineTiming, LatencyLadenLiveWaveCompletesAndIsTickStamped) {
  auto scenario = analysis::Scenario::builder()
                      .nodes(300)
                      .seed(32)
                      .jitteredTiming()
                      .latency(sim::LatencyModel::uniform(1, 4))
                      .build();
  auto& live = scenario.liveSession(
      {.strategy = cast::Strategy::kRingCast, .fanout = 3});
  const auto first = live.publishFromRandom();
  // The wave is still in flight right after publish: deliveries are
  // events on the engine queue, not synchronous calls.
  EXPECT_LT(first.notified, 300u);
  scenario.runCycles(300);
  const auto settled = live.report(live.lastDataId());
  EXPECT_EQ(settled.notified, 300u);
  const auto& stats = live.live().stats(live.lastDataId());
  EXPECT_GT(stats.spreadTicks(), 0u);
  EXPECT_EQ(scenario.router().droppedUnroutable(), 0u);
}

}  // namespace
}  // namespace vs07::sim
