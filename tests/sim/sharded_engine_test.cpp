// ShardedEngine mechanics: canonical cross-shard merge order, barrier
// semantics, RNG stream discipline, drop accounting — all asserted to be
// independent of the worker count.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "net/message.hpp"
#include "sim/network.hpp"
#include "sim/sharded_engine.hpp"

namespace vs07::sim {
namespace {

/// Records everything that happens to it, per node: deliveries as
/// (from, dataId) in arrival order, plus the first RNG draw of every
/// step. Each step sends a deterministic fan of messages; with `reply`
/// set, hop-0 messages are answered (hop 1), so every cycle exercises a
/// second delivery round. `capacity` sizes the per-node state (pass
/// spawn headroom when a control grows the population).
class RecordingProtocol final : public ShardedProtocol {
 public:
  RecordingProtocol(Network& network, std::uint32_t capacity, bool reply)
      : network_(network), reply_(reply) {
    deliveries.resize(capacity);
    draws.resize(capacity);
    sent_.resize(capacity, 0);
  }

  void onShardedAttach(std::uint32_t /*shardCount*/) {}

  void shardStep(NodeId self, ShardContext& ctx) override {
    draws[self].push_back(ctx.rng()());
    const auto n = network_.totalCreated();
    // Two destinations per step: a near one (often same shard) and a
    // strided one (usually a different shard).
    const NodeId targets[2] = {(self + 1) % n, (self * 7 + 3) % n};
    for (const NodeId to : targets) {
      if (to == self) continue;
      net::Message& msg = ctx.messageScratch();
      msg.reset();
      msg.kind = net::MessageKind::Data;
      msg.from = self;
      msg.hop = 0;
      msg.dataId = static_cast<std::uint64_t>(self) * 1'000'000 + sent_[self]++;
      ctx.transport().send(to, std::move(msg));
    }
  }

  bool shardDeliver(NodeId to, const net::Message& msg,
                    ShardContext& ctx) override {
    deliveries[to].emplace_back(msg.from, msg.dataId);
    if (reply_ && msg.hop == 0) {
      net::Message& reply = ctx.messageScratch();
      reply.reset();
      reply.kind = net::MessageKind::Data;
      reply.from = to;
      reply.hop = 1;
      reply.dataId = msg.dataId + 500'000'000ULL;
      ctx.transport().send(msg.from, std::move(reply));
    }
    return true;
  }

  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> deliveries;
  std::vector<std::vector<std::uint64_t>> draws;

 private:
  Network& network_;
  bool reply_;
  std::vector<std::uint32_t> sent_;
};

struct Run {
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> deliveries;
  std::vector<std::vector<std::uint64_t>> draws;
  std::uint64_t messagesSent;
  std::uint64_t droppedDead;
};

Run runRecording(std::uint32_t threads, std::uint32_t nodes,
                 std::uint64_t cycles) {
  Network network(nodes, /*seed=*/7);
  ShardedEngine engine(network, /*seed=*/99, threads);
  RecordingProtocol protocol(network, nodes, /*reply=*/true);
  engine.addProtocol(protocol);
  engine.run(cycles);
  return {std::move(protocol.deliveries), std::move(protocol.draws),
          engine.messagesSent(), engine.droppedDead()};
}

TEST(ShardedEngine, DeliveryOrderIdenticalAcrossThreadCounts) {
  const auto base = runRecording(1, 97, 4);
  for (const std::uint32_t threads : {2u, 3u, 8u}) {
    const auto run = runRecording(threads, 97, 4);
    EXPECT_EQ(base.deliveries, run.deliveries) << "threads=" << threads;
    EXPECT_EQ(base.messagesSent, run.messagesSent) << "threads=" << threads;
  }
}

TEST(ShardedEngine, RngStreamsIdenticalAcrossThreadCounts) {
  const auto base = runRecording(1, 64, 3);
  for (const std::uint32_t threads : {2u, 5u}) {
    const auto run = runRecording(threads, 64, 3);
    EXPECT_EQ(base.draws, run.draws) << "threads=" << threads;
  }
}

TEST(ShardedEngine, CanonicalOrderSortsBySenderThenSequence) {
  // 16 nodes share one step batch (ids [0,16) are one stripe), so with
  // replies off the whole cycle is a single delivery round: every node's
  // inbox — gathered from 4 different source shards — must come out
  // sorted by (sender, send-sequence), i.e. by our monotone dataId.
  Network network(16, 7);
  ShardedEngine engine(network, 99, 4);
  RecordingProtocol protocol(network, 16, /*reply=*/false);
  engine.addProtocol(protocol);
  engine.run(1);
  for (const auto& log : protocol.deliveries) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      const bool ordered =
          log[i - 1].first < log[i].first ||
          (log[i - 1].first == log[i].first &&
           log[i - 1].second < log[i].second);
      EXPECT_TRUE(ordered) << "out-of-order delivery pair at " << i;
    }
  }
}

TEST(ShardedEngine, MessagesToDeadNodesAreDroppedAndCounted) {
  Network network(32, 7);
  ShardedEngine engine(network, 99, 2);
  RecordingProtocol protocol(network, 32, /*reply=*/true);
  engine.addProtocol(protocol);
  network.kill(5);
  engine.run(2);
  EXPECT_GT(engine.droppedDead(), 0u);
  EXPECT_TRUE(protocol.deliveries[5].empty());
  EXPECT_EQ(engine.droppedUnroutable(), 0u);
  // Drop accounting is part of the deterministic result too.
  Network network2(32, 7);
  ShardedEngine engine2(network2, 99, 7);
  RecordingProtocol protocol2(network2, 32, /*reply=*/true);
  engine2.addProtocol(protocol2);
  network2.kill(5);
  engine2.run(2);
  EXPECT_EQ(engine.droppedDead(), engine2.droppedDead());
  EXPECT_EQ(protocol.deliveries, protocol2.deliveries);
}

/// Control that records the cycle numbers it runs at and spawns one node
/// per execution (exercising mid-run bookkeeping growth).
class SpawningControl final : public Control {
 public:
  explicit SpawningControl(Network& network) : network_(network) {}
  void execute(std::uint64_t cycle) override {
    cycles.push_back(cycle);
    network_.spawn(cycle);
  }
  std::vector<std::uint64_t> cycles;

 private:
  Network& network_;
};

TEST(ShardedEngine, ControlsRunSequentiallyAtCycleBoundaries) {
  Network network(20, 7);
  ShardedEngine engine(network, 99, 3);
  RecordingProtocol protocol(network, /*capacity=*/25, /*reply=*/true);
  engine.addProtocol(protocol);
  SpawningControl control(network);
  engine.addControl(control);
  engine.run(5);
  EXPECT_EQ(control.cycles, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(network.totalCreated(), 25u);
  EXPECT_EQ(engine.cycle(), 5u);
  // Spawned nodes step in later cycles: the first joiner (spawned at the
  // end of cycle 1) has stepped, the last (end of cycle 5) has not.
  EXPECT_FALSE(protocol.draws[20].empty());
  EXPECT_TRUE(protocol.draws[24].empty());
}

TEST(ShardedEngine, RunUntilStopsAtPredicate) {
  Network network(16, 7);
  ShardedEngine engine(network, 2, 2);
  RecordingProtocol protocol(network, 16, /*reply=*/true);
  engine.addProtocol(protocol);
  const auto ran =
      engine.runUntil([&] { return engine.cycle() >= 3; }, /*maxCycles=*/10);
  EXPECT_EQ(ran, 3u);
  EXPECT_EQ(engine.cycle(), 3u);
}

TEST(ShardedEngine, DestructionUnregistersMembershipObserver) {
  // The Network outlives the engine here; membership mutations after the
  // engine is gone must not reach its (destroyed) growth tracker.
  Network network(8, 7);
  {
    ShardedEngine engine(network, 2, 2);
    RecordingProtocol protocol(network, 8, /*reply=*/false);
    engine.addProtocol(protocol);
    engine.run(1);
  }
  network.spawn(1);  // would call through a dangling observer before the fix
  network.kill(0);
  EXPECT_EQ(network.aliveCount(), 8u);
}

TEST(ShardedEngine, ZeroThreadsIsAContractViolation) {
  Network network(4, 7);
  EXPECT_THROW(ShardedEngine(network, 2, 0), ContractViolation);
}

TEST(ShardedEngine, BatchAssignmentIsPartitionIndependent) {
  // batchOf is a pure function of the node id (never of the shard
  // layout); pin the stripe layout the determinism story depends on.
  EXPECT_EQ(ShardedEngine::batchOf(0), ShardedEngine::batchOf(15));
  EXPECT_NE(ShardedEngine::batchOf(15), ShardedEngine::batchOf(16));
  for (NodeId n = 0; n < 1024; ++n)
    EXPECT_LT(ShardedEngine::batchOf(n), ShardedEngine::kStepBatches);
}

/// Logs the engine tick of every step; sends nothing.
class StepTickProtocol final : public ShardedProtocol {
 public:
  StepTickProtocol(const ShardedEngine& engine, std::uint32_t capacity)
      : ticks(capacity), engine_(engine) {}

  void onShardedAttach(std::uint32_t /*shardCount*/) override {}
  void shardStep(NodeId self, ShardContext& /*ctx*/) override {
    ticks[self].push_back(engine_.tick());
  }
  bool shardDeliver(NodeId, const net::Message&, ShardContext&) override {
    return false;
  }

  std::vector<std::vector<std::uint64_t>> ticks;

 private:
  const ShardedEngine& engine_;
};

TEST(ShardedEngine, CycleSyncTicksCountStepBatches) {
  // Under CycleSync a cycle spans kStepBatches ticks, one per step batch:
  // in cycle c, node n steps at tick c * kStepBatches + batchOf(n).
  // 2000 nodes cover every batch stripe.
  constexpr std::uint32_t kNodes = 2'000;
  constexpr std::uint64_t kCycles = 3;
  Network network(kNodes, 7);
  ShardedEngine engine(network, 99, 3);
  StepTickProtocol protocol(engine, kNodes);
  engine.addProtocol(protocol);
  engine.run(kCycles);
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(protocol.ticks[n].size(), kCycles) << "node " << n;
    for (std::uint64_t c = 0; c < kCycles; ++c)
      EXPECT_EQ(protocol.ticks[n][c],
                c * ShardedEngine::kStepBatches + ShardedEngine::batchOf(n))
          << "node " << n << " cycle " << c;
  }
  EXPECT_EQ(engine.tick(), kCycles * ShardedEngine::kStepBatches);
}

}  // namespace
}  // namespace vs07::sim
