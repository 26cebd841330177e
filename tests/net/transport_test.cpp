#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/latency_transport.hpp"
#include "sim/network.hpp"
#include "sim/network_model.hpp"

namespace vs07::net {
namespace {

struct Delivery {
  NodeId to;
  Message msg;
};

/// Records every delivery (by copy) for inspection.
struct RecordingSink final : DeliverySink {
  void deliver(NodeId to, Message&& msg) override {
    log.push_back({to, msg});
  }
  std::vector<Delivery> log;
};

Message dataMessage(NodeId from, std::uint64_t id) {
  Message m;
  m.kind = MessageKind::Data;
  m.from = from;
  m.dataId = id;
  return m;
}

TEST(ImmediateTransport, DeliversSynchronously) {
  RecordingSink sink;
  ImmediateTransport t(sink);
  t.send(7, dataMessage(1, 100));
  ASSERT_EQ(sink.log.size(), 1u);
  EXPECT_EQ(sink.log[0].to, 7u);
  EXPECT_EQ(sink.log[0].msg.dataId, 100u);
  EXPECT_EQ(t.sent(), 1u);
}

TEST(ImmediateTransport, ForwardsByMoveNotCopy) {
  // The message the sink receives must be the very object the caller
  // sent: same entry buffer, no copy anywhere on the path.
  struct PointerSink final : DeliverySink {
    void deliver(NodeId, Message&& msg) override {
      seenData = msg.entries.data();
      seenCount = msg.entries.size();
    }
    const PeerDescriptor* seenData = nullptr;
    std::size_t seenCount = 0;
  } sink;
  ImmediateTransport t(sink);

  Message msg;
  msg.kind = MessageKind::CyclonRequest;
  msg.from = 3;
  for (int i = 0; i < 6; ++i)
    msg.entries.push_back({static_cast<NodeId>(i + 10), 0});
  const PeerDescriptor* sentData = msg.entries.data();

  t.send(1, std::move(msg));
  EXPECT_EQ(sink.seenData, sentData) << "message was copied on the way down";
  EXPECT_EQ(sink.seenCount, 6u);
}

TEST(Transport, SentCounterCountsAttempts) {
  // Every link loses everything: sent() still counts both attempts, the
  // model attributes both drops to loss, and nothing is ever delivered.
  sim::Network network(4, 1);
  sim::Engine engine(network, 2);
  sim::NetworkConditions conditions;
  conditions.lossRate = 1.0;
  sim::NetworkModel model(conditions, network, /*ticksPerCycle=*/1,
                          /*seed=*/3);
  RecordingSink sink;
  sim::LatencyTransport t(engine, sink, sim::LatencyModel::fixed(1),
                          /*seed=*/4);
  t.setNetworkModel(&model);
  t.send(1, dataMessage(0, 1));
  t.send(1, dataMessage(0, 2));
  engine.run(3);
  EXPECT_EQ(t.sent(), 2u);  // attempts counted even when dropped
  EXPECT_EQ(model.droppedByLoss(), 2u);
  EXPECT_TRUE(sink.log.empty());
  EXPECT_EQ(engine.pendingDeliveries(), 0u);
}

TEST(LatencyTransport, EverySendIsDeliveredDroppedOrPending) {
  // Message conservation on the sequential path with every condition
  // on: each attempted send, plus each copy duplication adds, is either
  // delivered, dropped by loss or partition, or still pending on the
  // engine — at every cycle boundary, and with nothing left pending once
  // traffic stops. Deliveries forward a few hops from inside the
  // handler, so sends also happen mid-cycle.
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint32_t kTicksPerCycle = 4;
  sim::Network network(kNodes, 5);
  sim::Engine engine(network, 6, sim::TimingConfig::jittered(kTicksPerCycle));
  sim::NetworkConditions conditions;
  conditions.lossRate = 0.05;
  conditions.burstLoss = true;
  conditions.duplicateRate = 0.1;
  conditions.reorderRate = 0.2;
  conditions.reorderMaxTicks = 3;
  conditions.clusterLatency = {3, sim::LatencyModel::fixed(1),
                               sim::LatencyModel::uniform(2, 5)};
  conditions.bandwidth.messagesPerTick = 2;
  conditions.startCycle = 2;
  conditions.partition.kind =
      sim::NetworkConditions::PartitionPlan::Kind::kRingSplit;
  conditions.partition.windowsCycles = {{4, 7}};
  sim::NetworkModel model(conditions, network, kTicksPerCycle, /*seed=*/7);

  struct ForwardingSink final : DeliverySink {
    void deliver(NodeId to, Message&& msg) override {
      ++delivered;
      if (msg.hop >= 3) return;
      msg.from = to;
      ++msg.hop;
      transport->send((to + 1) % kNodes, std::move(msg));
    }
    Transport* transport = nullptr;
    std::uint64_t delivered = 0;
  } sink;
  sim::LatencyTransport t(engine, sink, sim::LatencyModel::uniform(1, 3),
                          /*seed=*/8);
  t.setNetworkModel(&model);
  sink.transport = &t;

  const auto accounted = [&] {
    return sink.delivered + model.droppedByLoss() +
           model.droppedByPartition() + engine.pendingDeliveries();
  };
  Rng rng(9);
  std::uint64_t nextId = 1;
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (NodeId from = 0; from < kNodes; ++from)
      t.send(static_cast<NodeId>(rng.below(kNodes)),
             dataMessage(from, nextId++));
    engine.run(1);
    ASSERT_EQ(t.sent() + model.duplicated(), accounted()) << "cycle " << cycle;
  }
  for (int cycle = 0; cycle < 100 && engine.pendingDeliveries() > 0; ++cycle)
    engine.run(1);
  EXPECT_EQ(engine.pendingDeliveries(), 0u);
  EXPECT_EQ(t.sent() + model.duplicated(), accounted());
  // Every condition left a mark.
  EXPECT_GT(model.droppedByLoss(), 0u);
  EXPECT_GT(model.droppedByPartition(), 0u);
  EXPECT_GT(model.duplicated(), 0u);
  EXPECT_GT(model.reordered(), 0u);
  EXPECT_GT(model.queuedSends(), 0u);
}

}  // namespace
}  // namespace vs07::net
