#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

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
    msg.entries.push_back({static_cast<NodeId>(i + 10), 0, 0});
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
  EXPECT_EQ(t.inFlight(), 0u);
}

}  // namespace
}  // namespace vs07::net
