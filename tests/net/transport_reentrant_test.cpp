// Regression tests for re-entrant transport use: handlers that send new
// messages from inside a delivery callback (every forwarding protocol
// does this). An earlier queueing transport iterated its queue while
// handlers appended to it and then overwrote the queue, silently
// dropping everything sent during delivery. The engine-queue transport
// must neither lose such sends nor shortcut their latency.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/latency_transport.hpp"
#include "sim/network.hpp"

namespace vs07::net {
namespace {

Message dataMessage(std::uint64_t id) {
  Message m;
  m.kind = MessageKind::Data;
  m.from = 0;
  m.dataId = id;
  return m;
}

/// Each delivery below `lastId` sends the next id from inside the
/// handler; every delivery is logged as (id, engine tick).
struct ChainSink final : DeliverySink {
  void deliver(NodeId to, Message&& msg) override {
    delivered.emplace_back(msg.dataId, engine->tick());
    if (msg.dataId < lastId) transport->send(to, dataMessage(msg.dataId + 1));
  }
  sim::Engine* engine = nullptr;
  sim::LatencyTransport* transport = nullptr;
  std::uint64_t lastId = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delivered;
};

/// A one-tick-per-cycle engine (CycleSync) with a latency transport.
struct Chain {
  Chain(sim::LatencyModel latency, std::uint64_t lastId)
      : network(2, 1),
        engine(network, 2),
        transport(engine, sink, latency, /*seed=*/5) {
    sink.engine = &engine;
    sink.transport = &transport;
    sink.lastId = lastId;
  }
  sim::Network network;
  sim::Engine engine;
  ChainSink sink;
  sim::LatencyTransport transport;
};

TEST(LatencyTransport, SendsFromDeliveryHandlerAreNotLost) {
  Chain chain(sim::LatencyModel::fixed(1), /*lastId=*/10);
  chain.transport.send(1, dataMessage(1));
  chain.engine.run(20);
  ASSERT_EQ(chain.sink.delivered.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(chain.sink.delivered[i].first, i + 1);
  EXPECT_EQ(chain.transport.inFlight(), 0u);
}

TEST(LatencyTransport, ReentrantSendsRespectLatency) {
  Chain chain(sim::LatencyModel::fixed(2), /*lastId=*/2);
  chain.transport.send(1, dataMessage(1));  // due at tick 2
  chain.engine.run(2);                      // ticks 0 and 1
  EXPECT_TRUE(chain.sink.delivered.empty());
  chain.engine.run(1);  // tick 2: message 1 delivered; message 2 due at 4
  EXPECT_EQ(chain.sink.delivered.size(), 1u);
  chain.engine.run(1);
  EXPECT_EQ(chain.sink.delivered.size(), 1u);
  chain.engine.run(1);
  ASSERT_EQ(chain.sink.delivered.size(), 2u);
  EXPECT_EQ(chain.sink.delivered[0],
            (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
  EXPECT_EQ(chain.sink.delivered[1],
            (std::pair<std::uint64_t, std::uint64_t>{2, 4}));
}

TEST(LatencyTransport, RandomLatencyReentrantChainRunsToCompletion) {
  Chain chain(sim::LatencyModel::uniform(1, 3), /*lastId=*/50);
  chain.transport.send(1, dataMessage(1));
  for (int cycle = 0; cycle < 500 && chain.transport.inFlight() > 0; ++cycle)
    chain.engine.run(1);
  const auto& delivered = chain.sink.delivered;
  ASSERT_EQ(delivered.size(), 50u);
  EXPECT_EQ(chain.transport.inFlight(), 0u);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    const std::uint64_t gap = delivered[i].second - delivered[i - 1].second;
    EXPECT_GE(gap, 1u);  // every hop keeps its drawn latency
    EXPECT_LE(gap, 3u);
  }
}

}  // namespace
}  // namespace vs07::net
