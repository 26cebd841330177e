// Loopback integration tests for the real-socket runtime: two (or more)
// UdpTransport instances in one process exchanging real datagrams over
// 127.0.0.1. Environments without sockets (restricted sandboxes) make
// the transport constructor throw; every test skips in that case rather
// than fail.
#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gossip/cyclon.hpp"
#include "net/delivery_sink.hpp"
#include "runtime/bootstrap.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::runtime {
namespace {

/// Collects everything a transport delivers.
class CaptureSink final : public net::DeliverySink {
 public:
  void deliver(NodeId to, net::Message&& msg) override {
    received.push_back({to, msg});
  }
  struct Item {
    NodeId to;
    net::Message msg;
  };
  std::vector<Item> received;
};

/// One in-process endpoint: transport + capture sink + address book.
struct Endpoint {
  explicit Endpoint(NodeId id, std::uint32_t nodes)
      : peers(nodes),
        transport({.selfId = id, .port = 0}, peers, sink) {}

  PeerAddress addr() const {
    return {0x7F000001, transport.listenPort()};
  }

  CaptureSink sink;
  PeerTable peers;
  UdpTransport transport;
};

/// Builds both endpoints, or nullopt when this host has no sockets.
std::optional<std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>>
makePair() {
  try {
    auto a = std::make_unique<Endpoint>(0, 2);
    auto b = std::make_unique<Endpoint>(1, 2);
    return std::make_pair(std::move(a), std::move(b));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

#define SKIP_WITHOUT_SOCKETS(pair)                                  \
  if (!(pair)) GTEST_SKIP() << "loopback sockets unavailable here"

/// Pumps both transports until `done` or the budget runs out.
template <typename Done>
bool pumpUntil(Endpoint& a, Endpoint& b, Done done) {
  for (int i = 0; i < 500 && !done(); ++i) {
    a.transport.pump(2);
    b.transport.pump(2);
  }
  return done();
}

net::Message dataMessage(NodeId from, std::size_t entryCount) {
  net::Message m;
  m.kind = net::MessageKind::Data;
  m.from = from;
  m.dataId = 0xD00D;
  m.hop = 1;
  for (std::size_t i = 0; i < entryCount; ++i)
    m.entries.push_back({static_cast<NodeId>(i % 2), 1});
  return m;
}

TEST(UdpTransport, DeliversGossipOverLoopback) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  a->transport.send(1, dataMessage(0, 3));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));

  const auto& item = b->sink.received.front();
  EXPECT_EQ(item.to, 1u);  // delivered as the receiving process's self
  EXPECT_EQ(item.msg.from, 0u);
  EXPECT_EQ(item.msg.dataId, 0xD00Du);
  ASSERT_EQ(item.msg.entries.size(), 3u);
  EXPECT_EQ(a->transport.datagramsSent(), 1u);
  EXPECT_EQ(b->transport.datagramsReceived(), 1u);
  EXPECT_EQ(b->transport.fallbackReceived(), 0u);
}

TEST(UdpTransport, ReceiverLearnsSenderAddressFromFrame) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);
  EXPECT_FALSE(b->peers.knows(0));

  a->transport.send(1, dataMessage(0, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));

  // The frame header carried A's listen port; the source IP came from
  // recvfrom. B can now reply without ever being configured with A.
  ASSERT_TRUE(b->peers.knows(0));
  EXPECT_EQ(b->peers.lookup(0), a->addr());
  b->transport.send(0, dataMessage(1, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !a->sink.received.empty(); }));
}

TEST(UdpTransport, SendToUnknownAddressCountsDrop) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  (void)b;
  a->transport.send(1, dataMessage(0, 1));
  EXPECT_EQ(a->transport.droppedNoAddress(), 1u);
  EXPECT_EQ(a->transport.datagramsSent(), 0u);
}

TEST(UdpTransport, HardSendErrorIsCountedNotSent) {
  // Regression: a hard sendto() failure used to count the frame as
  // *sent* (datagramsSent_ overcounted and the loss was invisible).
  // 255.255.255.255 without SO_BROADCAST fails immediately with EACCES —
  // a hard error, not EWOULDBLOCK — so the frame must land in
  // droppedSendError, not datagramsSent and not the retry queue.
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, PeerAddress{0xFFFFFFFF, b->transport.listenPort()},
                 AddressSource::kSelf);

  a->transport.send(1, dataMessage(0, 1));
  EXPECT_EQ(a->transport.droppedSendError(), 1u);
  EXPECT_EQ(a->transport.datagramsSent(), 0u);
  EXPECT_EQ(a->transport.retryPool().inUse(), 0u);

  // The transport keeps working: re-learning a good address delivers.
  a->peers.learn(1, b->addr(), AddressSource::kSelf);
  a->transport.send(1, dataMessage(0, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));
  EXPECT_EQ(a->transport.datagramsSent(), 1u);
  EXPECT_EQ(a->transport.droppedSendError(), 1u);
}

TEST(UdpTransport, OversizedFrameTakesTcpFallback) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  // 200 entries x 8 bytes each is well over the 1400-byte MTU.
  a->transport.send(1, dataMessage(0, 200));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));

  EXPECT_EQ(a->transport.datagramsSent(), 0u);
  EXPECT_EQ(a->transport.fallbackSent(), 1u);
  EXPECT_EQ(b->transport.fallbackReceived(), 1u);
  EXPECT_EQ(b->sink.received.front().msg.entries.size(), 200u);
}

TEST(UdpTransport, MalformedDatagramIsCountedNotFatal) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  // A valid frame after garbage proves the transport keeps running.
  int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(b->transport.listenPort());
  dst.sin_addr.s_addr = htonl(0x7F000001);
  ASSERT_GT(::sendto(raw, garbage.data(), garbage.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            0);
  ::close(raw);
  a->transport.send(1, dataMessage(0, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));
  EXPECT_EQ(b->transport.droppedMalformed(), 1u);
}

TEST(UdpTransport, OutOfPopulationIdsAreDroppedAsMalformed) {
  // The protocols index per-node state by every id a payload names, so
  // an id beyond the population must never reach them: one forged
  // datagram would otherwise end the receiving node's process.
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  const net::Message forgedFrom = dataMessage(7, 0);
  net::Message forgedEntry = dataMessage(0, 0);
  forgedEntry.kind = net::MessageKind::CyclonRequest;
  forgedEntry.entries = {{1, 0}, {9, 0}};
  int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(b->transport.listenPort());
  dst.sin_addr.s_addr = htonl(0x7F000001);
  for (const net::Message& payload : {forgedFrom, forgedEntry}) {
    std::vector<std::uint8_t> frame;
    encodeFrame({FrameKind::kGossip, 0, a->transport.listenPort()}, &payload,
                {}, frame);
    ASSERT_GT(::sendto(raw, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
              0);
  }
  ::close(raw);
  // A valid frame after the forged ones proves the transport keeps
  // running and that the forged payloads never reached the sink.
  a->transport.send(1, dataMessage(0, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));
  ASSERT_EQ(b->sink.received.size(), 1u);
  EXPECT_EQ(b->sink.received.front().msg.kind, net::MessageKind::Data);
  EXPECT_EQ(b->sink.received.front().msg.from, 0u);
  EXPECT_EQ(b->transport.droppedMalformed(), 2u);
}

TEST(UdpTransport, AnnexHintsCannotRedirectSelfTaughtPeers) {
  // One forged annex entry must not re-point a peer (an eclipse): B's
  // own frame pins B's address, an annex entry naming the receiver is
  // dropped, and an annex hint only fills a gap.
  std::unique_ptr<Endpoint> a;
  std::unique_ptr<Endpoint> b;
  try {
    a = std::make_unique<Endpoint>(0, 4);
    b = std::make_unique<Endpoint>(1, 4);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback sockets unavailable here";
  }
  b->peers.learn(0, a->addr(), AddressSource::kSelf);
  b->transport.send(0, dataMessage(1, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return a->sink.received.size() == 1; }));
  ASSERT_EQ(a->peers.lookup(1), b->addr());

  // Node 2 sends A a gossip frame whose annex claims B, A itself and
  // node 3 all live at the forged address.
  const PeerAddress forged{0x7F000001, 9};
  const std::vector<AddressEntry> annex = {{1, forged}, {0, forged},
                                           {3, forged}};
  const net::Message payload = dataMessage(2, 1);
  std::vector<std::uint8_t> frame;
  encodeFrame({FrameKind::kGossip, 2, forged.port}, &payload, annex, frame);
  int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(a->transport.listenPort());
  dst.sin_addr.s_addr = htonl(0x7F000001);
  ASSERT_GT(::sendto(raw, frame.data(), frame.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            0);
  ::close(raw);
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return a->sink.received.size() == 2; }));

  EXPECT_EQ(a->peers.lookup(1), b->addr());  // self-taught address kept
  EXPECT_FALSE(a->peers.knows(0));  // the entry naming A was dropped
  EXPECT_EQ(a->peers.lookup(3), forged);  // a gap: the hint fills it
  EXPECT_EQ(a->peers.lookup(2), forged);  // the sender speaks for itself
}

// The full ladder over real sockets: a seed and a joiner, each with its
// own process-local protocol stack, reach kJoined and seed each other's
// CYCLON views — the in-process twin of what vs07_node does at startup.
TEST(UdpTransport, BootstrapLadderJoins) {
  struct Stack {
    Stack(NodeId id, bool isSeed, PeerAddress seedAddr)
        : network(2, sim::populationSeed(7)),
          router(network),
          peers(2),
          transport({.selfId = id, .port = 0}, peers, router),
          cyclon(network, transport, router,
                 {.viewLength = 4, .shuffleLength = 2}, 7 + id),
          bootstrap({.selfId = id, .isSeed = isSeed, .seedAddr = seedAddr},
                    transport, peers, cyclon) {}

    sim::Network network;
    sim::MessageRouter router;
    PeerTable peers;
    UdpTransport transport;
    gossip::Cyclon cyclon;
    Bootstrap bootstrap;
  };

  std::unique_ptr<Stack> seed;
  try {
    seed = std::make_unique<Stack>(0, true, PeerAddress{});
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback sockets unavailable here";
  }
  Stack joiner(1, false,
               PeerAddress{0x7F000001, seed->transport.listenPort()});

  EXPECT_TRUE(seed->bootstrap.joined());   // seeds start joined
  EXPECT_FALSE(joiner.bootstrap.joined());

  std::uint64_t nowMs = 0;
  for (int i = 0; i < 500 && !joiner.bootstrap.joined(); ++i) {
    joiner.bootstrap.tick(nowMs);
    seed->bootstrap.tick(nowMs);
    joiner.transport.pump(2);
    seed->transport.pump(2);
    nowMs += 10;
  }
  ASSERT_TRUE(joiner.bootstrap.joined());
  EXPECT_EQ(seed->bootstrap.welcomed(), 1u);
  // The ladder seeded both views and both address books.
  EXPECT_TRUE(seed->cyclon.view(0).contains(1));
  EXPECT_TRUE(joiner.cyclon.view(1).contains(0));
  EXPECT_TRUE(seed->peers.knows(1));
  EXPECT_TRUE(joiner.peers.knows(0));
}

}  // namespace
}  // namespace vs07::runtime
