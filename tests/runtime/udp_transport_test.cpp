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
#include <span>
#include <stdexcept>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
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

/// Sends `bytes` as one datagram from a fresh socket to 127.0.0.1:`port`;
/// true when the kernel took all of it.
bool sendRaw(std::uint16_t port, std::span<const std::uint8_t> bytes) {
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (raw < 0) return false;
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  dst.sin_addr.s_addr = htonl(0x7F000001);
  const auto sent =
      ::sendto(raw, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  ::close(raw);
  return sent == static_cast<ssize_t>(bytes.size());
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

TEST(UdpTransport, FrameAboveTheBoundIsAContractViolation) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  // 200 entries x 8 bytes each is well over kMaxDatagramBytes.
  EXPECT_THROW(a->transport.send(1, dataMessage(0, 200)), ContractViolation);
  EXPECT_EQ(a->transport.datagramsSent(), 0u);

  // Loopback keeps one socket's datagrams in order, so the frame that
  // fits arriving as the first and only one proves nothing went before.
  a->transport.send(1, dataMessage(0, 1));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return !b->sink.received.empty(); }));
  for (int i = 0; i < 5; ++i) b->transport.pump(2);
  EXPECT_EQ(b->transport.datagramsReceived(), 1u);
  ASSERT_EQ(b->sink.received.size(), 1u);
  EXPECT_EQ(b->sink.received.front().msg.entries.size(), 1u);
}

TEST(UdpTransport, DatagramAboveTheBoundIsMalformedUnread) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;

  // Well-formed GOSSIP frames without an annex: 44 + 8 bytes per entry.
  // 170 entries take 1,404 bytes, over the bound; 169 take 1,396.
  for (const std::size_t entries : {170u, 169u}) {
    const net::Message payload = dataMessage(0, entries);
    std::vector<std::uint8_t> frame;
    encodeFrame({FrameKind::kGossip, 0, a->transport.listenPort()}, &payload,
                {}, frame);
    ASSERT_EQ(frame.size(), 44 + 8 * entries);
    ASSERT_TRUE(sendRaw(b->transport.listenPort(), frame));
  }
  ASSERT_TRUE(pumpUntil(
      *a, *b, [&] { return b->transport.datagramsReceived() == 2; }));

  EXPECT_EQ(b->transport.droppedMalformed(), 1u);
  ASSERT_EQ(b->sink.received.size(), 1u);
  EXPECT_EQ(b->sink.received.front().msg.entries.size(), 169u);
}

TEST(UdpTransport, MalformedDatagramIsCountedNotFatal) {
  auto pair = makePair();
  SKIP_WITHOUT_SOCKETS(pair);
  auto& [a, b] = *pair;
  a->peers.learn(1, b->addr(), AddressSource::kSelf);

  // A valid frame after garbage proves the transport keeps running.
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(sendRaw(b->transport.listenPort(), garbage));
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
  for (const net::Message& payload : {forgedFrom, forgedEntry}) {
    std::vector<std::uint8_t> frame;
    encodeFrame({FrameKind::kGossip, 0, a->transport.listenPort()}, &payload,
                {}, frame);
    ASSERT_TRUE(sendRaw(b->transport.listenPort(), frame));
  }
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
  ASSERT_TRUE(sendRaw(a->transport.listenPort(), frame));
  ASSERT_TRUE(pumpUntil(*a, *b, [&] { return a->sink.received.size() == 2; }));

  EXPECT_EQ(a->peers.lookup(1), b->addr());  // self-taught address kept
  EXPECT_FALSE(a->peers.knows(0));  // the entry naming A was dropped
  EXPECT_EQ(a->peers.lookup(3), forged);  // a gap: the hint fills it
  EXPECT_EQ(a->peers.lookup(2), forged);  // the sender speaks for itself
}

/// Counts the bootstrap frames a transport hands over.
class CountingHandler final : public FrameHandler {
 public:
  void onFrame(const FrameHeader&, const PeerAddress&,
               std::span<const AddressEntry>) override {
    ++frames;
  }
  std::uint64_t frames = 0;
};

// Mutation fuzz of the whole receive path, through a real socket: seeded
// mutations of valid GOSSIP, HELLO and WELCOME frames are either
// dispatched or counted as malformed, never thrown out of service(), and
// the sink never sees an id outside the population.
TEST(UdpTransport, MutatedFramesAreDispatchedOrCountedMalformed) {
  constexpr std::uint32_t kNodes = 4;
  std::unique_ptr<Endpoint> b;
  try {
    b = std::make_unique<Endpoint>(1, kNodes);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback sockets unavailable here";
  }
  CountingHandler handler;
  b->transport.setFrameHandler(&handler);

  struct Shape {
    FrameHeader header;
    std::optional<net::Message> payload;
    std::vector<AddressEntry> annex;
  };
  const PeerAddress somewhere{0x7F000001, 4242};
  net::Message shuffle = dataMessage(0, 0);
  shuffle.kind = net::MessageKind::CyclonRequest;
  shuffle.entries = {{2, 1}, {3, 4}, {0, 0}};
  net::Message digest = dataMessage(3, 0);
  digest.kind = net::MessageKind::PullRequest;
  digest.flags = net::kFlagWindowedDigest;
  digest.ids = {0, ~std::uint64_t{0}, 7, 9};
  const std::vector<Shape> valid = {
      {{FrameKind::kGossip, 0, 4242}, shuffle,
       {{2, somewhere}, {3, somewhere}}},
      {{FrameKind::kGossip, 3, 4242}, digest, {}},
      {{FrameKind::kGossip, 2, 4242}, dataMessage(2, 0), {}},
      {{FrameKind::kHello, 2, 4242}, std::nullopt, {}},
      {{FrameKind::kWelcome, 0, 4242}, std::nullopt,
       {{2, somewhere}, {3, somewhere}, {0, somewhere}}},
  };

  Rng rng(20240611);
  const auto outsider = [&] {
    return static_cast<NodeId>(kNodes + rng.below(1u << 20));
  };
  std::vector<std::uint8_t> bytes;
  const auto mutate = [&](Shape shape) {
    const auto mutation = rng.below(4);
    if (mutation == 0) {  // a sender or an entry outside the population
      const auto where = rng.below(3);
      if (where == 0) {
        shape.header.sender = outsider();
      } else if (where == 1 && shape.payload) {
        shape.payload->from = outsider();
        shape.payload->entries.push_back({outsider(), 0});
      } else {
        shape.annex.push_back({outsider(), somewhere});
      }
    }
    encodeFrame(shape.header, shape.payload ? &*shape.payload : nullptr,
                shape.annex, bytes);
    if (mutation == 1) {  // truncation
      bytes.resize(rng.below(bytes.size()));
    } else if (mutation == 2) {  // byte flips
      for (auto flips = 1 + rng.below(4); flips > 0; --flips)
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
    } else if (mutation == 3) {  // extension past the bound
      bytes.resize(kMaxDatagramBytes + 1 + rng.below(64),
                   static_cast<std::uint8_t>(rng()));
    }
  };

  // Batches of 64 with a pump between them keep the socket's receive
  // buffer from overflowing, so every datagram sent is examined.
  std::uint64_t sent = 0;
  std::uint64_t dispatched = 0;
  for (int batch = 0; batch < 32; ++batch) {
    for (int i = 0; i < 64; ++i) {
      mutate(valid[rng.below(valid.size())]);
      ASSERT_TRUE(sendRaw(b->transport.listenPort(), bytes));
      ++sent;
    }
    for (int round = 0;
         round < 500 && b->transport.datagramsReceived() < sent; ++round)
      EXPECT_NO_THROW(dispatched += b->transport.pump(2));
  }

  EXPECT_EQ(b->transport.datagramsReceived(), sent);
  EXPECT_EQ(b->transport.datagramsReceived(),
            dispatched + b->transport.droppedMalformed());
  EXPECT_GT(b->transport.droppedMalformed(), 0u);
  EXPECT_GT(handler.frames, 0u);
  ASSERT_FALSE(b->sink.received.empty());
  for (const auto& item : b->sink.received) {
    EXPECT_LT(item.msg.from, kNodes);
    for (const auto& entry : item.msg.entries) EXPECT_LT(entry.node, kNodes);
  }
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
