#include "runtime/wire.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/codec.hpp"

namespace vs07::runtime {
namespace {

net::Message samplePayload() {
  net::Message m;
  m.kind = net::MessageKind::Data;
  m.channel = 2;
  m.from = 7;
  m.dataId = 0x1122334455667788ULL;
  m.hop = 3;
  m.entries = {{1, 4}, {9, 0}};
  return m;
}

std::vector<AddressEntry> sampleAnnex() {
  return {{1, {0x7F000001, 9001}}, {9, {0x0A0B0C0D, 40000}}};
}

TEST(Wire, GossipFrameRoundTrip) {
  const FrameHeader header{FrameKind::kGossip, 7, 9999};
  const net::Message payload = samplePayload();
  const auto annex = sampleAnnex();
  std::vector<std::uint8_t> bytes;
  encodeFrame(header, &payload, annex, bytes);

  net::Message decodedPayload;
  std::vector<AddressEntry> decodedAnnex;
  const DecodedFrame frame = decodeFrame(bytes, decodedPayload, decodedAnnex);
  EXPECT_EQ(frame.header.kind, FrameKind::kGossip);
  EXPECT_EQ(frame.header.sender, 7u);
  EXPECT_EQ(frame.header.senderPort, 9999);
  EXPECT_TRUE(frame.hasPayload);
  EXPECT_EQ(decodedPayload, payload);
  EXPECT_EQ(decodedAnnex, annex);
}

TEST(Wire, ControlFrameHasNoPayload) {
  const FrameHeader header{FrameKind::kHello, 3, 1234};
  std::vector<std::uint8_t> bytes;
  encodeFrame(header, nullptr, {}, bytes);

  net::Message payload;
  std::vector<AddressEntry> annex;
  const DecodedFrame frame = decodeFrame(bytes, payload, annex);
  EXPECT_EQ(frame.header.kind, FrameKind::kHello);
  EXPECT_FALSE(frame.hasPayload);
  EXPECT_TRUE(annex.empty());
}

TEST(Wire, EncodeReusesBufferCapacity) {
  const FrameHeader header{FrameKind::kWelcome, 0, 5555};
  const auto annex = sampleAnnex();
  std::vector<std::uint8_t> bytes;
  encodeFrame(header, nullptr, annex, bytes);
  const auto capacity = bytes.capacity();
  encodeFrame(header, nullptr, {}, bytes);  // smaller frame, same buffer
  EXPECT_GE(bytes.capacity(), capacity);
  net::Message payload;
  std::vector<AddressEntry> decodedAnnex;
  EXPECT_NO_THROW(decodeFrame(bytes, payload, decodedAnnex));
}

/// encodeFrame's size for a GOSSIP frame whose payload holds `entries`
/// view entries and `ids` digest ids, with an annex address per entry.
std::size_t encodedGossipBytes(net::MessageKind kind, std::size_t entries,
                               std::size_t ids) {
  net::Message payload;
  payload.kind = kind;
  payload.from = 1;
  std::vector<AddressEntry> annex;
  for (std::size_t i = 0; i < entries; ++i) {
    const auto node = static_cast<NodeId>(i);
    payload.entries.push_back({node, 3});
    annex.push_back({node, {0x7F000001, 9000}});
  }
  payload.ids.assign(ids, 42);
  std::vector<std::uint8_t> bytes;
  encodeFrame({FrameKind::kGossip, 1, 9000}, &payload, annex, bytes);
  return bytes.size();
}

TEST(Wire, FrameSizeHelpersMatchEncodeFrame) {
  using net::MessageKind;
  EXPECT_EQ(encodedGossipBytes(MessageKind::Data, 0, 0), gossipFrameBytes(0));
  EXPECT_EQ(gossipFrameBytes(0), 44u);
  // A CYCLON shuffle of 8 and a VICINITY offer of 10.
  EXPECT_EQ(encodedGossipBytes(MessageKind::CyclonRequest, 8, 0),
            gossipFrameBytes(8));
  EXPECT_EQ(gossipFrameBytes(8), 188u);
  EXPECT_EQ(encodedGossipBytes(MessageKind::VicinityRequest, 10, 0),
            gossipFrameBytes(10));
  EXPECT_EQ(gossipFrameBytes(10), 224u);
  // A pull digest: the default 16-id window and its two bounds.
  EXPECT_EQ(encodedGossipBytes(MessageKind::PullRequest, 0, 18),
            gossipFrameBytes(0, 18));
  EXPECT_EQ(gossipFrameBytes(0, 18), 188u);
  // A WELCOME at Bootstrap's default annexLimit of 64.
  const std::vector<AddressEntry> annex(64, {1, {0x7F000001, 9000}});
  std::vector<std::uint8_t> bytes;
  encodeFrame({FrameKind::kWelcome, 0, 9000}, nullptr, annex, bytes);
  EXPECT_EQ(bytes.size(), controlFrameBytes(64));
  EXPECT_EQ(controlFrameBytes(64), 656u);
}

TEST(Wire, DatagramBoundFallsBetweenTheLargestShapes) {
  // The largest CYCLON shuffle that fits one datagram is 75 entries,
  // and the largest WELCOME annex 138 addresses.
  EXPECT_EQ(encodedGossipBytes(net::MessageKind::CyclonRequest, 75, 0), 1394u);
  EXPECT_EQ(encodedGossipBytes(net::MessageKind::CyclonRequest, 76, 0), 1412u);
  EXPECT_LE(gossipFrameBytes(75), kMaxDatagramBytes);
  EXPECT_GT(gossipFrameBytes(76), kMaxDatagramBytes);
  EXPECT_LE(controlFrameBytes(138), kMaxDatagramBytes);
  EXPECT_GT(controlFrameBytes(139), kMaxDatagramBytes);
}

net::CodecErrorKind decodeFailure(std::span<const std::uint8_t> bytes) {
  net::Message payload;
  std::vector<AddressEntry> annex;
  try {
    (void)decodeFrame(bytes, payload, annex);
  } catch (const net::CodecError& error) {
    return error.kind();
  }
  ADD_FAILURE() << "decodeFrame unexpectedly succeeded";
  return net::CodecErrorKind::kTruncated;
}

std::vector<std::uint8_t> validFrame() {
  const FrameHeader header{FrameKind::kGossip, 7, 9999};
  const net::Message payload = samplePayload();
  const auto annex = sampleAnnex();
  std::vector<std::uint8_t> bytes;
  encodeFrame(header, &payload, annex, bytes);
  return bytes;
}

TEST(Wire, RejectsBadMagic) {
  auto bytes = validFrame();
  bytes[0] ^= 0xFF;
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadMagic);
}

TEST(Wire, RejectsBadVersion) {
  auto bytes = validFrame();
  bytes[2] = kFrameVersion + 1;
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadVersion);
}

TEST(Wire, RejectsBadKind) {
  auto bytes = validFrame();
  bytes[3] = 0;
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadKind);
  bytes[3] = kFrameKinds + 1;
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadKind);
}

TEST(Wire, RejectsOversizedPayloadLength) {
  auto bytes = validFrame();
  // u32 len lives at offset 10; claim > kMaxFramePayload.
  const std::uint32_t huge = kMaxFramePayload + 1;
  bytes[10] = static_cast<std::uint8_t>(huge);
  bytes[11] = static_cast<std::uint8_t>(huge >> 8);
  bytes[12] = static_cast<std::uint8_t>(huge >> 16);
  bytes[13] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadLength);
}

TEST(Wire, RejectsTruncationAtEveryPrefix) {
  const auto bytes = validFrame();
  net::Message payload;
  std::vector<AddressEntry> annex;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW((void)decodeFrame(prefix, payload, annex), net::CodecError)
        << "prefix length " << cut;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  auto bytes = validFrame();
  bytes.push_back(0);
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kTrailing);
}

TEST(Wire, RejectsHugeAnnexCount) {
  const FrameHeader header{FrameKind::kHello, 1, 2222};
  std::vector<std::uint8_t> bytes;
  encodeFrame(header, nullptr, {}, bytes);
  // The trailing u16 annex count is the last two bytes of this frame.
  bytes[bytes.size() - 2] = 0xFF;
  bytes[bytes.size() - 1] = 0xFF;
  EXPECT_EQ(decodeFailure(bytes), net::CodecErrorKind::kBadCount);
}

// Mutation fuzz across both layers: flipped bytes of a valid frame must
// either decode (header fields within range) or throw a typed CodecError
// — never crash or hang.
TEST(Wire, MutatedFramesNeverCrash) {
  Rng rng(1337);
  const auto base = validFrame();
  net::Message payload;
  std::vector<AddressEntry> annex;
  for (int trial = 0; trial < 4000; ++trial) {
    auto bytes = base;
    const auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng());
    try {
      (void)decodeFrame(bytes, payload, annex);
    } catch (const net::CodecError& error) {
      EXPECT_NE(net::codecErrorKindName(error.kind()), nullptr);
    }
  }
}

// Random byte strings (not derived from a valid frame) are rejected or
// decoded, never out-of-bounds.
TEST(Wire, RandomBytesNeverCrash) {
  Rng rng(99);
  net::Message payload;
  std::vector<AddressEntry> annex;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(96));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)decodeFrame(bytes, payload, annex);
    } catch (const net::CodecError&) {
      // expected for nearly all inputs
    }
  }
}

TEST(Wire, ParseAddressAcceptsNumericAndLocalhost) {
  const PeerAddress a = parseAddress("10.1.2.3", 8080);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.ipv4, 0x0A010203u);
  EXPECT_EQ(a.port, 8080);
  const PeerAddress b = parseAddress("localhost", 1);
  EXPECT_EQ(b.ipv4, 0x7F000001u);
  EXPECT_FALSE(parseAddress("not-a-host", 80).valid());
  EXPECT_FALSE(parseAddress("1.2.3", 80).valid());
  EXPECT_FALSE(parseAddress("10.1.2.3", 0).valid());
}

TEST(Wire, FormatAddressRendersDottedQuad) {
  EXPECT_EQ(formatAddress({0x7F000001, 9000}), "127.0.0.1:9000");
}

TEST(Wire, PeerTableLearnsAndCounts) {
  PeerTable table(4);
  EXPECT_EQ(table.knownCount(), 0u);
  EXPECT_FALSE(table.knows(2));
  table.learn(2, {0x7F000001, 7777}, AddressSource::kSelf);
  EXPECT_TRUE(table.knows(2));
  EXPECT_EQ(table.knownCount(), 1u);
  table.learn(2, {0x7F000001, 8888},
              AddressSource::kSelf);  // rebind: last writer wins
  EXPECT_EQ(table.lookup(2).port, 8888);
  EXPECT_EQ(table.knownCount(), 1u);
  table.learn(3, {0, 0}, AddressSource::kSelf);  // invalid: ignored
  EXPECT_FALSE(table.knows(3));

  std::vector<AddressEntry> out;
  table.learn(0, {0x7F000001, 1111}, AddressSource::kSelf);
  table.fillKnown(8, /*exclude=*/2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node, 0u);
}

TEST(Wire, PeerTableHintsNeverOverrideSelfTaughtAddresses) {
  // An annex entry is a third party's claim: it may fill a gap or
  // replace another hint, but one forged entry must not redirect a peer
  // whose own frames taught its address (an eclipse).
  PeerTable table(4);
  const PeerAddress hint{0x0A000001, 5000};
  const PeerAddress forged{0x0A0000FF, 6666};
  const PeerAddress own{0x0A000002, 7000};

  table.learn(1, hint, AddressSource::kHint);  // unknown: a hint fills it
  EXPECT_EQ(table.lookup(1), hint);
  table.learn(1, forged, AddressSource::kHint);  // hint over hint
  EXPECT_EQ(table.lookup(1), forged);

  table.learn(1, own, AddressSource::kSelf);  // the peer speaks: it wins
  EXPECT_EQ(table.lookup(1), own);
  table.learn(1, forged, AddressSource::kHint);  // ...and stays
  EXPECT_EQ(table.lookup(1), own);

  const PeerAddress rebound{0x0A000002, 7001};
  table.learn(1, rebound, AddressSource::kSelf);  // a rebind still lands
  EXPECT_EQ(table.lookup(1), rebound);
  table.learn(1, {0, 0}, AddressSource::kSelf);  // invalid: ignored
  EXPECT_EQ(table.lookup(1), rebound);
  EXPECT_EQ(table.knownCount(), 1u);
  EXPECT_FALSE(table.knows(2));
}

}  // namespace
}  // namespace vs07::runtime
