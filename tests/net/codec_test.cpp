#include "net/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace vs07::net {
namespace {

Message sampleMessage() {
  Message m;
  m.kind = MessageKind::CyclonRequest;
  m.channel = 3;
  m.from = 42;
  m.dataId = 0xDEADBEEFCAFEBABEULL;
  m.hop = 7;
  m.entries = {{1, 10}, {2, 0}, {kNoNode, 99}};
  m.flags = kFlagPullAnswer;
  m.ids = {0xAAAA, 0xBBBB, 1};
  return m;
}

TEST(Codec, RoundTripAllFields) {
  const Message original = sampleMessage();
  const auto bytes = encode(original);
  const Message decoded = decode(bytes);
  EXPECT_EQ(decoded, original);
}

TEST(Codec, RoundTripEmptyEntries) {
  Message m;
  m.kind = MessageKind::Data;
  m.from = 0;
  m.dataId = 1;
  m.hop = 0;
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(Codec, RoundTripEveryKind) {
  for (const auto kind :
       {MessageKind::CyclonRequest, MessageKind::CyclonReply,
        MessageKind::VicinityRequest, MessageKind::VicinityReply,
        MessageKind::Data, MessageKind::PullRequest}) {
    Message m;
    m.kind = kind;
    m.from = 5;
    EXPECT_EQ(decode(encode(m)).kind, kind);
  }
}

TEST(Codec, TruncatedInputThrows) {
  const auto bytes = encode(sampleMessage());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode(prefix), CodecError) << "prefix length " << cut;
  }
}

TEST(Codec, TrailingBytesThrow) {
  auto bytes = encode(sampleMessage());
  bytes.push_back(0);
  EXPECT_THROW(decode(bytes), CodecError);
}

TEST(Codec, BadVersionThrows) {
  auto bytes = encode(sampleMessage());
  bytes[0] = 0xFF;
  EXPECT_THROW(decode(bytes), CodecError);
}

TEST(Codec, BadKindThrows) {
  auto bytes = encode(sampleMessage());
  bytes[1] = 0;  // kinds start at 1
  EXPECT_THROW(decode(bytes), CodecError);
  bytes[1] = kMessageKinds + 1;  // beyond PullRequest
  EXPECT_THROW(decode(bytes), CodecError);
}

TEST(Codec, BadChannelThrows) {
  auto bytes = encode(sampleMessage());
  bytes[2] = kMaxChannel + 1;
  EXPECT_THROW(decode(bytes), CodecError);
}

TEST(Codec, HugeCountsRejected) {
  Message m;
  m.kind = MessageKind::Data;
  auto bytes = encode(m);
  // An empty message ends with two zero u32 counts (entries, then ids);
  // forge a huge value into each in turn.
  for (const std::size_t countOffset :
       {bytes.size() - 4, bytes.size() - 8}) {
    auto forged = bytes;
    forged[countOffset] = 0xFF;
    forged[countOffset + 1] = 0xFF;
    forged[countOffset + 2] = 0xFF;
    forged[countOffset + 3] = 0x7F;
    EXPECT_THROW(decode(forged), CodecError);
  }
}

TEST(Codec, RandomBytesNeverCrash) {
  // Fuzz-style property: arbitrary byte strings either decode into a
  // message that re-encodes to the same bytes, or throw CodecError —
  // never anything else.
  Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      const Message m = decode(bytes);
      EXPECT_EQ(encode(m), bytes);
    } catch (const CodecError&) {
      // expected for malformed input
    }
  }
}

TEST(Codec, ByteOrderIsLittleEndian) {
  ByteWriter w;
  w.u32(0x01020304);
  const auto& bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(Codec, ReaderPrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0x89ABCDEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x89ABCDEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ReaderPastEndThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u8(), CodecError);
}

CodecErrorKind kindOfFailure(std::span<const std::uint8_t> bytes) {
  try {
    (void)decode(bytes);
  } catch (const CodecError& error) {
    return error.kind();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return CodecErrorKind::kTruncated;
}

TEST(Codec, ErrorKindsAreTyped) {
  const auto bytes = encode(sampleMessage());

  auto truncated = bytes;
  truncated.resize(3);
  EXPECT_EQ(kindOfFailure(truncated), CodecErrorKind::kTruncated);

  auto badVersion = bytes;
  badVersion[0] = kWireVersion + 1;
  EXPECT_EQ(kindOfFailure(badVersion), CodecErrorKind::kBadVersion);

  auto badKind = bytes;
  badKind[1] = kMessageKinds + 1;
  EXPECT_EQ(kindOfFailure(badKind), CodecErrorKind::kBadKind);

  auto badChannel = bytes;
  badChannel[2] = kMaxChannel + 1;
  EXPECT_EQ(kindOfFailure(badChannel), CodecErrorKind::kBadChannel);

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(kindOfFailure(trailing), CodecErrorKind::kTrailing);

  Message empty;
  empty.kind = MessageKind::Data;
  auto badCount = encode(empty);
  badCount[badCount.size() - 1] = 0x7F;  // ids count -> ~2 billion
  EXPECT_EQ(kindOfFailure(badCount), CodecErrorKind::kBadCount);
}

TEST(Codec, VersionOneBufferIsRefused) {
  // Version 1 carried a u64 ring position after each entry's node and
  // age; a receiver ranks peers by its own table now and refuses it.
  for (const std::uint32_t entries : {0u, 1u, 3u}) {
    ByteWriter w;
    w.u8(1);  // version
    w.u8(static_cast<std::uint8_t>(MessageKind::VicinityRequest));
    w.u8(0);        // channel
    w.u32(42);      // from
    w.u64(0);       // dataId
    w.u32(0);       // hop
    w.u8(0);        // flags
    w.u32(entries);
    for (std::uint32_t i = 0; i < entries; ++i) {
      w.u32(i + 1);                  // node
      w.u32(i);                      // age
      w.u64(0x5EC0000000000000ULL);  // profile
    }
    w.u32(0);  // ids
    EXPECT_EQ(kindOfFailure(w.bytes()), CodecErrorKind::kBadVersion)
        << entries << " entries";
  }
}

TEST(Codec, EntriesTakeEightBytesEach) {
  // 28 header and count bytes, then {u32 node, u32 age} per entry and a
  // u64 per id.
  Message m = sampleMessage();
  m.ids.clear();
  for (std::size_t n = 0; n < 5; ++n) {
    m.entries.resize(n);
    const auto bytes = encode(m);
    EXPECT_EQ(bytes.size(), 28 + 8 * n) << n << " entries";
    EXPECT_EQ(decode(bytes), m);
  }
}

TEST(Codec, EntryCountAboveRemainingOverEightIsTruncated) {
  // Three entries and no ids leave 3 * 8 + 4 bytes after the entry count:
  // a count of remaining / 8 + 1 fails the structural check before any
  // entry is read.
  Message m = sampleMessage();
  m.ids.clear();
  auto bytes = encode(m);
  const std::size_t remaining = 3 * 8 + 4;
  const std::size_t countAt = bytes.size() - remaining - 4;
  ASSERT_EQ(bytes[countAt], 3u);
  bytes[countAt] = static_cast<std::uint8_t>(remaining / 8 + 1);
  try {
    (void)decode(bytes);
    ADD_FAILURE() << "decode unexpectedly succeeded";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.kind(), CodecErrorKind::kTruncated);
    EXPECT_STREQ(error.what(), "truncated entry list");
  }
}

TEST(Codec, ErrorKindNamesAreStable) {
  EXPECT_STREQ(codecErrorKindName(CodecErrorKind::kTruncated), "truncated");
  EXPECT_STREQ(codecErrorKindName(CodecErrorKind::kBadVersion),
               "bad-version");
}

TEST(Codec, EncodeIntoAppendsAfterExistingBytes) {
  const Message m = sampleMessage();
  std::vector<std::uint8_t> out = {0xAA, 0xBB};
  encodeInto(m, out);
  ASSERT_GT(out.size(), 2u);
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[1], 0xBB);
  const std::span<const std::uint8_t> tail(out.data() + 2, out.size() - 2);
  EXPECT_EQ(decode(tail), m);
}

TEST(Codec, DecodeIntoReusesBuffersAcrossMessages) {
  Message scratch;
  const Message big = sampleMessage();
  decodeInto(encode(big), scratch);
  EXPECT_EQ(scratch, big);
  const auto entryCapacity = scratch.entries.capacity();

  Message small;
  small.kind = MessageKind::Data;
  small.from = 9;
  decodeInto(encode(small), scratch);
  EXPECT_EQ(scratch, small);
  // reset() keeps capacity: no reallocation when shrinking.
  EXPECT_GE(scratch.entries.capacity(), entryCapacity);
}

TEST(Codec, DecodeIntoThrowLeavesScratchReusable) {
  Message scratch;
  auto bytes = encode(sampleMessage());
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(decodeInto(bytes, scratch), CodecError);
  const Message m = sampleMessage();
  decodeInto(encode(m), scratch);
  EXPECT_EQ(scratch, m);
}

TEST(Codec, PatchU32Overwrites) {
  ByteWriter w;
  w.u16(7);
  const std::size_t at = w.size();
  w.u32(0);
  w.u8(3);
  w.patchU32(at, 0xCAFEF00D);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0xCAFEF00Du);
  EXPECT_EQ(r.u8(), 3);
}

TEST(Codec, ExternalWriterAppendsInPlace) {
  std::vector<std::uint8_t> buf = {1};
  ByteWriter w(buf);
  w.u16(0x0302);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Codec, BytesSpanConsumesAndBoundsChecks) {
  ByteWriter w;
  w.u32(0x04030201);
  ByteReader r(w.bytes());
  const auto span = r.bytesSpan(3);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], 0x01);
  EXPECT_THROW(r.bytesSpan(2), CodecError);
  EXPECT_EQ(r.u8(), 0x04);
}

// Mutation fuzz: flip bytes of valid encodings; decode must either throw
// a typed CodecError or produce a message that re-encodes canonically.
TEST(Codec, MutatedEncodingsNeverCrash) {
  Rng rng(4242);
  const auto base = encode(sampleMessage());
  for (int trial = 0; trial < 4000; ++trial) {
    auto bytes = base;
    const auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng());
    try {
      const Message m = decode(bytes);
      EXPECT_EQ(encode(m), bytes);
    } catch (const CodecError& error) {
      EXPECT_NE(codecErrorKindName(error.kind()), nullptr);
    }
  }
}

// Property-style sweep: random messages of random shapes must round-trip.
TEST(Codec, RandomRoundTripSweep) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Message m;
    m.kind = static_cast<MessageKind>(1 + rng.below(kMessageKinds));
    m.channel = static_cast<std::uint8_t>(rng.below(kMaxChannel + 1));
    m.from = static_cast<NodeId>(rng());
    m.dataId = rng();
    m.hop = static_cast<std::uint32_t>(rng());
    const auto count = rng.below(40);
    for (std::uint64_t i = 0; i < count; ++i)
      m.entries.push_back({static_cast<NodeId>(rng()),
                           static_cast<std::uint32_t>(rng())});
    m.flags = static_cast<std::uint8_t>(rng.below(2));
    const auto idCount = rng.below(30);
    for (std::uint64_t i = 0; i < idCount; ++i) m.ids.push_back(rng());
    EXPECT_EQ(decode(encode(m)), m);
  }
}

}  // namespace
}  // namespace vs07::net
