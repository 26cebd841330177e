#include "net/codec.hpp"

namespace vs07::net {

const char* codecErrorKindName(CodecErrorKind kind) noexcept {
  switch (kind) {
    case CodecErrorKind::kTruncated: return "truncated";
    case CodecErrorKind::kBadVersion: return "bad-version";
    case CodecErrorKind::kBadMagic: return "bad-magic";
    case CodecErrorKind::kBadKind: return "bad-kind";
    case CodecErrorKind::kBadChannel: return "bad-channel";
    case CodecErrorKind::kBadCount: return "bad-count";
    case CodecErrorKind::kBadLength: return "bad-length";
    case CodecErrorKind::kTrailing: return "trailing";
  }
  return "unknown";
}

void ByteWriter::u8(std::uint8_t v) { buf_->push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::patchU32(std::size_t at, std::uint32_t v) {
  auto& buf = *buf_;
  for (std::size_t i = 0; i < 4; ++i)
    buf.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n)
    throw CodecError(CodecErrorKind::kTruncated, "truncated message");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  const auto lo = u8();
  const auto hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::span<const std::uint8_t> ByteReader::bytesSpan(std::size_t n) {
  need(n);
  const auto out = bytes_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void encodeInto(const Message& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u8(msg.channel);
  w.u32(msg.from);
  w.u64(msg.dataId);
  w.u32(msg.hop);
  w.u8(msg.flags);
  w.u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const auto& e : msg.entries) {
    w.u32(e.node);
    w.u32(e.age);
  }
  w.u32(static_cast<std::uint32_t>(msg.ids.size()));
  for (const std::uint64_t id : msg.ids) w.u64(id);
}

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> out;
  encodeInto(msg, out);
  return out;
}

void decodeInto(std::span<const std::uint8_t> bytes, Message& out) {
  out.reset();
  ByteReader r(bytes);
  if (r.u8() != kWireVersion)
    throw CodecError(CodecErrorKind::kBadVersion, "unsupported wire version");
  const auto kind = r.u8();
  if (kind < static_cast<std::uint8_t>(MessageKind::CyclonRequest) ||
      kind > kMessageKinds)
    throw CodecError(CodecErrorKind::kBadKind, "unknown message kind");
  out.kind = static_cast<MessageKind>(kind);
  out.channel = r.u8();
  if (out.channel > kMaxChannel)
    throw CodecError(CodecErrorKind::kBadChannel, "channel out of range");
  out.from = r.u32();
  out.dataId = r.u64();
  out.hop = r.u32();
  out.flags = r.u8();
  const std::uint32_t count = r.u32();
  if (count > kMaxWireEntries)
    throw CodecError(CodecErrorKind::kBadCount, "entry count out of range");
  // Cheap structural check before reserving: the claimed entries cannot
  // outnumber the bytes left (8 bytes each), so a forged count inside
  // the cap still cannot force a large dead reservation.
  if (count > r.remaining() / 8)
    throw CodecError(CodecErrorKind::kTruncated, "truncated entry list");
  out.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PeerDescriptor e;
    e.node = r.u32();
    e.age = r.u32();
    out.entries.push_back(e);
  }
  const std::uint32_t idCount = r.u32();
  if (idCount > kMaxWireEntries)
    throw CodecError(CodecErrorKind::kBadCount, "id count out of range");
  if (idCount > r.remaining() / 8)
    throw CodecError(CodecErrorKind::kTruncated, "truncated id list");
  out.ids.reserve(idCount);
  for (std::uint32_t i = 0; i < idCount; ++i) out.ids.push_back(r.u64());
  if (!r.exhausted())
    throw CodecError(CodecErrorKind::kTrailing, "trailing bytes after message");
}

Message decode(std::span<const std::uint8_t> bytes) {
  Message msg;
  decodeInto(bytes, msg);
  return msg;
}

}  // namespace vs07::net
