// Binary serialisation of protocol messages (little-endian, length-prefixed).
//
// The simulator delivers Message values in-process, but this wire format
// is what the real-socket runtime (src/runtime/) actually puts on UDP, so
// decode treats its input as hostile: truncated, over-long, oversized or
// bad-version buffers raise a typed CodecError instead of reading out of
// bounds or allocating unbounded memory.
//
// Layout (version 2): u8 version, u8 kind, u8 channel, u32 from,
// u64 dataId, u32 hop, u8 flags, u32 entry count, then per entry
// {u32 node, u32 age}, then u32 id count and one u64 per id. Entries
// carry no ring position: every process builds the same population, so a
// receiver ranks peers by its own profile table (version 1 carried a u64
// profile per entry; decode now refuses it).
//
// Invariants: decode(encode(m)) == m for every representable Message
// (field order and integer widths are fixed, independent of host
// endianness), and every malformed input is rejected with a CodecError
// whose kind() names the failure — both pinned by
// tests/net/codec_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"

namespace vs07::net {

/// Version byte leading every encoded Message. Bumped on any layout
/// change; decode rejects everything else (kBadVersion).
inline constexpr std::uint8_t kWireVersion = 2;

/// Sanity cap on entry/id counts: a view exchange carries at most a few
/// dozen entries; anything claiming more is corrupt input, not a big
/// view. Also bounds the memory one hostile datagram can make a decoder
/// reserve.
inline constexpr std::uint32_t kMaxWireEntries = 1u << 16;

/// What exactly a decode rejected (the typed half of CodecError).
enum class CodecErrorKind : std::uint8_t {
  kTruncated = 0,   ///< input ended before the structure did
  kBadVersion,      ///< unknown wire version byte
  kBadMagic,        ///< wrong envelope magic (runtime frames)
  kBadKind,         ///< message/frame kind outside the known range
  kBadChannel,      ///< channel above kMaxChannel
  kBadCount,        ///< entry/id/annex count above its sanity cap
  kBadLength,       ///< embedded length field inconsistent or oversized
  kTrailing,        ///< well-formed structure followed by extra bytes
};

/// Name of a kind for error messages ("truncated", "bad-version", ...).
const char* codecErrorKindName(CodecErrorKind kind) noexcept;

/// Thrown on malformed input to decode functions.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(CodecErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  CodecErrorKind kind() const noexcept { return kind_; }

 private:
  CodecErrorKind kind_;
};

/// Append-only little-endian byte writer. Owns its buffer by default; the
/// borrowing constructor appends into a caller-owned vector instead, so
/// steady-state encoders (the runtime send path) reuse one buffer across
/// frames without copies.
class ByteWriter {
 public:
  ByteWriter() : buf_(&owned_) {}
  /// Appends into `external` (not cleared). The vector must outlive the
  /// writer; take() is not available in this mode.
  explicit ByteWriter(std::vector<std::uint8_t>& external) noexcept
      : buf_(&external) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Overwrites a previously written u32 at byte offset `at` (length
  /// back-patching for envelope framing). Requires at + 4 <= size.
  void patchU32(std::size_t at, std::uint32_t v);

  std::size_t size() const noexcept { return buf_->size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return *buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(owned_); }

 private:
  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_;
};

/// Bounds-checked little-endian byte reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();

  /// The next `n` bytes as a subspan (consumed). Throws kTruncated.
  std::span<const std::uint8_t> bytesSpan(std::size_t n);

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Encodes a message into self-contained bytes.
std::vector<std::uint8_t> encode(const Message& msg);

/// Allocation-reusing variant: appends the encoding to `out` (not
/// cleared, so envelope headers can precede it; clear first for a bare
/// message).
void encodeInto(const Message& msg, std::vector<std::uint8_t>& out);

/// Decodes bytes produced by encode(). Throws CodecError on malformed or
/// trailing input.
Message decode(std::span<const std::uint8_t> bytes);

/// Allocation-reusing variant: decodes into `out` (reset first; entry and
/// id buffer capacity is retained). On throw `out` is valid but holds an
/// unspecified partial decode — reset() it before reuse.
void decodeInto(std::span<const std::uint8_t> bytes, Message& out);

}  // namespace vs07::net
