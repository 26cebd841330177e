// Datagram envelope around net::codec messages for the real-socket
// runtime. Layout (little-endian, all fields fixed-width):
//
//   offset  field        notes
//   0       u16 magic    0x5637 ("V7") — rejects stray datagrams early
//   2       u8  version  kFrameVersion; anything else is kBadVersion
//   3       u8  kind     FrameKind (1 GOSSIP / 2 HELLO / 3 WELCOME)
//   4       u32 sender   NodeId of the sending process
//   8       u16 port     sender's UDP listen port (its IP comes from
//                        recvfrom, so every frame teaches the receiver
//                        the sender's full address)
//   10      u32 len      payload byte count (0 = no payload)
//   14      len bytes    net::codec-encoded Message (GOSSIP frames)
//   ..      u16 count    address annex entries
//   ..      count x {u32 node, u32 ipv4, u16 port}
//
// The annex is how third-party addresses propagate: a gossip frame
// carries the addresses of the peers named in its view entries, so a
// node that learns of a peer through CYCLON can also reach it. HELLO
// and WELCOME are payload-free bootstrap frames whose annex carries the
// joiner's (HELLO) and the seed's known peers' (WELCOME) addresses.
//
// One frame is one UDP datagram of at most kMaxDatagramBytes. The
// protocols only ever send a bounded view slice, one multicast message
// or a bounded digest window, so gossipFrameBytes() bounds every frame
// a configuration can build, and NodeProcess refuses at start one whose
// largest frame would not fit.
//
// Decoding reuses net::codec's ByteReader and CodecError (typed kinds),
// so one hardened error surface covers both layers; malformed frames of
// either layer are counted and dropped by the transport, never fatal.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "runtime/peer_table.hpp"

namespace vs07::runtime {

inline constexpr std::uint16_t kFrameMagic = 0x5637;  // "V7"
inline constexpr std::uint8_t kFrameVersion = 1;

/// Fixed bytes before the payload (through the len field).
inline constexpr std::size_t kFrameHeaderBytes = 14;

/// The largest frame, and so the largest datagram, the runtime sends or
/// reads: below typical path MTUs, so no frame relies on IP
/// fragmentation. A larger frame is a contract violation at send and
/// malformed at receive.
inline constexpr std::size_t kMaxDatagramBytes = 1400;

/// Decoder caps mirroring net::codec's hostile-input stance. A datagram
/// is too small to reach them; they keep decodeFrame's own contract for
/// bytes of any length.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;
inline constexpr std::uint32_t kMaxAnnexEntries = 1024;

/// Encoded bytes of a payload-free frame (HELLO, WELCOME) whose annex
/// holds `annex` addresses of {u32 node, u32 ipv4, u16 port}.
constexpr std::size_t controlFrameBytes(std::size_t annex) noexcept {
  return kFrameHeaderBytes + 2 + 10 * annex;
}

/// Encoded bytes of the largest GOSSIP frame whose net::codec payload
/// holds `entries` view entries and `ids` digest ids: the payload's 28
/// fixed bytes, 8 per entry and per id, and an annex address for every
/// entry. 44 fixed bytes, 18 per entry, 8 per id.
constexpr std::size_t gossipFrameBytes(std::size_t entries,
                                       std::size_t ids = 0) noexcept {
  return controlFrameBytes(entries) + 28 + 8 * entries + 8 * ids;
}

enum class FrameKind : std::uint8_t {
  kGossip = 1,   ///< carries one net::codec Message payload
  kHello = 2,    ///< joiner -> seed announce (no payload)
  kWelcome = 3,  ///< seed -> joiner admission + peer addresses
};
inline constexpr std::uint8_t kFrameKinds = 3;

/// One annex entry: a peer and where to reach it.
struct AddressEntry {
  NodeId node = kNoNode;
  PeerAddress addr{};

  friend bool operator==(const AddressEntry&, const AddressEntry&) = default;
};

/// The fixed header of every frame.
struct FrameHeader {
  FrameKind kind = FrameKind::kGossip;
  NodeId sender = kNoNode;
  std::uint16_t senderPort = 0;
};

/// Encodes header + optional payload + annex into `out` (cleared first;
/// capacity reused, so steady-state sends are allocation-free).
void encodeFrame(const FrameHeader& header, const net::Message* payload,
                 std::span<const AddressEntry> annex,
                 std::vector<std::uint8_t>& out);

/// Decodes one frame. The payload (if any) lands in `payloadScratch`
/// (reset + refilled, capacity reused) and the annex in `annex` (cleared
/// + refilled). Returns the header and whether a payload was present.
/// Throws net::CodecError (typed kind) on malformed input of either
/// layer; scratch buffers are then in an unspecified but valid state.
struct DecodedFrame {
  FrameHeader header;
  bool hasPayload = false;
};
DecodedFrame decodeFrame(std::span<const std::uint8_t> bytes,
                         net::Message& payloadScratch,
                         std::vector<AddressEntry>& annex);

}  // namespace vs07::runtime
