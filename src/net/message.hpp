// Wire-level message vocabulary of the protocol suite.
//
// Everything the protocols exchange fits three shapes: a gossip view
// exchange request, its reply, and a disseminated datagram. Messages are
// value types; the transports move them, never share them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/node_id.hpp"

namespace vs07::net {

/// One entry of a partial view as it travels on the wire: 8 bytes. A
/// peer's ring position is a pure function of its node, so it never
/// travels; each VICINITY instance reads it from its own profile table.
struct PeerDescriptor {
  NodeId node = kNoNode;
  /// Gossip age in cycles (CYCLON freshness).
  std::uint32_t age = 0;

  friend bool operator==(const PeerDescriptor&,
                         const PeerDescriptor&) = default;
};

/// Which protocol/phase a message belongs to.
enum class MessageKind : std::uint8_t {
  CyclonRequest = 1,
  CyclonReply = 2,
  VicinityRequest = 3,
  VicinityReply = 4,
  Data = 5,
  /// Anti-entropy digest (§8 pull extension): "here is what I have
  /// recently seen"; the receiver pushes back whatever is missing.
  PullRequest = 6,
};

/// Number of distinct MessageKind values (dense, starting at 1).
inline constexpr std::uint8_t kMessageKinds = 6;

/// Highest protocol channel supported (see Message::channel).
inline constexpr std::uint8_t kMaxChannel = 15;

/// A protocol message. Flat struct rather than a variant: the three shapes
/// share almost all fields and the simulator moves millions of these.
struct Message {
  MessageKind kind = MessageKind::Data;
  /// Protocol instance channel: distinguishes multiple instances of the
  /// same protocol (e.g. one VICINITY per ring in multi-ring RINGCAST).
  std::uint8_t channel = 0;
  NodeId from = kNoNode;
  /// View entries for gossip exchanges; empty for Data.
  std::vector<PeerDescriptor> entries;
  /// Dissemination id (unique per multicast) for Data; 0 otherwise.
  std::uint64_t dataId = 0;
  /// Hop count of a Data message (0 at the origin's send).
  std::uint32_t hop = 0;
  /// Bit flags (kFlagPullAnswer, ...).
  std::uint8_t flags = 0;
  /// Digest of recently-seen dissemination ids (PullRequest only).
  std::vector<std::uint64_t> ids;

  /// Resets every field to its default while *retaining* the heap
  /// capacity of `entries`/`ids` — the primitive behind buffer recycling:
  /// a reset message is semantically fresh but allocation-free to refill.
  void reset() noexcept {
    kind = MessageKind::Data;
    channel = 0;
    from = kNoNode;
    entries.clear();
    dataId = 0;
    hop = 0;
    flags = 0;
    ids.clear();
  }

  friend bool operator==(const Message&, const Message&) = default;
};

/// Member-wise swap: exchanges payload buffers without copying or
/// allocating. Queued transports use this to move a message into a pooled
/// slot while handing the slot's recycled buffers back to the sender's
/// scratch message.
inline void swap(Message& a, Message& b) noexcept {
  std::swap(a.kind, b.kind);
  std::swap(a.channel, b.channel);
  std::swap(a.from, b.from);
  a.entries.swap(b.entries);
  std::swap(a.dataId, b.dataId);
  std::swap(a.hop, b.hop);
  std::swap(a.flags, b.flags);
  a.ids.swap(b.ids);
}

/// Message::flags bit: this Data message answers a PullRequest (it is a
/// retransmission, not part of the original push wave).
inline constexpr std::uint8_t kFlagPullAnswer = 0x01;

/// Message::flags bit: this Data push belongs to a pull-recovery re-wave
/// — it descends from a pull answer, not from the origin's push wave —
/// so receivers keep it out of origin-wave hop accounting.
inline constexpr std::uint8_t kFlagRecoveryWave = 0x02;

/// Message::flags bit: this PullRequest carries a windowed digest, as
/// every PullRequest does: ids[0]/ids[1] are the inclusive [lo, hi]
/// dataId bounds of the advertised buffer window and ids[2..] the ids
/// held within it. The answerer offers random useful ids inside the
/// bounds (ids outside are beyond the requester's current recovery
/// horizon) and leaves a request without this bit unanswered.
inline constexpr std::uint8_t kFlagWindowedDigest = 0x04;

}  // namespace vs07::net
