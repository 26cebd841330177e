// Seed-node announce ladder — how a fresh process obtains its first
// CYCLON view over the wire.
//
// The simulator bootstraps by construction (every Cyclon instance sees
// the whole population); a real process starts knowing exactly one
// address: the seed's. Joining is a two-frame ladder:
//
//       joiner                                 seed
//         | -- HELLO (header: id + listen port) -->|  admit() into view
//         |<-- WELCOME (annex: known peers) -------|  reply with addresses
//       seedView() from annex + seed
//
// HELLO retries with exponential backoff (base doubling up to a cap)
// until a WELCOME arrives or the attempt budget is spent — UDP may drop
// either frame, and the seed may simply not be up yet when a cluster
// harness launches every process at once. Each WELCOME carries up to
// `annexLimit` known peer addresses, so late joiners start with a
// populated view instead of a star around the seed; the gossip annex
// keeps spreading addresses from there.
//
// The seed itself starts kJoined with an empty view and learns its
// peers from their HELLOs. Any joined node answers HELLO the same way,
// so the ladder also serves re-bootstrap after a restart.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gossip/cyclon.hpp"
#include "runtime/peer_table.hpp"
#include "runtime/udp_transport.hpp"
#include "runtime/wire.hpp"

namespace vs07::runtime {

class Bootstrap final : public FrameHandler {
 public:
  enum class State : std::uint8_t {
    kAnnouncing,  ///< HELLOs in flight, no WELCOME yet
    kJoined,      ///< view seeded (or this node is the seed)
    kFailed,      ///< attempt budget spent without a WELCOME
  };

  struct Config {
    NodeId selfId = 0;
    /// Seeds skip the ladder entirely and answer everyone else's.
    bool isSeed = false;
    /// Where to HELLO (ignored for seeds).
    PeerAddress seedAddr{};
    /// First retry delay; doubles per attempt up to retryCapMs.
    std::uint32_t retryBaseMs = 100;
    std::uint32_t retryCapMs = 2000;
    /// HELLOs sent before giving up (kFailed).
    std::uint32_t maxAttempts = 20;
    /// Known-peer addresses carried per WELCOME; the frame must fit one
    /// datagram (at most 138).
    std::uint32_t annexLimit = 64;
  };

  /// Registers itself as `transport`'s frame handler. All references are
  /// borrowed and must outlive the bootstrap.
  Bootstrap(const Config& config, UdpTransport& transport, PeerTable& peers,
            gossip::Cyclon& cyclon);

  /// Drives the ladder: (re)sends HELLO when its deadline passed. Call
  /// from the main loop with wall-clock milliseconds (any monotonic
  /// origin; only differences matter).
  void tick(std::uint64_t nowMs);

  /// The next moment tick() wants to run, for the poll timeout;
  /// UINT64_MAX once the ladder is settled.
  std::uint64_t nextDeadlineMs() const noexcept;

  // FrameHandler — HELLO/WELCOME dispatch from the transport.
  void onFrame(const FrameHeader& header, const PeerAddress& from,
               std::span<const AddressEntry> annex) override;

  State state() const noexcept { return state_; }
  bool joined() const noexcept { return state_ == State::kJoined; }
  bool failed() const noexcept { return state_ == State::kFailed; }
  std::uint32_t attempts() const noexcept { return attempts_; }
  /// HELLOs answered with a WELCOME (seed-side diagnostic).
  std::uint64_t welcomed() const noexcept { return welcomed_; }

 private:
  void sendHello(std::uint64_t nowMs);

  Config config_;
  UdpTransport& transport_;
  PeerTable& peers_;
  gossip::Cyclon& cyclon_;

  State state_;
  std::uint32_t attempts_ = 0;
  std::uint64_t nextAttemptMs_ = 0;  // 0 = fire at the first tick
  std::uint64_t welcomed_ = 0;
  std::vector<AddressEntry> annexScratch_;
  std::vector<NodeId> viewScratch_;
};

}  // namespace vs07::runtime
