// net::Transport over real nonblocking sockets — the bridge that runs the
// unmodified gossip/cast protocol stack between actual processes.
//
// One UdpTransport owns one nonblocking UDP socket, serviced from a
// poll(2) loop the caller drives; the transport never blocks. Every
// frame is one datagram of at most kMaxDatagramBytes (runtime/wire.hpp):
// sending a larger one is a contract violation, and a larger datagram
// arriving is counted as malformed without being decoded, so one
// datagram costs the receiver at most one bounded buffer.
//
// Zero-alloc discipline across the syscall boundary:
//   * sends encode into one reused buffer (encodeFrame clears, capacity
//     sticks);
//   * receives decode into one scratch Message via net::decodeInto and
//     hand it to the DeliverySink by rvalue — the router reads it by
//     const reference, so the scratch keeps its buffers;
//   * datagrams refused by the kernel (EWOULDBLOCK) park their payload
//     in a net::MessagePool retry queue and are re-encoded when the
//     socket turns writable, so a send burst degrades to pooled
//     buffering, not allocation or loss.
//
// Addressing: outbound frames resolve NodeId -> address through the
// PeerTable; inbound frames teach it (sender address from recvfrom +
// the header's listen port, third parties from the address annex).
// Unresolvable destinations are counted and dropped — to the protocol
// stack that is a lost datagram, which gossip tolerates by design.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/delivery_sink.hpp"
#include "net/message.hpp"
#include "net/message_pool.hpp"
#include "net/transport.hpp"
#include "runtime/peer_table.hpp"
#include "runtime/wire.hpp"

struct pollfd;  // <poll.h>; declared here so the header stays syscall-free

namespace vs07::runtime {

/// Receives bootstrap (non-GOSSIP) frames; implemented by Bootstrap.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual void onFrame(const FrameHeader& header, const PeerAddress& from,
                       std::span<const AddressEntry> annex) = 0;
};

class UdpTransport final : public net::Transport {
 public:
  struct Config {
    NodeId selfId = 0;
    /// UDP listen port; 0 binds an ephemeral port (see listenPort).
    std::uint16_t port = 0;
    /// Cap on datagrams parked in the EWOULDBLOCK retry queue.
    std::uint32_t maxQueuedSends = 1024;
  };

  /// Binds the socket. Throws std::runtime_error when sockets are
  /// unavailable (sandboxes without network) — callers treat that as
  /// "runtime not supported here" (tests skip).
  UdpTransport(const Config& config, PeerTable& peers,
               net::DeliverySink& sink);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // net::Transport — encode and transmit one gossip frame. Requires the
  // frame to fit one datagram (see gossipFrameBytes).
  void send(NodeId to, net::Message&& msg) override;

  /// Sends a payload-free bootstrap frame (HELLO/WELCOME) to an explicit
  /// address (the joiner knows the seed only by address at first).
  void sendControlFrame(FrameKind kind, const PeerAddress& to,
                        std::span<const AddressEntry> annex);

  /// Receiver of HELLO/WELCOME frames (GOSSIP goes to the sink). May be
  /// null: such frames are then dropped.
  void setFrameHandler(FrameHandler* handler) { frameHandler_ = handler; }

  /// The resolved listen port (differs from Config::port when that was 0).
  std::uint16_t listenPort() const noexcept { return port_; }

  /// Appends this transport's socket to `fds` (POLLIN always; POLLOUT
  /// while a write is parked). The caller polls, then calls service() —
  /// the transport re-checks readiness itself, so the caller never has
  /// to map entries back.
  void addPollFds(std::vector<::pollfd>& fds) const;

  /// Drains everything currently ready: receives and dispatches frames,
  /// flushes parked writes. Never blocks. Returns the number of frames
  /// dispatched.
  std::uint32_t service();

  /// poll(timeoutMs) on this transport's fds alone, then service().
  /// Convenience for tests and single-transport loops.
  std::uint32_t pump(int timeoutMs);

  // -- counters (control-socket stats surface) --------------------------
  std::uint64_t datagramsSent() const noexcept { return datagramsSent_; }
  std::uint64_t datagramsReceived() const noexcept {
    return datagramsReceived_;
  }
  std::uint64_t droppedNoAddress() const noexcept { return droppedNoAddress_; }
  /// Datagrams above kMaxDatagramBytes, frames that failed to decode,
  /// gossip frames without a payload, and payloads naming a node id
  /// outside the population.
  std::uint64_t droppedMalformed() const noexcept { return droppedMalformed_; }
  std::uint64_t droppedBacklog() const noexcept { return droppedBacklog_; }
  /// Frames lost to a hard socket error (sendto unreachable/refused).
  /// These were never on the wire, so they are *not* part of
  /// datagramsSent().
  std::uint64_t droppedSendError() const noexcept { return droppedSendError_; }
  std::uint64_t retriedSends() const noexcept { return retriedSends_; }
  /// The EWOULDBLOCK retry pool (diagnostics, like the engine's).
  const net::MessagePool& retryPool() const noexcept { return retryPool_; }

 private:
  /// What became of one sendto() attempt of sendBuf_.
  enum class SendOutcome : std::uint8_t {
    kSent,     ///< handed to the kernel
    kBlocked,  ///< send buffer full (EWOULDBLOCK family): park and retry
    kFailed,   ///< hard error (unreachable, refused, ...): frame is lost
  };

  void transmit(NodeId to, const PeerAddress& addr, net::Message& msg);
  /// Encodes `msg` into sendBuf_ with an annex of the addresses known
  /// for its entries.
  void encodeGossip(const net::Message& msg);
  /// Sends sendBuf_, which must fit one datagram (kMaxDatagramBytes).
  SendOutcome sendDatagram(const PeerAddress& addr);
  void flushRetryQueue();
  void receiveDatagrams();
  /// Decodes and dispatches one frame arriving from `fromIp`.
  void handleFrame(std::span<const std::uint8_t> bytes, std::uint32_t fromIp);

  NodeId selfId_;
  std::uint16_t port_ = 0;
  std::uint32_t maxQueuedSends_;
  PeerTable& peers_;
  net::DeliverySink& sink_;
  FrameHandler* frameHandler_ = nullptr;

  int udpFd_ = -1;

  // send path scratch
  std::vector<std::uint8_t> sendBuf_;
  std::vector<AddressEntry> annexScratch_;
  net::MessagePool retryPool_;
  std::vector<net::MessagePool::Slot> retryQueue_;

  // receive path scratch: one byte past the bound, so an oversized
  // datagram shows as a full buffer
  std::vector<std::uint8_t> recvBuf_;
  net::Message recvMsg_;
  std::vector<AddressEntry> recvAnnex_;

  std::uint32_t dispatched_ = 0;  // frames dispatched by current service()

  std::uint64_t datagramsSent_ = 0;
  std::uint64_t datagramsReceived_ = 0;
  std::uint64_t droppedNoAddress_ = 0;
  std::uint64_t droppedMalformed_ = 0;
  std::uint64_t droppedBacklog_ = 0;
  std::uint64_t droppedSendError_ = 0;
  std::uint64_t retriedSends_ = 0;
};

}  // namespace vs07::runtime
