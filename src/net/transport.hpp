// Message transports.
//
// Protocols talk only to the Transport interface; the simulator wires a
// delivery sink underneath. Two implementations:
//   * ImmediateTransport — synchronous in-process delivery (the cycle-driven
//     model of the paper: an exchange completes within a cycle).
//   * sim::LatencyTransport — schedules every delivery on the engine's
//     shared event queue, with a per-message latency and, optionally, the
//     link-level conditions of a sim::NetworkModel (loss, partitions,
//     duplication, reordering, egress caps).
// The paper's evaluation is hop-based and latency-free (§7: uniform delay
// does not change macroscopic behaviour); the latency transport is how
// the timing and degraded-network experiments test that claim.
//
// Hot-path contract: send() consumes the message by rvalue reference and
// never copies it. A synchronous transport hands the same object to the
// sink; a queueing transport swaps the payload into a MessagePool slot,
// leaving the caller's message holding recycled buffers — protocols keep
// one scratch Message per shape and reset()+refill it each exchange, so a
// steady-state cycle performs zero per-message heap allocations.
#pragma once

#include <cstdint>

#include "net/delivery_sink.hpp"
#include "net/message.hpp"

namespace vs07::net {

/// Abstract one-way message channel between simulated nodes.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Attempts delivery of msg to `to`. May drop or delay depending on the
  /// implementation. `msg.from` must already be set by the caller. The
  /// message is consumed; on return the caller's object holds either its
  /// original payload (drop paths) or recycled buffers, and must be
  /// reset() before reuse.
  virtual void send(NodeId to, Message&& msg) = 0;

  /// Messages handed to send() so far (including ones later dropped).
  std::uint64_t sent() const noexcept { return sent_; }

 protected:
  void countSend() noexcept { ++sent_; }

 private:
  std::uint64_t sent_ = 0;
};

/// Delivers synchronously, inside send(), straight into `sink` (borrowed;
/// it must outlive the transport). Matches the paper's cycle model.
class ImmediateTransport final : public Transport {
 public:
  explicit ImmediateTransport(DeliverySink& sink) : sink_(sink) {}

  void send(NodeId to, Message&& msg) override;

 private:
  DeliverySink& sink_;
};

}  // namespace vs07::net
