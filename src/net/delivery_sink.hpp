// Delivery-sink vocabulary: the receiving side of every transport.
//
// Split out of transport.hpp so that sim/router.hpp and sim/engine.hpp
// can name the interface without pulling in the transport stack (event
// queue, message pool, rng) — and so transport headers stay includable
// from anywhere without cycles.
#pragma once

#include "net/message.hpp"

namespace vs07::net {

/// Receives a message addressed to `to`. Direct interface — one virtual
/// call, no std::function box — because every simulated message crosses
/// it. sim::MessageRouter is the canonical implementation.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;

  /// Takes ownership of `msg` (the caller recycles whatever buffers are
  /// left behind). Implementations must not retain references past the
  /// call.
  virtual void deliver(NodeId to, Message&& msg) = 0;
};

}  // namespace vs07::net
