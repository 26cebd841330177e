#include "sim/latency_transport.hpp"

#include <utility>

namespace vs07::sim {

LatencyTransport::LatencyTransport(Engine& engine, net::DeliverySink& sink,
                                   LatencyModel latency, std::uint64_t seed)
    : engine_(engine), sink_(sink), latency_(latency), rng_(seed) {}

void LatencyTransport::send(NodeId to, net::Message&& msg) {
  countSend();
  if (model_ == nullptr) {
    ++inFlight_;
    engine_.scheduleMessageDelivery(latency_.draw(rng_), to, std::move(msg),
                                    counting_);
    return;
  }
  const NodeId src = msg.from;
  const std::uint64_t now = engine_.tick();
  const LinkFate fate = model_->resolve(src, to, now);
  // The sender transmits before the link can lose the message (or the
  // partition swallow it), so every attempted send consumes one egress
  // slot — loss never retroactively frees sender-side bandwidth.
  // Duplication is the network's doing, so extra copies cost none.
  const std::uint64_t egress = model_->egressDelay(src, now);
  if (fate.copies == 0) return;  // dropped; caller recycles the payload
  const std::uint64_t delay =
      model_->latencyTicks(src, to, latency_, rng_) + fate.extraDelayTicks +
      egress;
  // Extra copies (duplication) are scheduled first so the moved-from
  // original goes last; copies share the delay and arrive as distinct
  // queue events (the receiver counts them as redundant deliveries).
  for (std::uint32_t c = 1; c < fate.copies; ++c) {
    net::Message copy = msg;
    ++inFlight_;
    engine_.scheduleMessageDelivery(delay, to, std::move(copy), counting_);
  }
  ++inFlight_;
  engine_.scheduleMessageDelivery(delay, to, std::move(msg), counting_);
}

}  // namespace vs07::sim
