// LatencyTransport — message delivery through the engine's event queue.
//
// Every send() draws a latency from a LatencyModel (fixed / uniform /
// exponential ticks) and schedules the delivery on the engine's shared
// scheduler at delivery priority, so in-flight traffic interleaves with
// node gossip timers in deterministic (dueTick, priority, seq) order.
// There is no side heap and no separate clock, and latencies are
// meaningful at sub-cycle granularity under jittered timing. Payloads
// ride the engine's MessagePool (Engine::scheduleMessageDelivery), so a
// steady-state cycle's in-flight traffic is allocation-free.
//
// When a sim::NetworkModel is attached, every send is additionally
// resolved against the per-link condition layer at scheduling time:
// loss and partition vetoes drop the message before it ever reaches the
// queue, duplication schedules extra copies, and cluster latency /
// reordering / egress queueing fold into the delivery delay. The
// clean-link path (fate = one copy, no extra delay) stays
// allocation-free and takes the same pooled route as the model-less
// transport; only duplication copies a payload.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network_model.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {

/// net::Transport whose deliveries are events on an Engine's queue.
/// Non-owning: engine and sink must outlive the transport.
class LatencyTransport final : public net::Transport {
 public:
  LatencyTransport(Engine& engine, net::DeliverySink& sink,
                   LatencyModel latency, std::uint64_t seed);

  /// Schedules delivery `latency.draw()` ticks from the engine's current
  /// tick. A zero-tick draw still goes through the queue (it runs at the
  /// current tick, after already pending same-tick deliveries). With a
  /// network model attached, the message may instead be dropped
  /// (loss/partition), duplicated, or delayed further (reorder jitter,
  /// cluster latency, egress queueing) — all decided here, at
  /// scheduling time.
  void send(NodeId to, net::Message&& msg) override;

  /// Attaches the per-link condition layer (nullptr detaches). The
  /// model must outlive the transport; its counters record what
  /// happened to this transport's traffic.
  void setNetworkModel(NetworkModel* model) noexcept { model_ = model; }
  NetworkModel* networkModel() const noexcept { return model_; }

  /// Messages scheduled on the engine but not yet delivered (counts this
  /// transport's traffic only).
  std::size_t inFlight() const noexcept { return inFlight_; }

  const LatencyModel& latency() const noexcept { return latency_; }

 private:
  /// Inner sink the engine delivers to: maintains the in-flight counter,
  /// then forwards to the downstream sink.
  struct CountingSink final : net::DeliverySink {
    explicit CountingSink(LatencyTransport& owner) : owner(owner) {}
    void deliver(NodeId to, net::Message&& msg) override {
      --owner.inFlight_;
      owner.sink_.deliver(to, std::move(msg));
    }
    LatencyTransport& owner;
  };

  Engine& engine_;
  net::DeliverySink& sink_;
  CountingSink counting_{*this};
  LatencyModel latency_;
  Rng rng_;
  NetworkModel* model_ = nullptr;
  std::size_t inFlight_ = 0;
};

}  // namespace vs07::sim
