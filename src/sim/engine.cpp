#include "sim/engine.hpp"

#include <utility>

namespace vs07::sim {

Engine::Engine(Network& network, std::uint64_t seed, TimingConfig timing)
    : CycleDriver(network, timing),
      rng_(seed),
      phaseRng_(mix64(seed ^ 0x70686173ULL)) {  // "phas"
  VS07_EXPECT(timing_.ticksPerCycle >= 1);
  // Replays existing ids through assignPhase and keeps following spawns,
  // so every node (initial population and churn joiners alike) owns a
  // timer phase before its first cycle.
  network_.addObserver(phases_);
}

Engine::~Engine() { network_.removeObserver(phases_); }

void Engine::addProtocol(CycleProtocol& protocol) {
  protocols_.push_back(&protocol);
}

void Engine::runOneCycle() {
  const std::uint64_t start = nextCycleStart_;
  const std::uint32_t span = timing_.ticksPerCycle;
  if (timing_.mode == TimingMode::kCycleSync) {
    // One global timer: the entire synchronous round is a single event at
    // the cycle's first tick (cycle-sync *means* all timers coincide).
    queue_.schedule(start, kPriorityTimer, [this] { sweepCycleSync(); });
  } else {
    // Independent periodic timers: each alive node fires once, at its own
    // phase offset. Nodes joining mid-cycle (via a control) start next
    // cycle; nodes killed mid-cycle are skipped by stepNode's alive check.
    // Nodes are bucketed by phase and each occupied tick scheduled as one
    // event — same execution order as one event per node (buckets keep
    // aliveIds order, exactly the seq tiebreak's order), at ticksPerCycle
    // events per cycle instead of population-many.
    buckets_.resize(span);
    for (auto& bucket : buckets_) bucket.clear();
    for (const NodeId node : network_.aliveIds())
      buckets_[phase_[node]].push_back(node);
    for (std::uint32_t offset = 0; offset < span; ++offset) {
      if (buckets_[offset].empty()) continue;
      queue_.schedule(start + offset, kPriorityTimer, [this, offset] {
        for (const NodeId node : buckets_[offset]) stepNode(node);
      });
    }
  }
  // Controls close the cycle on its last tick, after every timer (same
  // tick, higher priority class) — churn and probes still see cycle
  // boundaries regardless of the timing model.
  queue_.schedule(start + span - 1, kPriorityControl, [this] { closeCycle(); });
  for (std::uint64_t t = start; t < start + span; ++t) {
    tick_ = t;
    queue_.advanceTo(t);
  }
  nextCycleStart_ = start + span;
}

void Engine::sweepCycleSync() {
  order_ = network_.aliveIds();
  rng_.shuffle(order_);
  for (const NodeId node : order_) stepNode(node);
}

void Engine::stepNode(NodeId node) {
  if (!network_.isAlive(node)) return;
  const std::uint32_t steps =
      boost_ ? std::max<std::uint32_t>(1, boost_(node, cycle())) : 1;
  for (std::uint32_t s = 0; s < steps; ++s)
    for (auto* protocol : protocols_) protocol->step(node);
}

void Engine::scheduleDelivery(std::uint64_t delayTicks,
                              EventQueue::Action action) {
  ++pendingDeliveries_;
  queue_.schedule(tick_ + delayTicks, kPriorityDelivery,
                  [this, action = std::move(action)] {
                    --pendingDeliveries_;
                    action();
                  });
}

void Engine::scheduleMessageDelivery(std::uint64_t delayTicks, NodeId to,
                                     net::Message&& msg,
                                     net::DeliverySink& sink) {
  ++pendingDeliveries_;
  const net::MessagePool::Slot slot = pool_.checkIn(to, msg);
  if (slot >= slotSink_.size()) slotSink_.resize(slot + 1, nullptr);
  slotSink_[slot] = &sink;
  // Two-word capture: stays inside the std::function small buffer, so
  // queueing an in-flight message allocates nothing in steady state.
  queue_.schedule(tick_ + delayTicks, kPriorityDelivery,
                  [this, slot] { deliverSlot(slot); });
}

void Engine::deliverSlot(std::uint32_t slot) {
  --pendingDeliveries_;
  slotSink_[slot]->deliver(pool_.destination(slot), std::move(pool_.at(slot)));
  pool_.release(slot);
}

void Engine::assignPhase(NodeId node) {
  if (node >= phase_.size()) phase_.resize(node + 1, 0);
  // Drawn for every node in every mode so switching modes never changes
  // the membership bookkeeping; only jittered timing reads the value.
  phase_[node] = static_cast<std::uint32_t>(
      phaseRng_.below(timing_.ticksPerCycle));
}

Engine::StepBoostFn joinerBoost(const Network& network, std::uint32_t factor,
                                std::uint32_t warmupCycles) {
  return [&network, factor, warmupCycles](NodeId node, std::uint64_t cycle) {
    return network.lifetime(node, cycle) < warmupCycles ? factor : 1u;
  };
}

}  // namespace vs07::sim
