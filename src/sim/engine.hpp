// Discrete-event simulation engine with pluggable timing models.
//
// The core is a deterministic EventQueue keyed on (dueTick, priority,
// seq); everything that happens in simulated time — node gossip timers,
// message deliveries, per-cycle controls — is an event on that queue.
// Within a tick, deliveries run before timers run before controls.
//
// Two timing models drive the gossip timers (sim/timing.hpp):
//
//   * CycleSync (default): one global timer, modelled after PeerSim's
//     cycle mode, which is what the paper's evaluation runs on. Each
//     cycle every alive node, in fresh random order, takes one active
//     step per registered protocol; exchanges complete inside the cycle.
//     This reproduces the pre-event-core engine bit-for-bit.
//   * JitteredPeriodic: every node owns an independent periodic timer,
//     phase-shifted by a per-node random offset within the cycle's
//     ticksPerCycle-tick span ("nodes have independent, non-synchronized
//     timers", the §7 assumption the cycle model only approximates).
//
// A cycle remains the unit of experiment time in both models: run(n)
// runs n cycles, controls (churn, observers, probes) execute once at the
// end of each cycle, and cycle() counts completed cycles. Under
// JitteredPeriodic a cycle simply spans ticksPerCycle ticks instead of
// one instant.
//
// Message latency: transports may schedule deliveries onto the shared
// queue via scheduleDelivery() (see sim::LatencyTransport), so delayed
// traffic interleaves deterministically with node timers instead of
// living in per-transport side heaps.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "net/delivery_sink.hpp"
#include "net/message_pool.hpp"
#include "net/node_id.hpp"
#include "sim/network.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {

/// Event ordering classes within one tick (EventQueue priority field):
/// pending message deliveries land first, then node gossip timers, then
/// end-of-cycle controls.
inline constexpr std::uint8_t kPriorityDelivery = 0;
inline constexpr std::uint8_t kPriorityTimer = 1;
inline constexpr std::uint8_t kPriorityControl = 2;

/// A gossip protocol instance driven by the engine. One object manages the
/// state of *all* nodes (dense arrays), like a PeerSim protocol array.
class CycleProtocol {
 public:
  virtual ~CycleProtocol() = default;
  /// One active gossip step of `self` (initiate an exchange).
  virtual void step(NodeId self) = 0;
};

/// Hook run once per cycle after all protocol steps.
class Control {
 public:
  virtual ~Control() = default;
  virtual void execute(std::uint64_t cycle) = 0;
};

/// What every engine shares: the controls, the cycle and tick clocks and
/// the cycle loop. An engine implements runOneCycle() and calls
/// closeCycle() at the end of each cycle. Implements TickClock over the
/// simulated tick, so tick-stamping consumers (cast::LiveCast) work
/// against either engine or the runtime's wall clock.
class CycleDriver : public TickClock {
 public:
  CycleDriver(const CycleDriver&) = delete;
  CycleDriver& operator=(const CycleDriver&) = delete;

  /// Registers a control; runs in registration order at each cycle's end.
  void addControl(Control& control) { controls_.push_back(&control); }

  /// Runs `cycles` full cycles.
  void run(std::uint64_t cycles) {
    for (std::uint64_t i = 0; i < cycles; ++i) runOneCycle();
  }

  /// Runs until `predicate()` is true, checking after each cycle, or until
  /// `maxCycles` have elapsed. Returns cycles actually run.
  template <typename Pred>
  std::uint64_t runUntil(Pred predicate, std::uint64_t maxCycles) {
    std::uint64_t ran = 0;
    while (ran < maxCycles && !predicate()) {
      runOneCycle();
      ++ran;
    }
    return ran;
  }

  /// Current cycle number (count of completed cycles).
  std::uint64_t cycle() const noexcept { return cycle_; }

  /// Current simulated tick; what a tick spans is the engine's schedule
  /// (see Engine and ShardedEngine).
  std::uint64_t tick() const noexcept { return tick_; }

  // TickClock — the simulated tick.
  std::uint64_t nowTick() const noexcept override { return tick_; }

  const TimingConfig& timing() const noexcept { return timing_; }

  Network& network() noexcept { return network_; }

 protected:
  CycleDriver(Network& network, TimingConfig timing)
      : network_(network), timing_(timing) {}

  /// Ends a cycle: advances cycle() and runs the controls in registration
  /// order.
  void closeCycle() {
    ++cycle_;
    for (auto* control : controls_) control->execute(cycle_);
  }

  Network& network_;
  const TimingConfig timing_;
  std::uint64_t tick_ = 0;

 private:
  virtual void runOneCycle() = 0;

  std::vector<Control*> controls_;
  std::uint64_t cycle_ = 0;
};

/// Receives join events with an introducer (bootstrap contact); the churn
/// control uses this to connect fresh nodes. Implemented by protocols.
class JoinHandler {
 public:
  virtual ~JoinHandler() = default;
  virtual void onJoin(NodeId node, NodeId introducer) = 0;
};

/// The sequential engine. Non-owning over protocols/controls: caller
/// keeps them alive. A cycle spans ticksPerCycle ticks: under CycleSync
/// with ticksPerCycle 1 the tick advances one per cycle; under jittered
/// timing it is the fine-grained clock node timers and deliveries are
/// scheduled on.
class Engine final : public CycleDriver {
 public:
  /// CycleSync timing (the paper's model) unless `timing` says otherwise.
  Engine(Network& network, std::uint64_t seed,
         TimingConfig timing = TimingConfig::cycleSync());
  ~Engine() override;

  /// Registers a protocol; steps run in registration order per node.
  void addProtocol(CycleProtocol& protocol);

  /// Per-node step multiplier: a node for which this returns k takes k
  /// active steps per timer firing ("gossip at an arbitrarily higher
  /// rate", the §7.3 join-acceleration optimisation). Pass {} to clear;
  /// values of 0 are treated as 1.
  using StepBoostFn = std::function<std::uint32_t(NodeId, std::uint64_t)>;
  void setStepBoost(StepBoostFn boost) { boost_ = std::move(boost); }

  /// Schedules `action` onto the shared event queue `delayTicks` from the
  /// current tick, at delivery priority. Deliveries due mid-cycle
  /// interleave with node timers in deterministic (dueTick, priority,
  /// seq) order. For message traffic prefer scheduleMessageDelivery,
  /// which recycles payload buffers through the engine's pool.
  void scheduleDelivery(std::uint64_t delayTicks, EventQueue::Action action);

  /// Schedules delivery of `msg` to `sink` `delayTicks` from the current
  /// tick, at delivery priority and in the same deterministic order as
  /// scheduleDelivery. The payload is checked into the engine's
  /// MessagePool (the caller's message is left holding recycled buffers)
  /// and the queued event captures only the slot index, so a
  /// steady-state cycle's in-flight traffic allocates nothing.
  /// `sink` must outlive the delivery.
  void scheduleMessageDelivery(std::uint64_t delayTicks, NodeId to,
                               net::Message&& msg, net::DeliverySink& sink);

  /// Deliveries scheduled but not yet executed.
  std::size_t pendingDeliveries() const noexcept { return pendingDeliveries_; }

  /// The in-flight payload pool (diagnostics: capacity stops growing once
  /// traffic reaches steady state; inUse() returns to zero when the
  /// queue drains).
  const net::MessagePool& deliveryPool() const noexcept { return pool_; }

 private:
  /// Assigns gossip-timer phases on membership changes (joiners get a
  /// fresh phase the moment they spawn, so churn works in any mode).
  struct PhaseTracker final : MembershipObserver {
    explicit PhaseTracker(Engine& engine) : engine(engine) {}
    void onReserve(NodeId count) override { engine.phase_.reserve(count); }
    void onSpawn(NodeId node) override { engine.assignPhase(node); }
    void onKill(NodeId /*node*/) override {}
    Engine& engine;
  };

  /// Schedules one cycle's timers and its closing control event, then
  /// advances the queue through the cycle's ticks.
  void runOneCycle() override;
  /// Executes one pooled message delivery (see scheduleMessageDelivery).
  void deliverSlot(std::uint32_t slot);
  /// CycleSync: the whole synchronous round as one macro-event.
  void sweepCycleSync();
  /// JitteredPeriodic: one node's timer firing.
  void stepNode(NodeId node);
  void assignPhase(NodeId node);

  Rng rng_;
  /// Separate stream for timer phases so CycleSync runs consume rng_
  /// exactly as the pre-event-core engine did (bit-for-bit regression).
  Rng phaseRng_;
  EventQueue queue_;
  PhaseTracker phases_{*this};
  std::vector<CycleProtocol*> protocols_;
  StepBoostFn boost_;
  std::uint64_t nextCycleStart_ = 0;
  std::size_t pendingDeliveries_ = 0;
  /// Pooled payloads (and destinations) of in-flight message
  /// deliveries, with the per-slot sink in a parallel array.
  net::MessagePool pool_;
  std::vector<net::DeliverySink*> slotSink_;
  std::vector<NodeId> order_;          // scratch, reused every cycle
  std::vector<std::uint32_t> phase_;   // per-node timer offset in ticks
  /// Jittered-mode scratch: nodes grouped by phase, one bucket per tick
  /// of the cycle, refilled at each cycle start and consumed by that
  /// cycle's timer events before the next refill.
  std::vector<std::vector<NodeId>> buckets_;
};

/// Boost function for Engine::setStepBoost implementing the §7.3
/// suggestion: nodes younger than `warmupCycles` gossip `factor` times
/// per cycle, completing their join warm-up correspondingly faster.
Engine::StepBoostFn joinerBoost(const Network& network, std::uint32_t factor,
                                std::uint32_t warmupCycles);

}  // namespace vs07::sim
