// NodeProcess — one real node: the full sim protocol stack (CYCLON +
// VICINITY + LiveCast) driven by wall-clock timers over a UdpTransport
// instead of engine cycles over a simulated one.
//
// The cross-validation trick that makes this work: every process builds
// the *same* sim::Network population from the shared populationSeed, so
// NodeIds and ring positions (seqIds) agree across all processes and
// with the in-process simulator. Each process then drives only its own
// node's active behaviour — step(self) on its jittered wall-clock timer
// — while the rest of its protocol arrays merely receive (a shuffle
// request addressed to self mutates self's view only, exactly as in the
// sim, where the router also dispatches per destination).
//
// Timing mirrors sim/timing's JitteredPeriodic: each node gossips every
// cycleMs with a deterministic per-node phase offset inside the cycle,
// which is the paper's "independent, non-synchronized timers" (§7)
// running on actual clocks. Deliveries are stamped through the TickClock
// interface with wall milliseconds since process start.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cast/live.hpp"
#include "cast/strategy.hpp"
#include "common/clock.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "runtime/bootstrap.hpp"
#include "runtime/peer_table.hpp"
#include "runtime/udp_transport.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::runtime {

class NodeProcess final : public TickClock {
 public:
  struct Config {
    NodeId selfId = 0;
    /// Population size; every process of one cluster must agree.
    std::uint32_t nodes = 16;
    /// Experiment root seed; populationSeed(seed) builds the shared
    /// population, per-node streams derive from it.
    std::uint64_t seed = 1;
    /// UDP listen port (0 = ephemeral).
    std::uint16_t port = 0;
    bool isSeed = false;
    PeerAddress seedAddr{};
    /// Wall-clock milliseconds per gossip cycle.
    std::uint32_t cycleMs = 100;
    /// Cycles to wait after joining before the first step (lets a burst
    /// of joiners finish their ladders before shuffles reference them).
    std::uint32_t warmupCycles = 0;
    cast::Strategy strategy = cast::Strategy::kRingCast;
    std::uint32_t fanout = 3;
    /// LiveCast pull heartbeat in own steps; 0 = pure push.
    std::uint32_t pullInterval = 0;
    std::uint32_t viewLength = 20;
    std::uint32_t shuffleLength = 8;
  };

  /// One delivered message as this node saw it first.
  struct Delivery {
    std::uint64_t dataId = 0;
    std::uint32_t hop = 0;
    bool viaPull = false;
    /// nowTick() at delivery (wall ms since process start).
    std::uint64_t atMs = 0;
  };

  /// Binds the socket and wires the stack; throws std::runtime_error
  /// when sockets are unavailable. Requires every frame the stack can
  /// build to fit one datagram (runtime/wire.hpp): a shuffle length of
  /// at most 75.
  explicit NodeProcess(const Config& config);

  // TickClock — wall milliseconds since construction.
  std::uint64_t nowTick() const noexcept override;

  /// Drives timers (bootstrap ladder, gossip cycle) and drains sockets.
  /// Call after poll(); never blocks.
  void service();

  /// Appends the transport's fds for the caller's poll loop.
  void addPollFds(std::vector<::pollfd>& fds) const;

  /// Wall ms of the next timer this process wants to fire (poll deadline;
  /// UINT64_MAX when idle).
  std::uint64_t nextEventMs() const;

  /// poll + service until `untilMs` (absolute, nowTick() scale) — the
  /// single-process loop used by tests and vs07_node between control
  /// commands.
  void runUntil(std::uint64_t untilMs);

  /// Publishes one message from this node. Ids are disjoint across
  /// processes: this process draws from (selfId+1) << 32.
  std::uint64_t publish() { return live_.publish(config_.selfId); }

  const Config& config() const noexcept { return config_; }
  NodeId selfId() const noexcept { return config_.selfId; }
  bool joined() const noexcept { return bootstrap_.joined(); }
  bool bootstrapFailed() const noexcept { return bootstrap_.failed(); }
  std::uint64_t cyclesRun() const noexcept { return cyclesRun_; }
  const std::vector<Delivery>& deliveries() const noexcept {
    return deliveries_;
  }
  /// First-sight record of `dataId`, or nullptr if not delivered here.
  const Delivery* delivery(std::uint64_t dataId) const;

  UdpTransport& transport() noexcept { return transport_; }
  const UdpTransport& transport() const noexcept { return transport_; }
  const PeerTable& peers() const noexcept { return peers_; }
  const Bootstrap& bootstrap() const noexcept { return bootstrap_; }
  cast::LiveCast& live() noexcept { return live_; }
  const gossip::Cyclon& cyclon() const noexcept { return cyclon_; }
  const gossip::Vicinity& vicinity() const noexcept { return vicinity_; }

 private:
  void stepCycle();

  Config config_;
  std::chrono::steady_clock::time_point epoch_;

  sim::Network network_;
  sim::MessageRouter router_;
  PeerTable peers_;
  UdpTransport transport_;
  gossip::Cyclon cyclon_;
  gossip::Vicinity vicinity_;
  cast::LiveCast live_;
  Bootstrap bootstrap_;

  /// Deterministic phase offset within the cycle (JitteredPeriodic's
  /// wall-clock twin), derived from the population seed and selfId.
  std::uint64_t phaseMs_ = 0;
  std::uint64_t nextStepMs_ = UINT64_MAX;  // armed when the ladder settles
  std::uint64_t cyclesRun_ = 0;

  std::vector<Delivery> deliveries_;
  std::unordered_set<std::uint64_t> deliveredIds_;
};

}  // namespace vs07::runtime
