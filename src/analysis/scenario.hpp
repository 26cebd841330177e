// Scenario — one fully wired simulated system behind a fluent builder.
//
// A Scenario composes everything an experiment needs: the population,
// CYCLON (r-links), one-or-more VICINITY rings (d-links), the simulation
// engine, the one transport all simulated traffic rides (immediate, or
// the engine-queue LatencyTransport when latency or network conditions
// are set), and an optional churn model; `build()` also runs the paper's
// §7 star bootstrap + warm-up so the returned object is ready to
// disseminate. Dissemination itself goes through cast::CastSession:
// snapshotSession() freezes the overlay for the paper's §7.1 model,
// liveSession() runs push (+ optional §8 pull) through the transport.
// Presets reproduce the paper's three evaluation settings.
//
//   auto scenario = analysis::Scenario::builder()
//                       .nodes(10'000).seed(42).build();
//   auto session = scenario.snapshotSession(
//       {.strategy = cast::Strategy::kRingCast, .fanout = 3});
//   const auto report = session.publishFromRandom();
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cast/session.hpp"
#include "cast/snapshot.hpp"
#include "cast/strategy.hpp"
#include "search/query.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/multiring.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "sim/latency_transport.hpp"
#include "sim/network.hpp"
#include "sim/network_model.hpp"
#include "sim/router.hpp"
#include "sim/session_churn.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/timing.hpp"

namespace vs07::analysis {

class ScenarioBuilder;

/// A ready-to-run simulated system (see file comment). Movable value
/// type; the wiring lives on the heap, so references into it (engine,
/// network, live sessions) stay valid across moves.
class Scenario {
 public:
  /// The knobs ScenarioBuilder sets (defaults = the paper's settings,
  /// except the population size which each caller chooses).
  struct Config {
    std::uint32_t nodes = 10'000;
    gossip::Cyclon::Params cyclon{};      ///< view 20 (the paper's cyc)
    gossip::Vicinity::Params vicinity{};  ///< view 20 (the paper's vic)
    /// Cycles of self-organisation from the star topology (§7: 100).
    std::uint32_t warmupCycles = 100;
    /// Number of VICINITY rings (1 = plain RINGCAST; >1 = §8 extension).
    std::uint32_t rings = 1;
    std::uint64_t seed = 42;
    /// build() runs bootstrap + warm-up unless cleared (noWarmup()).
    bool warmOnBuild = true;

    /// 0 = the classic sequential Engine. >= 1 selects the sharded
    /// engine with that many worker threads (sim/sharded_engine.hpp);
    /// results are bit-identical for any value >= 1, so determinism
    /// tests can compare 1 vs 8. Supports CycleSync (latency-free) and
    /// JitteredPeriodic timing with or without a LatencyModel (the
    /// windowed schedule); link-level network conditions remain
    /// sequential-only, as do live sessions.
    std::uint32_t engineThreads = 0;

    // -- timing model (engine timers + optional message latency) --------
    /// CycleSync by default (the paper's evaluation model). When
    /// timing.latency is set, *all* simulated traffic — gossip exchanges
    /// and dissemination alike — rides a LatencyTransport scheduled on
    /// the engine's event queue, so delay shapes overlay construction
    /// too, which is exactly the §7 claim worth testing.
    sim::TimingConfig timing{};

    // -- link-level network conditions (sim/network_model.hpp) ----------
    /// When any condition is set, *all* simulated traffic rides a
    /// LatencyTransport with the NetworkModel attached, so loss,
    /// partitions, duplication, reordering, cluster latency, and egress
    /// queueing are resolved per (src, dst, tick) at delivery-scheduling
    /// time — for gossip and dissemination alike.
    sim::NetworkConditions network{};

    // -- churn installed at build time (post-warm-up cycles churn) ------
    double churnRate = 0.0;       ///< per-cycle replacement fraction
    bool sessionChurn = false;    ///< heavy-tailed session-length model
    sim::SessionDistribution sessions{};

    // -- default query workload (querySession() with no arguments) ------
    search::QueryOptions query{};
  };

  static ScenarioBuilder builder();

  // -- the paper's three evaluation settings as one-call presets --------

  /// §7.1: static failure-free network, warmed up. All presets default
  /// to the paper's cycle-synchronous timing; pass a TimingConfig to
  /// re-run the same setting under jittered timers or latency delivery.
  static Scenario paperStatic(std::uint32_t nodes = 10'000,
                              std::uint64_t seed = 42,
                              sim::TimingConfig timing = {});
  /// §7.2: warmed up, then `killFraction` of the population fails at
  /// once with gossip stalled (no healing before dissemination).
  static Scenario paperCatastrophic(double killFraction,
                                    std::uint32_t nodes = 10'000,
                                    std::uint64_t seed = 42,
                                    sim::TimingConfig timing = {});
  /// §7.3: warmed up, then churned at `rate` until the entire initial
  /// population has been replaced (capped at `maxChurnCycles`); churn
  /// keeps running during subsequent cycles.
  static Scenario paperChurn(double rate = 0.002,
                             std::uint32_t nodes = 10'000,
                             std::uint64_t seed = 42,
                             std::uint64_t maxChurnCycles = 50'000,
                             sim::TimingConfig timing = {});

  // -- adversarial network presets (sim/network_model.hpp) --------------

  /// §5.1's partitioned ring as a *healing* scenario: warmed up, then
  /// the ring is split into two seq-contiguous halves for `splitCycles`
  /// cycles starting with the first post-warm-up cycle; cross-half
  /// traffic (gossip and dissemination) drops until the partition heals.
  /// Publish while split to watch per-side coverage; keep running past
  /// the window to watch recovery (kPushPull backfills the dark side).
  static Scenario paperPartitioned(std::uint32_t splitCycles = 30,
                                   std::uint32_t nodes = 10'000,
                                   std::uint64_t seed = 42,
                                   sim::TimingConfig timing = {});

  /// Lossy wide-area network: four latency clusters (intra fixed 1 tick,
  /// inter uniform 2..8), per-link Bernoulli loss, and light reordering,
  /// under jittered node timers.
  static Scenario lossyWan(double lossRate = 0.01,
                           std::uint32_t nodes = 10'000,
                           std::uint64_t seed = 42);

  /// Bandwidth-constrained network: every node may emit at most
  /// `egressPerTick` messages per tick (fixed 1-tick link latency,
  /// jittered timers); overload shows up as FIFO queueing delay, never
  /// as silent infinite capacity.
  static Scenario congested(std::uint32_t egressPerTick = 2,
                            std::uint32_t nodes = 10'000,
                            std::uint64_t seed = 42);

  Scenario(Scenario&&) noexcept;
  Scenario& operator=(Scenario&&) noexcept;
  ~Scenario();

  // -- the paper's §7 procedures ----------------------------------------

  /// Star bootstrap + warm-up cycles (already done by build() unless
  /// noWarmup() was requested).
  void warmup();

  /// Runs additional gossip cycles (under whatever churn is installed).
  void runCycles(std::uint64_t cycles);

  /// Continues gossiping under churn (per-cycle replacement `rate`) until
  /// the entire initial population has been replaced at least once (§7.3)
  /// or `maxCycles` elapse. Installs the churn control on first use.
  /// Returns cycles run in this phase.
  std::uint64_t runChurnUntilFullTurnover(double rate,
                                          std::uint64_t maxCycles);

  /// Cycles spent inside runChurnUntilFullTurnover so far.
  std::uint64_t churnCycles() const noexcept;

  // -- failure injection (§7.2; gossip is NOT stalled automatically —
  //    simply don't run cycles before snapshotting) ---------------------

  /// Kills round(fraction * alive) random nodes; returns their ids.
  std::vector<NodeId> killRandomFraction(double fraction);
  /// Kills a contiguous arc of the ring (the §5.1 adversarial case).
  std::vector<NodeId> killContiguousArc(double fraction);

  // -- access ------------------------------------------------------------

  const Config& config() const noexcept;
  const sim::TimingConfig& timing() const noexcept;
  sim::Network& network() noexcept;
  const sim::Network& network() const noexcept;
  sim::Engine& engine() noexcept;
  const sim::Engine& engine() const noexcept;
  /// Non-null when the builder chose engineThreads(n >= 1): the parallel
  /// engine all cycles run on instead of engine().
  sim::ShardedEngine* shardedEngine() noexcept;
  const sim::ShardedEngine* shardedEngine() const noexcept;
  /// Completed gossip cycles on whichever engine is active.
  std::uint64_t cyclesRun() const noexcept;
  /// Messages sent so far on the scenario's transport, gossip and
  /// live-session traffic alike; on the sharded engine, the messages its
  /// barrier senders carried instead.
  std::uint64_t gossipMessagesSent() const noexcept;
  sim::MessageRouter& router() noexcept;
  gossip::Cyclon& cyclon() noexcept;
  const gossip::Cyclon& cyclon() const noexcept;
  gossip::MultiRing& rings() noexcept;
  const gossip::MultiRing& rings() const noexcept;
  /// Ring 0's VICINITY instance (the RINGCAST ring).
  const gossip::Vicinity& vicinity() const;
  /// Non-null when the timing config carries a latency model or any
  /// network condition is configured: the engine-queue transport all
  /// simulated traffic rides on.
  sim::LatencyTransport* latencyTransport() noexcept;
  /// Non-null when the builder configured link-level network conditions
  /// (loss, partitions, clusters, bandwidth, ...). Counters on the model
  /// say what the conditions did to the traffic.
  sim::NetworkModel* networkModel() noexcept;
  const sim::NetworkModel* networkModel() const noexcept;

  // -- frozen overlays ---------------------------------------------------

  /// The overlay snapshot `strategy` disseminates over: r-links only for
  /// kRandCast, + single-ring d-links for kRingCast/kPushPull/kFlood,
  /// + the union of all rings for kMultiRing.
  cast::OverlaySnapshot snapshot(cast::Strategy strategy) const;
  cast::OverlaySnapshot snapshotRandom() const;
  cast::OverlaySnapshot snapshotRing() const;
  cast::OverlaySnapshot snapshotMultiRing() const;
  /// Harary band of width `w` as d-links (§8 extension).
  cast::OverlaySnapshot snapshotBand(std::uint32_t bandWidth) const;

  // -- dissemination sessions -------------------------------------------

  /// Freezes the overlay for `options.strategy` now and returns a
  /// snapshot-path session over it (the paper's §7.1 model).
  ///
  /// Caution: the snapshot path replays dissemination hop-synchronously
  /// over the frozen links and NEVER touches the transport — configured
  /// network conditions (loss, partitions, duplication, egress caps) do
  /// not apply to its results. That is the point (it measures the
  /// overlay *structure* the conditioned gossip built), but it means a
  /// snapshot publish during a partition blackout reports full
  /// coverage; measuring what the conditions do to dissemination itself
  /// requires liveSession().
  cast::SnapshotSession snapshotSession(cast::CastOptions options = {}) const;

  /// Creates (once) the transport-driven session; the Scenario owns it.
  /// Engine cycles from now on also run its pull heartbeat.
  cast::LiveSession& liveSession(cast::CastOptions options = {});

  // -- query sessions (search/query.hpp) --------------------------------

  /// Freezes the overlay `options.overlay` selects (same snapshot
  /// vocabulary as dissemination) and returns a query session over it:
  /// replicated content placement + TTL-limited search with
  /// local-knowledge caches. Like snapshotSession, the session replays
  /// over the frozen links and never touches the transport — two
  /// scenarios with bit-identical overlays (e.g. any two
  /// --engine-threads counts) produce bit-identical SearchReports,
  /// which is the conformance harness's contract.
  search::QuerySession querySession(const search::QueryOptions& options) const;
  /// querySession with the builder-configured defaults (query() hook).
  search::QuerySession querySession() const;

 private:
  friend class ScenarioBuilder;
  struct Core;
  explicit Scenario(const Config& config);

  std::unique_ptr<Core> core_;
};

/// Fluent composer of Scenarios. Every setter returns *this; build()
/// wires the system and (by default) runs the paper's warm-up.
class ScenarioBuilder {
 public:
  ScenarioBuilder& nodes(std::uint32_t n);
  ScenarioBuilder& seed(std::uint64_t s);
  /// Run all cycles on the sharded engine with `threads` workers
  /// (bit-identical for any threads >= 1). Supports CycleSync and the
  /// jittered timing modes, including message latency (windowed
  /// execution); network conditions stay sequential-only.
  ScenarioBuilder& engineThreads(std::uint32_t threads);
  ScenarioBuilder& rings(std::uint32_t count);
  ScenarioBuilder& warmupCycles(std::uint32_t cycles);
  ScenarioBuilder& cyclonParams(gossip::Cyclon::Params params);
  ScenarioBuilder& vicinityParams(gossip::Vicinity::Params params);

  /// Full timing-model control (mode, ticks per cycle, latency). The
  /// presets on sim::TimingConfig cover the common cases.
  ScenarioBuilder& timing(sim::TimingConfig config);
  /// Shorthand: independent phase-shifted node timers (JitteredPeriodic).
  ScenarioBuilder& jitteredTiming(
      std::uint32_t ticksPerCycle = sim::kDefaultTicksPerCycle);
  /// Shorthand: per-message delivery latency for *all* simulated traffic
  /// through the engine queue (composes with either timing mode and with
  /// network conditions).
  ScenarioBuilder& latency(sim::LatencyModel model);

  // -- link-level network conditions (sim/network_model.hpp). Any of
  //    these routes *all* traffic through the engine-queue transport
  //    with a NetworkModel attached; they compose freely with each
  //    other and with either timing mode. ------------------------------

  /// Wholesale replacement of the accumulated network conditions.
  ScenarioBuilder& network(sim::NetworkConditions conditions);
  /// Per-crossing Bernoulli loss on every link.
  ScenarioBuilder& linkLoss(double lossRate);
  /// Bursty Gilbert-Elliott loss (per-directed-link Markov chains).
  ScenarioBuilder& burstLoss(
      sim::GilbertElliottLink::Params params = {});
  /// Per-crossing duplication probability.
  ScenarioBuilder& duplication(double rate);
  /// Per-crossing reordering: probability of 1..maxExtraTicks jitter.
  ScenarioBuilder& reordering(double rate, std::uint32_t maxExtraTicks = 3);
  /// Heterogeneous latency: nodes hash into `clusters` groups with
  /// separate intra/inter-cluster latency models (replaces the global
  /// latency draw for every link).
  ScenarioBuilder& clusterLatency(std::uint32_t clusters,
                                  sim::LatencyModel intra,
                                  sim::LatencyModel inter);
  /// Per-node egress bandwidth cap in messages per tick (FIFO queueing).
  ScenarioBuilder& egressCap(std::uint32_t messagesPerTick);
  /// Engages the link chain and bandwidth cap only from engine cycle
  /// `cycle` on (links are clean before it) — the §7 methodology knob:
  /// self-organise undisturbed, then degrade. Partition windows keep
  /// their own schedule; cluster latency is never gated.
  ScenarioBuilder& conditionsFromCycle(std::uint64_t cycle);
  /// Splits the ring into `groups` seq-contiguous segments, blacked out
  /// over engine cycles [startCycle, endCycle) and healed outside; a
  /// repeat call with the same grouping appends another blackout window.
  /// Windows must be ascending and non-overlapping across calls.
  /// build()'s warm-up occupies cycles [0, warmupCycles).
  ScenarioBuilder& partitionRingSplit(std::uint32_t groups,
                                      std::uint64_t startCycle,
                                      std::uint64_t endCycle);
  /// Two groups: a §5.1 contiguous ring arc of `fraction` of the
  /// population versus the rest, blacked out over [startCycle, endCycle).
  ScenarioBuilder& partitionRingArc(double fraction,
                                    std::uint64_t startCycle,
                                    std::uint64_t endCycle);

  /// Per-cycle replacement churn (§7.3's model) from build() onwards.
  ScenarioBuilder& churn(double ratePerCycle);
  /// Heavy-tailed session-length churn instead (bounded Pareto).
  ScenarioBuilder& sessionChurn(sim::SessionDistribution distribution);

  /// Default options for Scenario::querySession() — the query() hook.
  /// QueryOptions presets (ttlGossip / flood / randomWalk) cover the
  /// common workloads.
  ScenarioBuilder& query(search::QueryOptions options);

  /// Skip the §7 bootstrap+warm-up; call Scenario::warmup() manually.
  ScenarioBuilder& noWarmup();

  Scenario build();

 private:
  Scenario::Config config_;
};

}  // namespace vs07::analysis
