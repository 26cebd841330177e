// The repository benchmark program: one workload per run, timed end to
// end and per layer from outside the vs07 library.
//
//   perfbench_bin --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--trace-out <file>]
//
// Workloads (perfbench/NOTES.md says why each exists and which layers it
// stresses or bypasses):
//
//   gossip_lockstep  50k nodes, ShardedEngine x2, cyclesync: steady-state
//                    CYCLON+VICINITY cycles on the lockstep barrier path.
//   live_pushpull    2k nodes, sequential Engine, jittered+latency, a
//                    LiveSession (kPushPull) under a Poisson TrafficSource.
//   snapshot_replay  the paper's §7.1 setting (10k nodes, 100 warm-up
//                    cycles) frozen, then RingCast publishes and TTL-gossip
//                    / flood query batches replayed over the snapshot.
//
// Every input (population, publish origins, query origins and items, the
// traffic source's stream) derives from --seed; the amount of measured
// work derives from --seconds, so simulated results repeat exactly for a
// (seed, seconds) pair and only host timings vary between runs. The
// harness allocates nothing inside a measured cycle, so
// net.allocs_per_cycle counts the library alone.
//
// On live_pushpull and snapshot_replay, ops_per_s is scaled to the
// reference host speed by perfbench::HostSpeed, sampled between measured
// operations; the unscaled figure is printed next to it (ops_per_s_host).
//
// Output: human-readable metric/check lines, then one JSON record as the
// last stdout line (run.py turns it into the benchmark result). Exit code
// 0 when the run completed, 2 on bad arguments.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "cast/live.hpp"
#include "cast/session.hpp"
#include "cast/traffic.hpp"
#include "common/alloc_probe.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "search/query.hpp"
#include "support.hpp"

namespace {

using namespace vs07;
using perfbench::Clock;
using perfbench::HostSpeed;
using perfbench::IntHistogram;
using perfbench::Report;
using perfbench::Samples;
using perfbench::secondsSince;
using perfbench::Tracer;

// Measured work per requested second, calibrated on the reference machine
// (NOTES.md) so one run measures roughly --seconds of host time there.
constexpr double kLockstepCyclesPerSecond = 2.6;
constexpr double kLiveCyclesPerSecond = 11.0;
constexpr double kReplayRoundsPerSecond = 120.0;

/// Set-ups per run; setup_s is their median. One 50k-node gossip set-up
/// (warm-up to a fully converged ring) takes about 18 s, so the gossip
/// workload sets up once.
constexpr std::uint32_t kGossipSetups = 1;
constexpr std::uint32_t kLiveSetups = 9;
constexpr std::uint32_t kReplaySetups = 2;

constexpr std::uint32_t kEngineWorkers = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes (seconds are ignored)
  std::string traceOut;
};

/// Stream lanes for the inputs the benchmark generates from --seed.
enum Lane : std::uint64_t {
  kLanePublishOrigins = 0x6f726967,  // "orig"
  kLaneQueries = 0x71727973,         // "qrys"
  kLaneCastSession = 0x63617374,     // "cast"
  kLaneTraffic = 0x74726166,         // "traf"
  kLanePlacement = 0x706c6163,       // "plac"
};

std::uint32_t measuredCount(const Options& o, double perSecond,
                            std::uint32_t minimum, std::uint32_t tiny) {
  if (o.tiny) return tiny;
  return std::max<std::uint32_t>(
      minimum, static_cast<std::uint32_t>(o.seconds * perSecond + 0.5));
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

std::string tailNote(const Samples& samples) {
  return "(p" + fmt("%g", samples.tail().first) + " of " +
         std::to_string(samples.size()) + " samples)";
}

// -- set-up ------------------------------------------------------------------

/// The warm-up a workload runs after Scenario construction.
struct WarmupPolicy {
  /// Cycles Scenario::warmup() runs from the star bootstrap.
  std::uint32_t cycles = 100;
  /// Then single cycles until every alive node's two d-links are its true
  /// ring neighbours (analysis::ringConvergence), at most
  /// kMaxConvergeCycles more.
  bool untilRingConverged = false;
};
constexpr std::uint32_t kMaxConvergeCycles = 200;

struct Setup {
  analysis::Scenario scenario;
  double buildSeconds = 0.0;
  double warmupSeconds = 0.0;
  std::uint64_t warmupCycles = 0;
  /// Gossip messages sent by the end of warm-up: with warmupCycles, the
  /// determinism fingerprint repeated set-ups must reproduce.
  std::uint64_t gossipMessages = 0;
  bool converged = false;
};

Setup setUpOnce(analysis::ScenarioBuilder builder, const WarmupPolicy& policy,
                Tracer& tracer) {
  builder.warmupCycles(policy.cycles).noWarmup();
  const auto buildStart = Clock::now();
  std::optional<analysis::Scenario> scenario;
  {
    const auto span = tracer.scope("analysis.build");
    scenario.emplace(builder.build());
  }
  const double buildSeconds = secondsSince(buildStart);

  const auto warmStart = Clock::now();
  bool converged = false;
  {
    const auto span = tracer.scope("sim.warmup");
    scenario->warmup();
    if (policy.untilRingConverged) {
      for (std::uint32_t extra = 0;; ++extra) {
        converged = analysis::ringConvergence(scenario->network(),
                                              scenario->vicinity())
                        .bothAccuracy >= 1.0;
        if (converged || extra == kMaxConvergeCycles) break;
        scenario->runCycles(1);
      }
    }
  }
  const double warmupSeconds = secondsSince(warmStart);
  const std::uint64_t cycles = scenario->cyclesRun();
  const std::uint64_t messages = scenario->gossipMessagesSent();
  return Setup{std::move(*scenario), buildSeconds, warmupSeconds, cycles,
               messages, converged};
}

/// Sets the system up `repeats` times (the previous copy is destroyed
/// before the next is built, so peak RSS reflects one system), reports
/// the medians, checks that every repeat reproduced the first, and
/// returns the last one for measurement.
Setup setUp(const analysis::ScenarioBuilder& builder,
            const WarmupPolicy& policy, std::uint32_t repeats, Report& report,
            Tracer& tracer) {
  Samples total, build, warm;
  std::optional<Setup> setup;
  std::uint64_t firstCycles = 0, firstMessages = 0;
  bool identical = true;
  for (std::uint32_t r = 0; r < repeats; ++r) {
    setup.reset();
    setup.emplace(setUpOnce(builder, policy, tracer));
    build.add(setup->buildSeconds);
    warm.add(setup->warmupSeconds);
    total.add(setup->buildSeconds + setup->warmupSeconds);
    if (r == 0) {
      firstCycles = setup->warmupCycles;
      firstMessages = setup->gossipMessages;
    } else {
      identical = identical && setup->warmupCycles == firstCycles &&
                  setup->gossipMessages == firstMessages;
    }
  }
  std::string each;
  for (const double v : total.values())
    each.append(" ").append(fmt("%.3f", v));
  report.metric("setup_s", total.median(), "s",
                "(median of " + std::to_string(repeats) + " set-ups:" + each +
                    ")");
  report.metric("analysis.build_s", build.median(), "s");
  report.metric("sim.warmup_s", warm.median(), "s");
  report.derived("warmup_cycles", static_cast<double>(firstCycles), "count");
  if (repeats > 1)
    report.check("setup.deterministic", identical,
                 std::to_string(repeats) + " set-ups: " +
                     std::to_string(firstCycles) + " warm-up cycles, " +
                     std::to_string(firstMessages) + " gossip messages each");
  if (policy.untilRingConverged)
    report.check("setup.ring_converged", setup->converged,
                 "every d-link equals the true ring neighbour after " +
                     std::to_string(firstCycles) + " cycles");
  return std::move(*setup);
}

// -- the snapshot dissemination path -----------------------------------------

/// Aggregates over snapshot-path RingCast publishes.
struct CastTally {
  Samples publishMs;
  std::uint64_t publishes = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t messages = 0;
  std::uint64_t redundant = 0;
  std::uint64_t notified = 0;
  std::uint64_t lastHopSum = 0;
  double missPctSum = 0.0;
  /// Delivery hops over all publishes (the origin counts at hop 0).
  IntHistogram hops;

  void add(const cast::DeliveryReport& r, double seconds) {
    publishMs.add(seconds * 1e3);
    ++publishes;
    incomplete += r.complete() ? 0 : 1;
    messages += r.messagesTotal;
    redundant += r.messagesRedundant;
    notified += r.notified;
    lastHopSum += r.lastHop;
    missPctSum += r.missRatioPercent();
    for (std::size_t h = 0; h < r.newlyNotifiedPerHop.size(); ++h)
      hops.add(h, r.newlyNotifiedPerHop[h]);
  }
  /// Messages per first delivery (the origin's own is not a delivery).
  double msgsPerDelivery() const {
    const std::uint64_t deliveries = notified - publishes;
    return deliveries > 0 ? static_cast<double>(messages) /
                                static_cast<double>(deliveries)
                          : 0.0;
  }
};

std::vector<NodeId> drawOrigins(const cast::OverlaySnapshot& overlay,
                                std::uint64_t seed, std::size_t count) {
  Rng rng(deriveStreamSeed(seed, kLanePublishOrigins));
  const auto& alive = overlay.aliveIds();
  std::vector<NodeId> origins(count);
  for (auto& origin : origins) origin = alive[rng.below(alive.size())];
  return origins;
}

cast::OverlaySnapshot timedSnapshot(analysis::Scenario& scenario,
                                    Report& report, Tracer& tracer) {
  const auto start = Clock::now();
  const auto span = tracer.scope("cast.snapshot_ring");
  cast::OverlaySnapshot overlay = scenario.snapshotRing();
  report.metric("cast.snapshot_build_ms", secondsSince(start) * 1e3, "ms");
  return overlay;
}

cast::CastOptions ringCastOptions(std::uint64_t seed) {
  return {.strategy = cast::Strategy::kRingCast,
          .fanout = 3,
          .seed = deriveStreamSeed(seed, kLaneCastSession)};
}

void reportCast(const CastTally& tally, std::uint32_t nodes, Report& report) {
  const double floorHops = perfbench::ceilLog2(nodes);
  const double n =
      static_cast<double>(std::max<std::uint64_t>(tally.publishes, 1));
  report.metric("hops_mean_over_floor", tally.hops.mean() / floorHops, "ratio",
                "(mean delivery hop " + fmt("%.3f", tally.hops.mean()) +
                    " / ceil(log2 N) = " + fmt("%g", floorHops) + ")");
  report.metric("msgs_per_delivery", tally.msgsPerDelivery(), "count");
  report.metric("cast.publish_ms_p50", tally.publishMs.median(), "ms");
  report.metric("cast.publish_ms_tail", tally.publishMs.tail().second, "ms",
                tailNote(tally.publishMs));
  report.metric("cast.msgs_per_publish",
                static_cast<double>(tally.messages) / n, "count");
  report.metric("cast.redundant_per_publish",
                static_cast<double>(tally.redundant) / n, "count");
  report.metric("cast.last_hop_mean",
                static_cast<double>(tally.lastHopSum) / n, "hops");
  report.derived("ringcast_miss_pct", tally.missPctSum / n, "%");
  report.derived("ringcast_p99_hops_over_floor",
                 tally.hops.percentile(99.0) / floorHops, "ratio");
  report.attempted(tally.publishes);
  report.failed(tally.incomplete);
  report.check("cast.ringcast_complete", tally.incomplete == 0,
               std::to_string(tally.publishes - tally.incomplete) + " of " +
                   std::to_string(tally.publishes) +
                   " RingCast publishes reached every alive node");
}

/// Share of r-links / d-links whose endpoints sit on different shards.
void reportCrossShard(const cast::OverlaySnapshot& overlay,
                      const sim::ShardedEngine& engine, Report& report) {
  std::uint64_t r = 0, rCross = 0, d = 0, dCross = 0;
  for (const NodeId node : overlay.aliveIds()) {
    const auto shard = engine.shardOf(node);
    for (const NodeId link : overlay.rlinks(node)) {
      ++r;
      rCross += engine.shardOf(link) != shard ? 1 : 0;
    }
    for (const NodeId link : overlay.dlinks(node)) {
      if (link == kNoNode) continue;
      ++d;
      dCross += engine.shardOf(link) != shard ? 1 : 0;
    }
  }
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
  };
  report.metric("sim.cross_shard_rlink_pct", pct(rCross, r), "%");
  report.metric("sim.cross_shard_dlink_pct", pct(dCross, d), "%");
}

void reportAllocations(const std::vector<std::uint64_t>& perCycle,
                       Report& report) {
  report.metric("net.allocs_per_cycle",
                static_cast<double>(
                    *std::max_element(perCycle.begin(), perCycle.end())),
                "count", "(highest single measured cycle; series below)");
  std::string series;
  for (const auto n : perCycle) series.append(" ").append(std::to_string(n));
  report.note("net.allocs_per_cycle by measured cycle:" + series);
}

/// ops_per_s at the reference host speed: the measured rate times the
/// run's host_slowdown, with both printed beside it.
void reportScaledOps(double opsPerSecond, const std::string& note,
                     const HostSpeed& speed, Report& report) {
  const double slowdown = speed.slowdown();
  report.metric("ops_per_s", opsPerSecond * slowdown, "1/s",
                note + " x host_slowdown");
  report.derived("ops_per_s_host", opsPerSecond, "1/s");
  report.derived("host_slowdown", slowdown, "ratio",
                 "(median of " + std::to_string(speed.samples()) +
                     " probe searches / " +
                     fmt("%g", HostSpeed::kReferenceMs) + " ms)");
}

// -- tracing overhead --------------------------------------------------------

/// In a traced run every other measured operation runs with tracing
/// paused, so the run measures what its own spans cost.
class OverheadProbe {
 public:
  OverheadProbe(Tracer& tracer, std::size_t operations) : tracer_(tracer) {
    traced_.reserve(operations);
    untraced_.reserve(operations);
  }
  void begin(std::size_t op) { tracer_.setEnabled(op % 2 == 0); }
  void end(std::size_t op, double seconds) {
    (op % 2 == 0 ? traced_ : untraced_).add(seconds);
    tracer_.setEnabled(true);
  }
  double overheadPct() const {
    const double base = untraced_.median();
    return base > 0.0 ? 100.0 * (traced_.median() / base - 1.0) : 0.0;
  }

 private:
  Tracer& tracer_;
  Samples traced_, untraced_;
};

void reportTrace(const Tracer& tracer, const OverheadProbe& probe,
                 Report& report) {
  if (!tracer.on()) return;
  // Over the traced operations only: the untraced half has no children.
  const auto self = tracer.selfTimeByLayer("bench.op");
  double total = 0.0;
  for (const auto& [layer, seconds] : self) total += seconds;
  for (const char* layer : {"bench", "sim", "cast", "search"}) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    report.metric(std::string("trace.self_pct.") + layer,
                  total > 0.0 ? 100.0 * seconds / total : 0.0, "%");
  }
  report.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  report.metric("trace.overhead_pct", probe.overheadPct(), "%",
                "(median traced / untraced operation - 1)");
}

// -- workloads ---------------------------------------------------------------

void gossipWorkload(const Options& o, Report& report, Tracer& tracer) {
  const std::uint32_t nodes = o.tiny ? 2'000 : 50'000;
  auto builder = analysis::Scenario::builder()
                     .nodes(nodes)
                     .seed(o.seed)
                     .engineThreads(kEngineWorkers)
                     .timing(sim::TimingConfig::cycleSync());
  Setup setup = setUp(builder,
                      {.cycles = 20, .untilRingConverged = true},
                      kGossipSetups, report, tracer);
  analysis::Scenario& scenario = setup.scenario;
  sim::ShardedEngine& engine = *scenario.shardedEngine();

  const std::uint32_t cycles =
      measuredCount(o, kLockstepCyclesPerSecond, 8, 3);
  Samples cycleMs;
  cycleMs.reserve(cycles);
  std::vector<std::uint64_t> allocations, messages;
  allocations.reserve(cycles);
  messages.reserve(cycles);
  const std::uint64_t droppedBefore = engine.droppedDead();
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const double cpuBefore = perfbench::processCpuSeconds();
  double wall = 0.0;
  OverheadProbe probe(tracer, cycles);
  {
    const auto measure = tracer.scope("bench.measure");
    for (std::uint32_t c = 0; c < cycles; ++c) {
      probe.begin(c);
      const std::uint64_t sent = scenario.gossipMessagesSent();
      const AllocScope allocs;
      const auto start = Clock::now();
      {
        const auto op = tracer.scope("bench.op", c);
        const auto span = tracer.scope("sim.run_cycles", c);
        scenario.runCycles(1);
      }
      const double seconds = secondsSince(start);
      allocations.push_back(allocs.allocations());
      probe.end(c, seconds);
      wall += seconds;
      cycleMs.add(seconds * 1e3);
      messages.push_back(scenario.gossipMessagesSent() - sent);
    }
  }
  const double cpu = perfbench::processCpuSeconds() - cpuBefore;
  const double nodeCyclesPerSec = nodes / (cycleMs.median() / 1e3);
  const std::uint64_t sentTotal = scenario.gossipMessagesSent() - sentBefore;
  report.attempted(cycles);

  report.metric("ops_per_s", nodeCyclesPerSec, "1/s",
                "(node-cycles per second: N / median cycle time)");
  report.metric("sim.cycle_ms_p50", cycleMs.median(), "ms");
  report.metric("sim.cycle_ms_tail", cycleMs.tail().second, "ms",
                tailNote(cycleMs));
  report.metric("sim.cpu_util", cpu / (wall * kEngineWorkers), "ratio",
                "(process CPU s / (wall s x " +
                    std::to_string(kEngineWorkers) + " workers))");
  report.metric("sim.msgs_per_cycle",
                static_cast<double>(sentTotal) / cycles, "count");
  report.metric("sim.dropped_dead",
                static_cast<double>(engine.droppedDead() - droppedBefore),
                "count");
  reportAllocations(allocations, report);

  const bool exact =
      std::all_of(messages.begin(), messages.end(),
                  [&](std::uint64_t m) { return m == 4ull * nodes; });
  report.check("sim.msgs_per_cycle_exact", exact,
               "every measured cycle sent exactly 4 N = " +
                   std::to_string(4ull * nodes) + " gossip messages");
  report.check("sim.no_dead_drops", engine.droppedDead() == droppedBefore,
               "static population: no message addressed to a dead node");

  // The user-facing result of gossip: a converged overlay RingCast covers.
  cast::OverlaySnapshot overlay = timedSnapshot(scenario, report, tracer);
  reportCrossShard(overlay, engine, report);
  const auto origins = drawOrigins(overlay, o.seed, o.tiny ? 4 : 32);
  cast::SnapshotSession session(std::move(overlay), ringCastOptions(o.seed));
  CastTally tally;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const auto span = tracer.scope("cast.publish", i);
    const auto start = Clock::now();
    const auto r = session.publish(origins[i]);
    tally.add(r, secondsSince(start));
  }
  reportCast(tally, nodes, report);
  reportTrace(tracer, probe, report);
}

void liveWorkload(const Options& o, Report& report, Tracer& tracer) {
  const std::uint32_t nodes = o.tiny ? 300 : 2'000;
  const sim::TimingConfig timing =
      sim::TimingConfig::jitteredLatency(sim::LatencyModel::uniform(1, 4));
  auto builder =
      analysis::Scenario::builder().nodes(nodes).seed(o.seed).timing(timing);
  Setup setup = setUp(builder,
                      {.cycles = 20, .untilRingConverged = true},
                      o.tiny ? 1 : kLiveSetups, report, tracer);
  analysis::Scenario& scenario = setup.scenario;
  sim::Engine& engine = scenario.engine();

  constexpr std::uint32_t kTrackedCap = 512;
  auto& session = scenario.liveSession(
      {.strategy = cast::Strategy::kPushPull,
       .fanout = 3,
       .seed = deriveStreamSeed(o.seed, kLaneCastSession),
       .digestLength = 32,
       .bufferCapacity = 1024,
       .maxTrackedMessages = kTrackedCap,
       .completedLingerTicks = 8});
  cast::LiveCast& live = session.live();

  const double publishRate = 4.0;  // messages per cycle
  const std::uint32_t trafficCycles =
      measuredCount(o, kLiveCyclesPerSecond, 40, 20);
  const std::uint32_t drainCycles = 15;
  const auto quota = static_cast<std::uint64_t>(publishRate * trafficCycles);
  cast::TrafficSource traffic(
      engine, scenario.network(), live,
      {.messagesPerCycle = publishRate, .poisson = true, .maxMessages = quota},
      deriveStreamSeed(o.seed, kLaneTraffic));
  engine.addControl(traffic);

  // Data ids run 1..quota, so per-message state is a flat array: the hooks
  // below run inside measured cycles and must not allocate.
  std::vector<std::uint64_t> publishTick(quota + 1, 0);
  traffic.setPublishHook(
      [&](std::uint64_t dataId, NodeId, std::uint64_t tick) {
        if (dataId < publishTick.size()) publishTick[dataId] = tick;
        tracer.mark("cast.live_publish", dataId);
      });
  IntHistogram latencyTicks, pushHops;
  std::uint64_t firstDeliveries = 0;
  live.setDeliveryHook([&](NodeId, std::uint64_t dataId, std::uint32_t hop,
                           bool viaPull) {
    ++firstDeliveries;
    if (dataId < publishTick.size())
      latencyTicks.add(engine.tick() - publishTick[dataId]);
    if (!viaPull) pushHops.add(hop);
  });

  const std::size_t maxCycles = 4 * trafficCycles + drainCycles;
  Samples cycleMs, deliveryRate;
  cycleMs.reserve(maxCycles);
  deliveryRate.reserve(maxCycles);
  std::vector<std::uint64_t> allocations;
  allocations.reserve(maxCycles);
  std::size_t pendingPeak = 0;
  std::uint32_t measured = 0;
  OverheadProbe probe(tracer, maxCycles);
  HostSpeed speed;
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const auto runCycle = [&](std::uint32_t c) {
    const auto start = Clock::now();
    {
      const auto op = tracer.scope("bench.op", c);
      const auto span = tracer.scope("sim.engine_run", c);
      engine.run(1);
    }
    pendingPeak = std::max(pendingPeak, engine.pendingDeliveries());
    return secondsSince(start);
  };
  {
    const auto measure = tracer.scope("bench.measure");
    // Traffic until the source has published its quota (an open loop in
    // simulated time: publishes fire on schedule whatever the backlog),
    // then a publish-free drain so the last waves and repairs land.
    while (traffic.published() < quota && measured < 4 * trafficCycles) {
      speed.sample();
      probe.begin(measured);
      const std::uint64_t delivered = firstDeliveries;
      const AllocScope allocs;
      const double seconds = runCycle(measured);
      allocations.push_back(allocs.allocations());
      probe.end(measured, seconds);
      cycleMs.add(seconds * 1e3);
      deliveryRate.add(static_cast<double>(firstDeliveries - delivered) /
                       seconds);
      ++measured;
    }
    // Drain cycles are traced but stay out of the overhead probe: they
    // carry no publishes, so they are lighter than traffic cycles.
    for (std::uint32_t c = measured; c < measured + drainCycles; ++c)
      runCycle(c);
  }

  const auto steady = live.steadyStats();
  std::uint64_t trackedComplete = 0;
  for (std::uint64_t id = 1; id <= traffic.published(); ++id)
    if (live.isTracked(id) && live.stats(id).completed()) ++trackedComplete;
  const std::uint64_t published = traffic.published();
  const std::uint64_t complete = steady.retiredCompleted + trackedComplete;
  const std::uint64_t failed = published - std::min(published, complete);
  report.attempted(published);
  report.failed(failed);

  const double deliveriesPerSec = deliveryRate.median();
  const double floorHops = perfbench::ceilLog2(nodes);
  const double floorTicks = floorHops * timing.latency.minLatencyTicks();
  const double firsts = static_cast<double>(steady.firstDeliveries);
  reportScaledOps(deliveriesPerSec,
                  "(first deliveries per second: median over traffic "
                  "cycles of the cycle's first deliveries / its time)",
                  speed, report);
  report.metric("hops_mean_over_floor", pushHops.mean() / floorHops, "ratio",
                "(mean push-delivery hop " + fmt("%.3f", pushHops.mean()) +
                    " / ceil(log2 N) = " + fmt("%g", floorHops) + ")");
  report.metric("msgs_per_delivery",
                static_cast<double>(live.pushMessagesSent() +
                                    live.pullAnswersSent() +
                                    live.pullRequestsSent()) /
                    firsts,
                "count",
                "(push + pull answers + pull requests per first delivery)");
  report.derived("live_latency_p50_ticks", latencyTicks.percentile(50.0),
                 "ticks");
  report.derived("live_latency_p99_ticks", latencyTicks.percentile(99.0),
                 "ticks");
  report.derived("live_p99_hops_over_floor",
                 pushHops.percentile(99.0) / floorHops, "ratio",
                 "(p99 push-delivery hop / ceil(log2 N))");
  report.derived("live_p99_ticks_over_floor",
                 latencyTicks.percentile(99.0) / floorTicks, "ratio",
                 "(floor in ticks = ceil(log2 N) x minLatencyTicks = " +
                     fmt("%g", floorTicks) + ")");
  report.derived("live_redundancy",
                 (firsts + static_cast<double>(steady.redundantDeliveries)) /
                     firsts,
                 "ratio", "(received / first deliveries)");
  report.derived("failed_ops_pct",
                 100.0 * static_cast<double>(failed) /
                     static_cast<double>(std::max<std::uint64_t>(published, 1)),
                 "%");

  report.metric("cast.live_cycle_ms_p50", cycleMs.median(), "ms");
  report.metric("cast.live_cycle_ms_tail", cycleMs.tail().second, "ms",
                tailNote(cycleMs));
  const auto count = [&](const char* name, std::uint64_t value) {
    report.metric(name, static_cast<double>(value), "count");
  };
  count("cast.push_msgs", live.pushMessagesSent());
  count("cast.pull_requests", live.pullRequestsSent());
  count("cast.pull_answers", live.pullAnswersSent());
  count("cast.recovery_forwards", live.recoveryForwardsSent());
  count("cast.horizon_drops", live.recoveryDropsBeyondHorizon());
  report.metric("cast.pull_yield",
                live.pullRequestsSent() > 0
                    ? static_cast<double>(steady.pullDeliveries) /
                          static_cast<double>(live.pullRequestsSent())
                    : 0.0,
                "ratio",
                "(" + std::to_string(steady.pullDeliveries) +
                    " pull deliveries / " +
                    std::to_string(live.pullRequestsSent()) +
                    " pull requests)");
  count("cast.tracked_peak", steady.peakTracked);
  report.metric("cast.bitmap_peak_bytes",
                static_cast<double>(steady.peakTrackedBitmapBytes), "bytes");
  reportAllocations(allocations, report);
  count("net.delivery_pool_peak", engine.deliveryPool().peakInUse());
  count("sim.pending_deliveries_peak", pendingPeak);
  report.derived("sim.transport_msgs_per_cycle",
                 static_cast<double>(scenario.gossipMessagesSent() -
                                     sentBefore) /
                     (measured + drainCycles),
                 "count", "(gossip + dissemination sends per cycle)");
  report.note("Mundinger floor in hops is ceil(log2 N) = " +
              fmt("%g", floorHops) +
              "; bench/sustained_traffic states it as ceil(log2 N) x "
              "ticksPerCycle ticks, but LiveCast forwards on receipt, so "
              "its p50 reads below that 'floor' (see perfbench/NOTES.md)");

  report.check("cast.live_accounting",
               steady.published == published &&
                   steady.retiredCompleted + steady.retiredAgedOut +
                           steady.trackedNow ==
                       published,
               std::to_string(published) + " published = " +
                   std::to_string(steady.retiredCompleted) +
                   " retired complete + " +
                   std::to_string(steady.retiredAgedOut) + " aged out + " +
                   std::to_string(steady.trackedNow) + " tracked; " +
                   std::to_string(failed) + " incomplete after a " +
                   std::to_string(drainCycles) +
                   "-cycle drain counted failed");
  report.check("cast.tracked_within_cap", steady.peakTracked <= kTrackedCap,
               "tracked peak " + std::to_string(steady.peakTracked) +
                   " <= cap " + std::to_string(kTrackedCap));
  report.check("cast.quota_published", published == quota,
               std::to_string(published) + " publishes over " +
                   std::to_string(measured) + " traffic cycles");
  reportTrace(tracer, probe, report);
}

void replayWorkload(const Options& o, Report& report, Tracer& tracer) {
  const std::uint32_t nodes = o.tiny ? 1'000 : 10'000;
  auto builder = analysis::Scenario::builder()
                     .nodes(nodes)
                     .seed(o.seed)
                     .engineThreads(kEngineWorkers);
  Setup setup = setUp(builder, {.cycles = o.tiny ? 40u : 100u},
                      o.tiny ? 1 : kReplaySetups, report, tracer);
  analysis::Scenario& scenario = setup.scenario;

  cast::OverlaySnapshot overlay = timedSnapshot(scenario, report, tracer);
  reportCrossShard(overlay, *scenario.shardedEngine(), report);

  search::QueryOptions ttlOptions = search::QueryOptions::ttlGossip(6, 2);
  search::QueryOptions floodOptions = search::QueryOptions::flood(6);
  for (auto* options : {&ttlOptions, &floodOptions}) {
    options->replication = 8;
    options->seed = deriveStreamSeed(o.seed, kLanePlacement);
  }
  const auto placementStart = Clock::now();
  std::optional<search::QuerySession> ttl;
  {
    const auto span = tracer.scope("search.session_build");
    ttl.emplace(overlay, ttlOptions);
  }
  report.metric("search.placement_ms", secondsSince(placementStart) * 1e3,
                "ms", "(placement + advertised cache seeding)");
  search::QuerySession flood(overlay, floodOptions);
  cast::SnapshotSession ring(overlay, ringCastOptions(o.seed));

  // One round = 4 publishes + 128 TTL-gossip queries + the same 128
  // queries flooded: roughly equal host time on each replay path.
  const std::uint32_t rounds = measuredCount(o, kReplayRoundsPerSecond, 10, 3);
  constexpr std::uint32_t kRoundsPerSpeedSample = 4;
  const std::uint32_t publishesPerRound = 4;
  const std::uint32_t queriesPerRound = o.tiny ? 16 : 128;
  const auto origins = drawOrigins(overlay, o.seed, rounds * publishesPerRound);
  struct Query {
    NodeId origin;
    search::ItemId item;
  };
  std::vector<Query> queries(static_cast<std::size_t>(rounds) *
                             queriesPerRound);
  {
    Rng rng(deriveStreamSeed(o.seed, kLaneQueries));
    const auto& alive = overlay.aliveIds();
    for (auto& q : queries) {
      q.origin = alive[rng.below(alive.size())];
      q.item = static_cast<search::ItemId>(rng.below(ttlOptions.items));
    }
  }

  CastTally tally;
  search::SearchReport ttlReport, floodReport;
  Samples roundMs, publishBatchMs, ttlBatchMs, floodBatchMs;
  std::optional<cast::DeliveryReport> firstPublish;
  std::uint64_t firstQueryMessages = 0;
  bool firstQueryResolved = false;
  OverheadProbe probe(tracer, rounds);
  HostSpeed speed;
  {
    const auto measure = tracer.scope("bench.measure");
    for (std::uint32_t r = 0; r < rounds; ++r) {
      if (r % kRoundsPerSpeedSample == 0) speed.sample();
      probe.begin(r);
      const auto roundStart = Clock::now();
      const auto roundSpan = tracer.scope("bench.op", r);
      {
        const auto batch = tracer.scope("bench.batch_publish", r);
        const auto start = Clock::now();
        for (std::uint32_t i = 0; i < publishesPerRound; ++i) {
          const std::size_t id =
              static_cast<std::size_t>(r) * publishesPerRound + i;
          const auto span = tracer.scope("cast.publish", id);
          const auto publishStart = Clock::now();
          auto result = ring.publish(origins[id]);
          tally.add(result, secondsSince(publishStart));
          if (id == 0) firstPublish = std::move(result);
        }
        publishBatchMs.add(secondsSince(start) * 1e3);
      }
      for (const bool isFlood : {false, true}) {
        search::QuerySession& session = isFlood ? flood : *ttl;
        search::SearchReport& batchReport = isFlood ? floodReport : ttlReport;
        const auto batch = tracer.scope(
            isFlood ? "bench.batch_flood" : "bench.batch_ttlgossip", r);
        const auto start = Clock::now();
        for (std::uint32_t i = 0; i < queriesPerRound; ++i) {
          const std::size_t id =
              static_cast<std::size_t>(r) * queriesPerRound + i;
          // The same id on both strategies: one query, two replays.
          const auto span = tracer.scope(
              isFlood ? "search.flood_query" : "search.ttlgossip_query", id);
          const std::uint64_t before = batchReport.messagesTotal;
          const bool resolved =
              session.runOne(queries[id].origin, queries[id].item, batchReport);
          if (id == 0 && !isFlood) {
            firstQueryResolved = resolved;
            firstQueryMessages = batchReport.messagesTotal - before;
          }
        }
        (isFlood ? floodBatchMs : ttlBatchMs).add(secondsSince(start) * 1e3);
      }
      const double seconds = secondsSince(roundStart);
      probe.end(r, seconds);
      roundMs.add(seconds * 1e3);
    }
  }
  report.attempted(2ull * rounds * queriesPerRound);

  const double opsPerRound = publishesPerRound + 2.0 * queriesPerRound;
  reportScaledOps(opsPerRound / (roundMs.median() / 1e3),
                  "(replayed publishes + queries per second: " +
                      fmt("%g", opsPerRound) +
                      " per round / median round time)",
                  speed, report);
  report.derived("publishes_per_s",
                 publishesPerRound / (publishBatchMs.median() / 1e3), "1/s");
  report.derived("queries_ttlgossip_per_s",
                 queriesPerRound / (ttlBatchMs.median() / 1e3), "1/s");
  report.derived("queries_flood_per_s",
                 queriesPerRound / (floodBatchMs.median() / 1e3), "1/s");
  report.derived("search_hit_pct", ttlReport.hitRatePercent(), "%",
                 "(TTL-gossip with cache, ttl 6, fanout 2, replication 8)");
  report.derived("search_flood_hit_pct", floodReport.hitRatePercent(), "%");
  reportCast(tally, nodes, report);
  report.derived("failed_ops_pct",
                 100.0 * static_cast<double>(tally.incomplete) /
                     static_cast<double>(tally.publishes),
                 "%", "(publishes that missed an alive node)");

  const std::string perBatch =
      "(" + std::to_string(queriesPerRound) + " queries per batch)";
  report.metric("search.ttlgossip.batch_ms_p50", ttlBatchMs.median(), "ms",
                perBatch);
  report.metric("search.flood.batch_ms_p50", floodBatchMs.median(), "ms",
                perBatch);
  report.metric("search.ttlgossip.msgs_per_query",
                ttlReport.messagesPerQuery(), "count");
  report.metric("search.flood.msgs_per_query", floodReport.messagesPerQuery(),
                "count");
  report.metric("search.cache_hit_pct", 100.0 * ttlReport.cacheHitFraction(),
                "%", "(of resolved TTL-gossip queries)");
  report.metric("search.cached_entries",
                static_cast<double>(ttl->cachedEntries()), "count");

  report.check("search.flood_dominates",
               floodReport.resolved >= ttlReport.resolved,
               "flood hit " + fmt("%.2f", floodReport.hitRatePercent()) +
                   "% >= ttl-gossip hit " +
                   fmt("%.2f", ttlReport.hitRatePercent()) +
                   "% on the same queries");
  // Fresh sessions replay the first operations exactly.
  cast::SnapshotSession replay(overlay, ringCastOptions(o.seed));
  const auto again = replay.publish(origins[0]);
  report.check("cast.replay_deterministic",
               again.messagesTotal == firstPublish->messagesTotal &&
                   again.notified == firstPublish->notified &&
                   again.newlyNotifiedPerHop ==
                       firstPublish->newlyNotifiedPerHop,
               "first publish replayed: " +
                   std::to_string(again.messagesTotal) + " messages, last hop " +
                   std::to_string(again.lastHop));
  search::QuerySession fresh(overlay, ttlOptions);
  search::SearchReport one;
  const bool resolved = fresh.runOne(queries[0].origin, queries[0].item, one);
  report.check("search.replay_deterministic",
               resolved == firstQueryResolved &&
                   one.messagesTotal == firstQueryMessages,
               "first ttl-gossip query replayed: " +
                   std::to_string(one.messagesTotal) + " messages");
  reportTrace(tracer, probe, report);
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--workload" && hasValue) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && hasValue) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && hasValue) {
      o.traceOut = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  Tracer tracer(o.trace);
  Report report;
  const auto start = Clock::now();
  if (o.workload == "gossip_lockstep") {
    gossipWorkload(o, report, tracer);
  } else if (o.workload == "live_pushpull") {
    liveWorkload(o, report, tracer);
  } else if (o.workload == "snapshot_replay") {
    replayWorkload(o, report, tracer);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  report.metric("peak_rss_mib",
                static_cast<double>(peakRssBytes()) / (1 << 20), "MiB");
  report.derived("run_wall_s", secondsSince(start), "s");
  if (o.trace && !o.traceOut.empty())
    report.check("trace.written", tracer.writeJsonLines(o.traceOut),
                 std::to_string(tracer.spans().size()) + " spans -> " +
                     o.traceOut);
  report.print(o.workload);
  return 0;
}
