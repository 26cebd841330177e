// Steady-state dissemination under a sustained publish rate — the
// workload the paper never measures (every fig bench pushes exactly one
// message per experiment).
//
// A TrafficSource drives Poisson publishes through a LiveCast while the
// engine runs under jittered timers + uniform 1..4-tick delivery latency
// (percentiles need a clock that in-flight messages live on, so this
// bench always uses the latency model regardless of --timing). Three
// experiments:
//
//   1. Throughput: publish rate x buffer capacity x strategy ->
//      delivered msgs/node/cycle, redundancy ratio, and the tracked
//      in-flight high-water mark (LiveCast's bounded bookkeeping).
//   2. Delivery latency: per-delivery (deliver tick - publish tick)
//      percentiles (p50/p99) as ratios to the Mundinger et al. optimal-
//      makespan floor — ceil(log2 N) rounds for one message, and
//      M + ceil(log2 N) - 1 rounds for an M-message batch. LiveCast
//      forwards on receipt, so a round here is one delivery latency:
//      the floor in ticks is ceil(log2 N) x minLatencyTicks(). It is a
//      yardstick for a one-message-per-round push, not a bound on
//      fanout-F gossip, which can reach everyone in fewer rounds.
//   3. Memory frontier: two equal traffic epochs (>= 1k messages each at
//      quick scale); the run *fails* unless tracked in-flight state
//      stays under Params::maxTrackedMessages and peak RSS is flat
//      between the epochs (bounded bookkeeping, not per-message leaks).
//
// Every (strategy, buffer, rate) cell builds its own scenario seeded
// from the cell identity (deriveStreamSeed) and runs on the worker
// pool; cells merge in canonical order, so tables and JSON series are
// bit-identical for any --threads value.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/live.hpp"
#include "cast/strategy.hpp"
#include "cast/traffic.hpp"
#include "common/resource.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

/// Push-only RINGCAST vs push + §8 pull recovery.
const std::vector<Strategy>& trafficStrategies() {
  static const std::vector<Strategy> kStrategies = {Strategy::kRingCast,
                                                    Strategy::kPushPull};
  return kStrategies;
}

const sim::TimingConfig& trafficTiming() {
  static const sim::TimingConfig kTiming =
      sim::TimingConfig::jitteredLatency(sim::LatencyModel::uniform(1, 4));
  return kTiming;
}

/// ceil(log2 n): the per-message round floor of Mundinger et al.
std::uint32_t ceilLog2(std::uint64_t n) {
  std::uint32_t bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

struct CellResult {
  double publishRate = 0.0;          ///< configured msgs/cycle
  std::uint64_t published = 0;
  double deliveredPerNodePerCycle = 0.0;
  double msgsPerSecPerNode = 0.0;    ///< wall-clock throughput
  double redundancyRatio = 0.0;
  double completedPercent = 0.0;
  std::uint64_t trackedInFlightMax = 0;
  double p50Ticks = 0.0;
  double p99Ticks = 0.0;
  double meanTicks = 0.0;
  cast::SteadyStateStats steady;
};

struct CellConfig {
  Strategy strategy = Strategy::kPushPull;
  std::uint32_t bufferCapacity = 256;
  double rate = 1.0;
  std::uint32_t trafficCycles = 60;
  std::uint32_t drainCycles = 10;
  std::uint32_t maxTracked = 512;
};

double percentile(std::vector<std::uint64_t>& values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) / 100.0);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

/// One sustained-traffic run: warm scenario, Poisson source at
/// cfg.rate for cfg.trafficCycles, then a publish-free drain so the last
/// waves land. Latencies come from the delivery hook (re-deliveries
/// after buffer eviction count too: the node really did re-learn late).
CellResult runCell(const bench::Scale& scale, const CellConfig& cfg,
                   std::uint64_t cellSeed) {
  auto scenario = analysis::Scenario::builder()
                      .nodes(scale.nodes)
                      .seed(cellSeed)
                      .timing(trafficTiming())
                      .build();
  auto& session = scenario.liveSession(
      {.strategy = cfg.strategy,
       .fanout = 3,
       .seed = deriveStreamSeed(cellSeed, 0x5e55, 1),
       .digestLength = 32,
       .bufferCapacity = cfg.bufferCapacity,
       .maxTrackedMessages = cfg.maxTracked,
       .completedLingerTicks = 8});
  auto& engine = scenario.engine();

  std::unordered_map<std::uint64_t, std::uint64_t> publishTick;
  std::vector<std::uint64_t> latencies;
  session.live().setDeliveryHook(
      [&](NodeId /*node*/, std::uint64_t dataId, std::uint32_t /*hop*/,
          bool /*viaPull*/) {
        const auto it = publishTick.find(dataId);
        if (it != publishTick.end())
          latencies.push_back(engine.tick() - it->second);
      });

  const std::uint64_t maxMessages = static_cast<std::uint64_t>(
      cfg.rate * static_cast<double>(cfg.trafficCycles));
  cast::TrafficSource traffic(
      engine, scenario.network(), session.live(),
      {.messagesPerCycle = cfg.rate, .poisson = true,
       .maxMessages = maxMessages},
      deriveStreamSeed(cellSeed, 0x7afc, 2));
  traffic.setPublishHook(
      [&](std::uint64_t dataId, NodeId /*origin*/, std::uint64_t tick) {
        publishTick.emplace(dataId, tick);
      });
  engine.addControl(traffic);

  bench::Stopwatch timer;
  engine.run(cfg.trafficCycles + cfg.drainCycles);
  const double seconds = timer.seconds();

  const auto steady = session.live().steadyStats();
  CellResult out;
  out.publishRate = cfg.rate;
  out.published = traffic.published();
  out.deliveredPerNodePerCycle =
      static_cast<double>(steady.firstDeliveries) /
      static_cast<double>(scale.nodes) /
      static_cast<double>(cfg.trafficCycles);
  out.msgsPerSecPerNode = seconds > 0.0
                              ? static_cast<double>(steady.firstDeliveries) /
                                    seconds / static_cast<double>(scale.nodes)
                              : 0.0;
  out.redundancyRatio = steady.redundancyRatio();
  const std::uint64_t doneCount =
      steady.retiredCompleted +
      [&] {
        std::uint64_t stillTrackedComplete = 0;
        for (std::uint64_t id = 1; id <= traffic.published(); ++id)
          if (session.live().isTracked(id) &&
              session.live().stats(id).completed())
            ++stillTrackedComplete;
        return stillTrackedComplete;
      }();
  out.completedPercent =
      traffic.published() > 0
          ? 100.0 * static_cast<double>(doneCount) /
                static_cast<double>(traffic.published())
          : 0.0;
  out.trackedInFlightMax = steady.peakTracked;
  out.steady = steady;
  out.p50Ticks = percentile(latencies, 50.0);
  out.p99Ticks = percentile(latencies, 99.0);
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const std::uint64_t l : latencies) sum += static_cast<double>(l);
    out.meanTicks = sum / static_cast<double>(latencies.size());
  }
  return out;
}

void rateSweep(const bench::Scale& scale, analysis::ParallelSweep& sweep,
               bench::JsonReport& report) {
  // The eviction horizon (bufferCapacity / rate, in cycles) must clear
  // the full repair tail by a wide margin: once one still-needed id is
  // evicted, its pull-repair re-wave re-buffers it everywhere, evicting
  // *other* ids early — positive feedback straight into the documented
  // supercritical regime (endless re-waves). That failure mode is pinned
  // in tests (message_store_test), not swept here; the smallest horizon
  // below is 256/8 = 32 cycles against a ~5-cycle tail.
  const std::vector<double> rates{0.5, 2.0, 8.0};
  const std::vector<std::uint32_t> buffers{256, 1024};
  const auto& strategies = trafficStrategies();
  const std::uint32_t trafficCycles = std::max<std::uint32_t>(scale.runs, 20);
  std::printf("--- publish-rate sweep: delivered/node/cycle | p50/p99 "
              "latency ticks (%u traffic cycles/cell) ---\n",
              trafficCycles);

  const std::size_t perStrategy = buffers.size() * rates.size();
  std::vector<CellResult> cells(strategies.size() * perStrategy);
  sweep.pool().parallelFor(cells.size(), [&](std::size_t i) {
    CellConfig cfg;
    cfg.strategy = strategies[i / perStrategy];
    cfg.bufferCapacity = buffers[(i / rates.size()) % buffers.size()];
    cfg.rate = rates[i % rates.size()];
    cfg.trafficCycles = trafficCycles;
    bench::Stopwatch cellTimer;
    cells[i] = runCell(scale, cfg, deriveStreamSeed(scale.seed, 0x7ca1, i));
    std::fprintf(stderr, "  [%s buf=%u rate=%g] %.1fs\n",
                 strategyName(cfg.strategy).data(), cfg.bufferCapacity,
                 cfg.rate, cellTimer.seconds());
  });

  // One round = one hop = one latency draw: LiveCast forwards on receipt.
  const std::uint32_t floorRounds = ceilLog2(scale.nodes);
  const std::uint64_t floorTicks =
      static_cast<std::uint64_t>(floorRounds) *
      trafficTiming().latency.minLatencyTicks();
  const auto overFloor = [floorTicks](double ticks) {
    return ticks / static_cast<double>(floorTicks);
  };

  std::vector<std::string> header{"strategy", "buffer"};
  for (const double rate : rates)
    header.push_back("rate " + fmt(rate, 1) + "/cyc");
  Table table(header);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const std::string name{strategyName(strategies[s])};
    for (std::size_t b = 0; b < buffers.size(); ++b) {
      std::vector<std::string> row{name, std::to_string(buffers[b])};
      Json rateAxis = Json::array();
      Json delivered = Json::array();
      Json wallRate = Json::array();
      Json redundancy = Json::array();
      Json completed = Json::array();
      Json trackedMax = Json::array();
      Json p50 = Json::array();
      Json p99 = Json::array();
      Json p50OverFloor = Json::array();
      Json p99OverFloor = Json::array();
      Json mean = Json::array();
      for (std::size_t r = 0; r < rates.size(); ++r) {
        const CellResult& cell =
            cells[s * perStrategy + b * rates.size() + r];
        row.push_back(fmt(cell.deliveredPerNodePerCycle, 2) + " | " +
                      fmt(cell.p50Ticks, 0) + "/" + fmt(cell.p99Ticks, 0));
        rateAxis.push(cell.publishRate);
        delivered.push(cell.deliveredPerNodePerCycle);
        wallRate.push(cell.msgsPerSecPerNode);
        redundancy.push(cell.redundancyRatio);
        completed.push(cell.completedPercent);
        trackedMax.push(cell.trackedInFlightMax);
        p50.push(cell.p50Ticks);
        p99.push(cell.p99Ticks);
        p50OverFloor.push(overFloor(cell.p50Ticks));
        p99OverFloor.push(overFloor(cell.p99Ticks));
        mean.push(cell.meanTicks);
      }
      table.addRow(std::move(row));
      const std::string label =
          name + ":buf" + std::to_string(buffers[b]);
      report.addSeries(
          Json::object()
              .set("label", "throughput:" + label)
              .set("kind", "throughput")
              .set("strategy", name)
              .set("buffer_capacity", buffers[b])
              .set("timing", bench::JsonReport::timingJson(trafficTiming()))
              .set("publish_rate_per_cycle", rateAxis)
              .set("delivered_per_node_per_cycle", std::move(delivered))
              .set("msgs_per_sec_per_node", std::move(wallRate))
              .set("redundancy_ratio", std::move(redundancy))
              .set("completed_percent", std::move(completed))
              .set("tracked_in_flight_max", std::move(trackedMax)));
      report.addSeries(
          Json::object()
              .set("label", "latency:" + label)
              .set("kind", "latency_percentiles")
              .set("strategy", name)
              .set("buffer_capacity", buffers[b])
              .set("timing", bench::JsonReport::timingJson(trafficTiming()))
              .set("mundinger_floor_ticks", floorTicks)
              .set("publish_rate_per_cycle", std::move(rateAxis))
              .set("p50_ticks", std::move(p50))
              .set("p99_ticks", std::move(p99))
              .set("p50_over_floor", std::move(p50OverFloor))
              .set("p99_over_floor", std::move(p99OverFloor))
              .set("mean_ticks", std::move(mean)));
    }
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);

  // Per-strategy totals, folded with SteadyStateStats::merge in
  // canonical cell-index order — the same reduction discipline the
  // sharded engine applies to its per-shard counters.
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const std::string name{strategyName(strategies[s])};
    cast::SteadyStateStats agg;
    for (std::size_t i = 0; i < perStrategy; ++i)
      agg.merge(cells[s * perStrategy + i].steady);
    std::printf(
        "%s totals: %llu published, %llu first deliveries, redundancy "
        "%.2f, %llu completed + %llu aged out\n",
        name.c_str(), static_cast<unsigned long long>(agg.published),
        static_cast<unsigned long long>(agg.firstDeliveries),
        agg.redundancyRatio(),
        static_cast<unsigned long long>(agg.retiredCompleted),
        static_cast<unsigned long long>(agg.retiredAgedOut));
    report.addSeries(Json::object()
                         .set("label", "steady_aggregate:" + name)
                         .set("kind", "steady_aggregate")
                         .set("strategy", name)
                         .set("published", agg.published)
                         .set("first_deliveries", agg.firstDeliveries)
                         .set("redundant_deliveries", agg.redundantDeliveries)
                         .set("retired_completed", agg.retiredCompleted)
                         .set("retired_aged_out", agg.retiredAgedOut)
                         .set("redundancy_ratio", agg.redundancyRatio())
                         .set("peak_tracked_max", agg.peakTracked));
  }

  std::printf(
      "\nMundinger floor: a one-message-per-round push covers %u nodes in "
      "%u rounds at best (%llu ticks here: one round = one minimum "
      "delivery latency); an M-message batch needs M + %u - 1 rounds. "
      "Gossip with fanout > 1 sends several messages per round, so p50 "
      "can sit near or below the floor; p99 grows with rate as pull "
      "repairs the tail.\n\n",
      scale.nodes, floorRounds,
      static_cast<unsigned long long>(floorTicks), floorRounds);
}

/// The acceptance gate: two equal traffic epochs; tracked in-flight and
/// peak RSS must not scale with the message count. Returns false (and
/// the process exits 1) when the bound is violated.
bool memoryFrontier(const bench::Scale& scale, bench::JsonReport& report) {
  const std::uint32_t cap = 256;
  const std::uint64_t epochMessages =
      scale.paper ? 5000 : 1200;  // two epochs: >= 2k msgs at quick scale
  const double rate = 20.0;
  std::printf("--- memory frontier: 2 epochs x %llu msgs at %g/cycle, "
              "tracked cap %u ---\n",
              static_cast<unsigned long long>(epochMessages), rate, cap);

  const std::uint64_t cellSeed = deriveStreamSeed(scale.seed, 0x3e30, 0);
  auto scenario = analysis::Scenario::builder()
                      .nodes(scale.nodes)
                      .seed(cellSeed)
                      .timing(trafficTiming())
                      .build();
  auto& session = scenario.liveSession(
      {.strategy = Strategy::kPushPull,
       .fanout = 3,
       .seed = deriveStreamSeed(cellSeed, 0x5e55, 1),
       .digestLength = 32,
       .bufferCapacity = 1024,
       .maxTrackedMessages = cap,
       .completedLingerTicks = 8});
  auto& engine = scenario.engine();
  cast::TrafficSource traffic(
      engine, scenario.network(), session.live(),
      {.messagesPerCycle = rate, .poisson = true,
       .maxMessages = 2 * epochMessages},
      deriveStreamSeed(cellSeed, 0x7afc, 2));
  engine.addControl(traffic);

  const auto runEpoch = [&](std::uint64_t targetPublished) {
    engine.runUntil(
        [&] { return traffic.published() >= targetPublished; }, 100'000);
    engine.run(10);  // let the tail of the last waves land
  };

  runEpoch(epochMessages);
  const std::uint64_t rssEpoch1 = peakRssBytes();
  const auto steady1 = session.live().steadyStats();
  runEpoch(2 * epochMessages);
  const std::uint64_t rssEpoch2 = peakRssBytes();
  const auto steady2 = session.live().steadyStats();

  // Peak RSS is monotone; "flat" = the second epoch's extra messages add
  // almost nothing once steady state is reached. The slack absorbs
  // allocator noise, not per-message growth.
  const std::uint64_t rssSlack =
      std::max<std::uint64_t>(rssEpoch1 / 10, 32ull << 20);
  const bool rssFlat = rssEpoch2 <= rssEpoch1 + rssSlack;
  const bool trackedBounded = steady2.peakTracked <= cap;
  const bool bitmapBounded =
      steady2.peakTrackedBitmapBytes <=
      static_cast<std::uint64_t>(cap) * scale.nodes;
  const bool bounded = rssFlat && trackedBounded && bitmapBounded;

  std::printf(
      "epoch 1: %llu published, tracked peak %llu, bitmap peak %.1f MiB, "
      "peak RSS %.1f MiB\n",
      static_cast<unsigned long long>(steady1.published),
      static_cast<unsigned long long>(steady1.peakTracked),
      static_cast<double>(steady1.peakTrackedBitmapBytes) / (1 << 20),
      static_cast<double>(rssEpoch1) / (1 << 20));
  std::printf(
      "epoch 2: %llu published, tracked peak %llu (cap %u), bitmap peak "
      "%.1f MiB, peak RSS %.1f MiB -> %s\n",
      static_cast<unsigned long long>(steady2.published),
      static_cast<unsigned long long>(steady2.peakTracked), cap,
      static_cast<double>(steady2.peakTrackedBitmapBytes) / (1 << 20),
      static_cast<double>(rssEpoch2) / (1 << 20),
      bounded ? "bounded" : "UNBOUNDED (memory frontier violated)");
  std::printf(
      "retired: %llu completed + %llu aged out; redundancy %.2f\n\n",
      static_cast<unsigned long long>(steady2.retiredCompleted),
      static_cast<unsigned long long>(steady2.retiredAgedOut),
      steady2.redundancyRatio());

  report.addSeries(
      Json::object()
          .set("label", "memory_frontier")
          .set("kind", "memory_frontier")
          .set("strategy",
               std::string(strategyName(Strategy::kPushPull)))
          .set("timing", bench::JsonReport::timingJson(trafficTiming()))
          .set("tracked_cap", cap)
          .set("epoch_messages", epochMessages)
          .set("published_total", steady2.published)
          .set("tracked_in_flight_max", steady2.peakTracked)
          .set("tracked_bitmap_bytes_max", steady2.peakTrackedBitmapBytes)
          .set("peak_rss_bytes_epoch1", rssEpoch1)
          .set("peak_rss_bytes_epoch2", rssEpoch2)
          .set("retired_completed", steady2.retiredCompleted)
          .set("retired_aged_out", steady2.retiredAgedOut)
          .set("bounded", bounded));
  return bounded;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vs07;

  auto parser = bench::makeParser(
      "Steady-state dissemination under a sustained publish rate: "
      "throughput, latency percentiles, and the bounded memory frontier.");
  const auto parsed = parser.parseOrExit(argc, argv);
  if (!parsed) return 0;
  const CliArgs& args = *parsed;
  const bench::Scale scale = bench::resolveScale(args, /*quickNodes=*/1000,
                                                 /*quickRuns=*/60);

  bench::printHeader(
      "sustained_traffic — steady-state multi-message dissemination",
      "beyond the paper: Sanghavi et al. random-useful pull, Mundinger "
      "et al. makespan floor",
      scale);
  std::printf("(timing: jittered timers + uniform 1..4-tick latency, "
              "regardless of --timing: percentiles need a clock)\n\n");

  bench::JsonReport report("sustained_traffic", scale);
  auto sweep = bench::makeSweep(scale);

  rateSweep(scale, sweep, report);
  const bool bounded = memoryFrontier(scale, report);

  report.write(scale);
  if (!bounded) {
    std::fprintf(stderr,
                 "FAIL: sustained traffic exceeded the bounded memory "
                 "frontier\n");
    return 1;
  }
  return 0;
}
