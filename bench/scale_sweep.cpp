// Scale sweep — the million-node proof of the flattened message hot path.
//
// Runs the static §7.1 scenario at 10k / 100k / 1M nodes and records, per
// population size:
//   * node-cycles/sec of steady-state gossip (CYCLON + VICINITY),
//   * heap allocations per gossip cycle (counting-allocator hook; 0 in
//     steady state — the invariant this bench guards),
//   * gossip messages per cycle,
//   * one RINGCAST dissemination over the converged overlay (miss ratio,
//     last hop, wall-clock),
//   * peak RSS after the point.
//
// The paper evaluates at 10k; the ROADMAP north-star is millions of
// users, and both Sanghavi et al. (dissemination overhead) and Bojja
// Venkatakrishnan & Viswanath (deterministic-structure benefits) show the
// interesting effects are large-N phenomena — so the sweep makes scale a
// measured, regression-guarded quantity instead of an aspiration.
//
// Scales: default and --paper run {10k, 100k, 1M}; --quick runs
// {10k, 100k} with a shorter warm-up (the CI smoke). An explicit --nodes N
// collapses the axis to that single population (e.g.
// `scale_sweep --nodes 1000000 --quick` is the fast million-node check).
//
// --engine-threads N runs every point on the sharded engine with N
// workers (results bit-identical to N=1 by construction) and appends a
// thread-scaling sweep at the largest population: node-cycles/s and
// speedup vs 1 worker at 1, 2, 4, ... N threads, with a cross-thread
// message-count identity check as a cheap determinism guard. All three
// --timing models shard, on the engine's one conservative-lookahead
// schedule: a cyclesync cycle is 64 step-batch ticks, jittered and
// latency cycles are ticksPerCycle timer ticks.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cast/session.hpp"
#include "common/alloc_probe.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct PointResult {
  std::uint32_t nodes = 0;
  std::uint32_t warmupCycles = 0;
  std::uint32_t measuredCycles = 0;
  double warmupSeconds = 0.0;
  double cycleSeconds = 0.0;
  double nodeCyclesPerSec = 0.0;
  double allocsPerCycle = 0.0;
  double messagesPerCycle = 0.0;
  double missPercent = 0.0;
  std::uint64_t lastHop = 0;
  double disseminateSeconds = 0.0;
  std::uint64_t peakRssBytes = 0;
};

PointResult runPoint(const bench::Scale& scale, std::uint32_t nodes,
                     std::uint32_t warmupCycles, std::uint32_t measuredCycles,
                     std::uint32_t engineThreads) {
  PointResult result;
  result.nodes = nodes;
  result.warmupCycles = warmupCycles;
  result.measuredCycles = measuredCycles;

  bench::Stopwatch buildTimer;
  auto scenario = analysis::Scenario::builder()
                      .nodes(nodes)
                      .seed(scale.seed)
                      .engineThreads(engineThreads)
                      .warmupCycles(warmupCycles)
                      .timing(scale.timing)
                      .build();
  result.warmupSeconds = buildTimer.seconds();
  std::printf("  warm-up: %u cycles in %.2fs\n", warmupCycles,
              result.warmupSeconds);

  // One settle cycle lets every scratch buffer, pool slot, and queue
  // reach its steady capacity; the measured window is then the
  // steady-state regime the zero-allocation invariant speaks about.
  scenario.runCycles(1);

  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const AllocScope allocs;
  bench::Stopwatch cycleTimer;
  scenario.runCycles(measuredCycles);
  result.cycleSeconds = cycleTimer.seconds();
  result.allocsPerCycle =
      static_cast<double>(allocs.allocations()) / measuredCycles;
  result.messagesPerCycle =
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore) /
      measuredCycles;
  result.nodeCyclesPerSec =
      result.cycleSeconds > 0.0
          ? static_cast<double>(nodes) * measuredCycles / result.cycleSeconds
          : 0.0;
  std::printf("  gossip: %.0f node-cycles/s, %.1f allocs/cycle, "
              "%.0f msgs/cycle\n",
              result.nodeCyclesPerSec, result.allocsPerCycle,
              result.messagesPerCycle);

  bench::Stopwatch castTimer;
  auto session = scenario.snapshotSession({.strategy = Strategy::kRingCast,
                                           .fanout = 3,
                                           .seed = scale.seed + nodes});
  const auto report = session.publishFromRandom();
  result.disseminateSeconds = castTimer.seconds();
  result.missPercent = report.missRatioPercent();
  result.lastHop = report.lastHop;
  result.peakRssBytes = peakRssBytes();
  std::printf("  ringcast F=3: %.4f%% miss, last hop %llu, %.2fs "
              "(snapshot+publish); peak RSS %.0f MiB\n",
              result.missPercent,
              static_cast<unsigned long long>(result.lastHop),
              result.disseminateSeconds,
              static_cast<double>(result.peakRssBytes) / (1024.0 * 1024.0));
  return result;
}

int run(const bench::Scale& scale, const std::vector<std::uint32_t>& axis,
        std::uint32_t engineThreads) {
  bench::printHeader(
      "Scale sweep: gossip throughput and allocation-free hot path",
      "beyond the paper's 10k evaluation: steady-state cycles must stay "
      "allocation-free and RINGCAST lossless as the population grows to 1M",
      scale);

  const std::uint32_t warmupCycles = scale.quick ? 10 : 50;
  const std::uint32_t measuredCycles = scale.quick ? 3 : 10;

  bench::JsonReport report("scale_sweep", scale);
  std::vector<PointResult> results;
  for (const std::uint32_t nodes : axis) {
    std::printf("%u nodes (%s engine):\n", nodes,
                engineThreads >= 1 ? "sharded" : "sequential");
    results.push_back(
        runPoint(scale, nodes, warmupCycles, measuredCycles, engineThreads));
    std::printf("\n");
  }

  bool scalingOk = true;
  if (engineThreads >= 1)
    scalingOk = bench::runThreadScaling({.nodes = axis.back(),
                                         .warmupCycles = warmupCycles,
                                         .measuredCycles = measuredCycles,
                                         .maxThreads = engineThreads,
                                         .seed = scale.seed,
                                         .timing = scale.timing},
                                        report);

  Table table({"nodes", "node_cycles/s", "allocs/cycle", "msgs/cycle",
               "miss%", "last_hop", "peak_rss_mib"});
  for (const auto& r : results)
    table.addRow({std::to_string(r.nodes), fmt(r.nodeCyclesPerSec, 0),
                  fmt(r.allocsPerCycle, 1), fmt(r.messagesPerCycle, 0),
                  fmt(r.missPercent, 4), std::to_string(r.lastHop),
                  fmt(static_cast<double>(r.peakRssBytes) / (1024.0 * 1024.0),
                      1)});
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);

  Json points = Json::array();
  for (const auto& r : results)
    points.push(Json::object()
                    .set("nodes", r.nodes)
                    .set("warmup_cycles", r.warmupCycles)
                    .set("measured_cycles", r.measuredCycles)
                    .set("warmup_seconds", r.warmupSeconds)
                    .set("node_cycles_per_sec", r.nodeCyclesPerSec)
                    .set("allocs_per_cycle", r.allocsPerCycle)
                    .set("messages_per_cycle", r.messagesPerCycle)
                    .set("ringcast_miss_percent", r.missPercent)
                    .set("ringcast_last_hop", r.lastHop)
                    .set("disseminate_seconds", r.disseminateSeconds)
                    .set("peak_rss_bytes", r.peakRssBytes));
  report.addSeries(Json::object()
                       .set("label", "scale")
                       .set("kind", "scale")
                       .set("points", std::move(points)));
  report.write(scale);
  return scalingOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Scale sweep: steady-state gossip throughput, allocations/cycle, and "
      "RINGCAST dissemination at 10k / 100k / 1M nodes.");
  parser.option("engine-threads",
                "run all cycles on the sharded engine with N workers "
                "(bit-identical for any N >= 1) and append a thread-scaling "
                "sweep; 0 = classic sequential engine (default)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  // The axis is the point of this bench, so --nodes collapses it to one
  // population instead of feeding resolveScale's default.
  const bool explicitNodes = args->get("nodes").has_value();
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/100'000,
                                         /*quickRuns=*/1);
  const auto engineThreads = bench::engineThreadsOrExit(*args);
  std::vector<std::uint32_t> axis;
  if (explicitNodes)
    axis = {scale.nodes};
  else if (scale.quick)
    axis = {10'000, 100'000};
  else
    axis = {10'000, 100'000, 1'000'000};
  return run(scale, axis, engineThreads);
}
