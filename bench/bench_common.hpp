// Shared scaffolding for the figure benches: scale selection, the common
// CLI surface (--nodes/--runs/--seed/--paper/--quick/--csv/--threads/
// --json), header printing so every bench output is self-describing, the
// two Scenario shorthands (static and churned) every figure builds on,
// and the machine-readable BENCH_*.json record every bench emits when
// --json is given.
//
// Scale defaults: the paper-figure benches (fig06..fig13) default to the
// paper's full scale (10k nodes, 100 runs/point) now that the sweeps run
// in parallel; --quick drops to each bench's reduced smoke scale. The
// ablation/stress benches default to their quick scale; --paper raises
// them. Explicit --nodes/--runs always win.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/parallel_sweep.hpp"
#include "analysis/report_json.hpp"
#include "analysis/scenario.hpp"
#include "common/cli.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "common/table.hpp"
#include "common/task_pool.hpp"
#include "sim/timing.hpp"

namespace vs07::bench {

/// The --timing vocabulary every bench shares. Index order matches
/// timingPreset(); "cyclesync" is the default (the paper's model).
inline const std::vector<std::string>& timingChoices() {
  static const std::vector<std::string> kChoices = {"cyclesync", "jittered",
                                                    "latency"};
  return kChoices;
}

/// The TimingConfig behind each --timing choice: the paper's cycle model,
/// independent phase-shifted timers, or jittered timers plus a uniform
/// 1..4-tick delivery latency on all simulated traffic.
inline sim::TimingConfig timingPreset(std::size_t choice) {
  switch (choice) {
    case 1:
      return sim::TimingConfig::jittered();
    case 2:
      return sim::TimingConfig::jitteredLatency(
          sim::LatencyModel::uniform(1, 4));
    default:
      return sim::TimingConfig::cycleSync();
  }
}

/// Experiment scale resolved from the command line.
struct Scale {
  std::uint32_t nodes = 0;
  std::uint32_t runs = 0;
  std::uint64_t seed = 0;
  std::uint32_t threads = 1;
  bool paper = false;
  bool quick = false;
  bool csv = false;
  std::string jsonPath;  ///< empty = no JSON record requested
  /// --timing: engine timing model scenarios are built with.
  sim::TimingConfig timing{};
  std::string timingName = "cyclesync";
};

/// Which scale a bench runs at when neither --paper nor --quick is given.
enum class DefaultScale { kQuick, kPaper };

/// Registers the options every figure bench shares.
inline CliParser makeParser(const std::string& description) {
  CliParser parser(description);
  parser.option("nodes", "population size (default: the bench's scale)")
      .option("runs", "disseminations per data point (default: the bench's "
                      "scale)")
      .option("seed", "root random seed (default 42)")
      .option("paper", "run at the paper's full scale (10k nodes, 100 runs)",
              /*takesValue=*/false)
      .option("quick", "run at the reduced smoke-test scale",
              /*takesValue=*/false)
      .option("csv", "emit CSV instead of aligned tables",
              /*takesValue=*/false)
      .option("threads", "worker threads for the sweeps (default: all "
                         "hardware cores; results are identical for any "
                         "thread count)")
      .option("json", "also write a machine-readable BENCH_*.json record "
                      "to this path")
      .option("timing", "engine timing model: cyclesync | jittered | "
                        "latency (default cyclesync, the paper's model)");
  return parser;
}

/// Resolves the scale: explicit flags beat --paper/--quick beat the
/// bench's default. Malformed values (--threads 0, non-numeric numbers)
/// print the parse error and exit 2, exactly like unknown options.
inline Scale resolveScale(const CliArgs& args, std::uint32_t quickNodes,
                          std::uint32_t quickRuns,
                          DefaultScale defaultScale = DefaultScale::kQuick) {
  try {
    Scale scale;
    scale.paper = args.getBool("paper");
    scale.quick = args.getBool("quick");
    if (scale.paper && scale.quick)
      throw std::invalid_argument(
          "--paper and --quick are mutually exclusive");
    const bool usePaper =
        scale.paper ||
        (defaultScale == DefaultScale::kPaper && !scale.quick);
    const std::uint32_t defaultNodes = usePaper ? 10'000 : quickNodes;
    const std::uint32_t defaultRuns = usePaper ? 100 : quickRuns;
    scale.nodes =
        static_cast<std::uint32_t>(args.getUint("nodes", defaultNodes));
    scale.runs =
        static_cast<std::uint32_t>(args.getUint("runs", defaultRuns));
    scale.seed = args.getUint("seed", 42);
    const std::uint64_t threads =
        args.getPositiveUint("threads", TaskPool::defaultThreads());
    // Explicit cap: a value like 2^32 would otherwise truncate to 0 and
    // silently bypass the zero rejection.
    if (threads > 4096)
      throw std::invalid_argument("--threads must be between 1 and 4096");
    scale.threads = static_cast<std::uint32_t>(threads);
    scale.csv = args.getBool("csv");
    scale.jsonPath = args.get("json").value_or("");
    const std::size_t timing =
        args.getChoice("timing", timingChoices(), /*fallbackIndex=*/0);
    scale.timing = timingPreset(timing);
    scale.timingName = timingChoices()[timing];
    return scale;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

/// The ParallelSweep every bench drives its runners through.
inline analysis::ParallelSweep makeSweep(const Scale& scale) {
  return analysis::ParallelSweep({.threads = scale.threads});
}

/// Runs a bench-specific argument getter (e.g. getDouble("churn", ...))
/// under the same print-and-exit-2 error path as resolveScale, so a
/// malformed value never escapes main() as an uncaught exception.
template <typename Fn>
auto argOrExit(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

/// The --engine-threads value (0 = the sequential engine), checked
/// against Scenario::kMaxEngineThreads before any engine is built; out of
/// range, every bench exits 2 with the same message.
inline std::uint32_t engineThreadsOrExit(const CliArgs& args) {
  return static_cast<std::uint32_t>(argOrExit([&] {
    const std::uint64_t threads = args.getUint("engine-threads", 0);
    if (threads > analysis::Scenario::kMaxEngineThreads)
      throw std::invalid_argument(
          "--engine-threads must be between 0 and " +
          std::to_string(analysis::Scenario::kMaxEngineThreads));
    return threads;
  }));
}

/// Prints the bench banner: what figure this regenerates and at what scale.
inline void printHeader(const std::string& figure, const std::string& paperNote,
                        const Scale& scale) {
  std::printf("=== %s ===\n", figure.c_str());
  std::printf("paper: %s\n", paperNote.c_str());
  std::printf("scale: %u nodes, %u runs/point, seed %llu, %u thread%s%s\n\n",
              scale.nodes, scale.runs,
              static_cast<unsigned long long>(scale.seed), scale.threads,
              scale.threads == 1 ? "" : "s",
              scale.quick ? " [--quick]" : (scale.paper ? " [--paper]" : ""));
}

/// Stopwatch for phase timing lines.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The fanout axis of the paper's effectiveness figures (1..20).
inline std::vector<std::uint32_t> fullFanoutAxis() {
  std::vector<std::uint32_t> fanouts;
  for (std::uint32_t f = 1; f <= 20; ++f) fanouts.push_back(f);
  return fanouts;
}

/// A warmed-up static scenario at the bench scale, with a timing line.
inline analysis::Scenario buildStatic(const Scale& scale,
                                      std::uint64_t extraSeed = 0,
                                      std::uint32_t rings = 1) {
  Stopwatch timer;
  auto scenario = analysis::Scenario::builder()
                      .nodes(scale.nodes)
                      .seed(scale.seed + extraSeed)
                      .rings(rings)
                      .timing(scale.timing)
                      .build();
  std::printf("warm-up: %u cycles over %u nodes (%s timing) in %.2fs\n\n",
              scenario.config().warmupCycles, scale.nodes,
              scale.timingName.c_str(), timer.seconds());
  return scenario;
}

/// The paper's §7.3 churn warm-up: build, warm up, churn at `rate` until
/// the entire initial population has been replaced (capped). `quiet`
/// suppresses the progress line (for parallel experiment builds); use
/// scenario.churnCycles() / cyclesRun() for the churn-phase length
/// and the freeze cycle.
inline analysis::Scenario buildChurned(const Scale& scale, double rate,
                                       std::uint64_t extraSeed,
                                       std::uint64_t maxChurnCycles = 50'000,
                                       bool quiet = false) {
  Stopwatch timer;
  auto scenario =
      analysis::Scenario::paperChurn(rate, scale.nodes, scale.seed + extraSeed,
                                     maxChurnCycles, scale.timing);
  if (!quiet)
    std::printf(
        "churn warm-up: %llu churn cycles at %.2f%%/cycle (initial population "
        "fully replaced: %s) in %.2fs\n",
        static_cast<unsigned long long>(scenario.churnCycles()), rate * 100.0,
        scenario.network().initialSurvivors() == 0 ? "yes" : "NO (cap hit)",
        timer.seconds());
  return scenario;
}

// -- the machine-readable BENCH_*.json record ----------------------------

/// Accumulates the bench's metric series and writes the JSON record
/// (schema: scripts/check_bench_json.py documents the required keys).
/// Wall-clock is measured from construction to write().
class JsonReport {
 public:
  JsonReport(std::string bench, const Scale& scale)
      : root_(Json::object()), series_(Json::array()) {
    root_.set("bench", std::move(bench))
        .set("schema_version", 1)
        .set("scale", Json::object()
                          .set("nodes", scale.nodes)
                          .set("runs", scale.runs)
                          .set("paper", scale.paper)
                          .set("quick", scale.quick))
        .set("seed", scale.seed)
        .set("threads", scale.threads)
        .set("timing", timingJson(scale.timing));
  }

  /// The timing-model metadata object (also used per-series by benches
  /// comparing several models in one record).
  static Json timingJson(const sim::TimingConfig& timing) {
    return Json::object()
        .set("mode", timing.modeName())
        .set("ticks_per_cycle", timing.ticksPerCycle)
        .set("latency", timing.latency.name());
  }

  /// Adds one named series object (whatever shape the bench measures).
  void addSeries(Json series) { series_.push(std::move(series)); }

  /// Attaches an arbitrary top-level key (e.g. churn parameters).
  void setParam(std::string key, Json value) {
    root_.set(std::move(key), std::move(value));
  }

  /// Writes the record to scale.jsonPath if --json was given; prints a
  /// confirmation line. No-op otherwise.
  void write(const Scale& scale) {
    if (scale.jsonPath.empty()) return;
    const double seconds = timer_.seconds();
    root_.set("wall_clock_seconds", seconds);
    root_.set("wall_clock_ms", seconds * 1000.0);
    root_.set("peak_rss_bytes", peakRssBytes());
    root_.set("series", std::move(series_));
    std::ofstream out(scale.jsonPath);
    if (!out) {
      std::fprintf(stderr, "cannot write JSON record to %s\n",
                   scale.jsonPath.c_str());
      std::exit(1);
    }
    out << root_.dump(2) << '\n';
    std::printf("\nJSON record written to %s\n", scale.jsonPath.c_str());
  }

 private:
  Stopwatch timer_;
  Json root_;
  Json series_;
};

// The series builders live in analysis/report_json.hpp (shared with the
// record-regression tests); re-exported here so benches keep their
// unqualified names.
using analysis::effectivenessSeries;
using analysis::histogramSeries;
using analysis::progressSeries;
using analysis::tableSeries;
using analysis::toJson;

// -- sharded-engine thread scaling (scale_sweep, timing_sensitivity) -----

/// One thread-scaling sweep: identical work at 1, 2, 4, ... maxThreads
/// workers under one timing model.
struct ThreadScalingOptions {
  std::uint32_t nodes = 0;
  std::uint32_t warmupCycles = 0;
  std::uint32_t measuredCycles = 0;
  std::uint32_t maxThreads = 0;
  std::uint64_t seed = 0;
  sim::TimingConfig timing{};
  /// Series label; benches sweeping several timing models prefix it with
  /// the model name (kind stays "thread_scaling").
  std::string label = "thread_scaling";
};

/// Runs the sweep, prints per-count lines, and appends a
/// "thread_scaling" series (threads / node_cycles_per_sec / speedup_vs_1
/// / peak_rss_bytes parallel arrays, plus the timing metadata) to
/// `report`. Returns false when either the cross-thread message-count
/// identity or the hardware-permitting >= 3x speedup floor is violated;
/// the floor is enforced only at >= 8 workers on machines with the cores
/// to back them and populations >= 1M that amortise barrier cost.
inline bool runThreadScaling(const ThreadScalingOptions& opt,
                             JsonReport& report) {
  std::vector<std::uint32_t> counts{1};
  while (counts.back() * 2 <= opt.maxThreads)
    counts.push_back(counts.back() * 2);
  if (counts.back() != opt.maxThreads) counts.push_back(opt.maxThreads);

  std::printf("thread scaling at %u nodes (%u measured cycles/point, "
              "%s timing, %s latency):\n",
              opt.nodes, opt.measuredCycles, opt.timing.modeName(),
              opt.timing.latency.name());
  struct ThreadPoint {
    std::uint32_t threads = 0;
    double nodeCyclesPerSec = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t peakRssBytes = 0;
  };
  std::vector<ThreadPoint> points;
  for (const std::uint32_t threads : counts) {
    auto scenario = analysis::Scenario::builder()
                        .nodes(opt.nodes)
                        .seed(opt.seed)
                        .engineThreads(threads)
                        .warmupCycles(opt.warmupCycles)
                        .timing(opt.timing)
                        .build();
    scenario.runCycles(1);  // settle scratch/bucket capacities
    const std::uint64_t sentBefore = scenario.gossipMessagesSent();
    Stopwatch timer;
    scenario.runCycles(opt.measuredCycles);
    const double seconds = timer.seconds();
    ThreadPoint point;
    point.threads = threads;
    point.nodeCyclesPerSec =
        seconds > 0.0
            ? static_cast<double>(opt.nodes) * opt.measuredCycles / seconds
            : 0.0;
    point.messages = scenario.gossipMessagesSent() - sentBefore;
    point.peakRssBytes = peakRssBytes();
    std::printf("  %2u thread%s: %.0f node-cycles/s, %.2fx vs 1\n", threads,
                threads == 1 ? " " : "s", point.nodeCyclesPerSec,
                points.empty() ? 1.0
                               : point.nodeCyclesPerSec /
                                     points.front().nodeCyclesPerSec);
    points.push_back(point);
  }

  // The cheap determinism guard: identical gossip traffic at every
  // worker count (the full bit-identity lives in the ctest suites).
  bool ok = true;
  for (const auto& point : points)
    if (point.messages != points.front().messages) {
      std::fprintf(stderr,
                   "FAIL: %u threads sent %llu gossip messages, 1 thread "
                   "sent %llu — sharded determinism violated\n",
                   point.threads,
                   static_cast<unsigned long long>(point.messages),
                   static_cast<unsigned long long>(points.front().messages));
      ok = false;
    }

  // Speedup floor, hardware-aware: only meaningful when the machine has
  // the cores to back the workers and the population amortises barrier
  // cost (a 1-core CI container skips this, a dev box enforces it).
  const std::uint32_t hwThreads =
      static_cast<std::uint32_t>(TaskPool::defaultThreads());
  const ThreadPoint& top = points.back();
  const double speedup = points.front().nodeCyclesPerSec > 0.0
                             ? top.nodeCyclesPerSec /
                                   points.front().nodeCyclesPerSec
                             : 0.0;
  if (top.threads >= 8 && hwThreads >= top.threads &&
      opt.nodes >= 1'000'000) {
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %.2fx speedup at %u threads (>= 3x required on "
                   "%u-core hardware)\n",
                   speedup, top.threads, hwThreads);
      ok = false;
    }
  } else {
    std::printf("  (speedup floor not enforced: %u hardware cores, max %u "
                "workers, %u nodes)\n",
                hwThreads, top.threads, opt.nodes);
  }

  Json threadsAxis = Json::array();
  Json rate = Json::array();
  Json speedups = Json::array();
  Json rss = Json::array();
  for (const auto& point : points) {
    threadsAxis.push(point.threads);
    rate.push(point.nodeCyclesPerSec);
    speedups.push(points.front().nodeCyclesPerSec > 0.0
                      ? point.nodeCyclesPerSec /
                            points.front().nodeCyclesPerSec
                      : 0.0);
    rss.push(point.peakRssBytes);
  }
  report.addSeries(Json::object()
                       .set("label", opt.label)
                       .set("kind", "thread_scaling")
                       .set("timing", JsonReport::timingJson(opt.timing))
                       .set("nodes", opt.nodes)
                       .set("measured_cycles", opt.measuredCycles)
                       .set("hardware_threads", hwThreads)
                       .set("threads", std::move(threadsAxis))
                       .set("node_cycles_per_sec", std::move(rate))
                       .set("speedup_vs_1", std::move(speedups))
                       .set("peak_rss_bytes", std::move(rss)));
  std::printf("\n");
  return ok;
}

}  // namespace vs07::bench
