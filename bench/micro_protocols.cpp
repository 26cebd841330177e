// Micro-benchmarks (google-benchmark) of the protocol operations: CYCLON
// shuffle cycles, VICINITY proximity cycles, target selection, overlay
// snapshotting, and end-to-end disseminations. These quantify the cost of
// the simulator itself — useful when scaling experiments up.
//
// Shares the bench-wide CLI surface: --quick restricts the run to the
// cheap benchmarks (for CI smoke), --json PATH writes the BENCH_*.json
// record, and --threads N is accepted for interface parity (each micro
// benchmark is single-threaded by nature). Every other option is passed
// through to google-benchmark.
#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/session.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "net/codec.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

analysis::Scenario warmScenario(std::uint32_t nodes) {
  return analysis::Scenario::paperStatic(nodes, /*seed=*/7);
}

void BM_GossipCycle(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  // One settle cycle brings scratch buffers and queues to their steady
  // capacity; the timed loop then measures the zero-allocation regime.
  scenario.runCycles(1);
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  // Snapshot before touching state.counters: the counter map itself
  // allocates and must not pollute the measurement.
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);  // 2 protocols
  state.counters["nodes"] = nodes;
  // The hot-path invariant: steady-state gossip cycles allocate nothing.
  // main() turns a violation into a nonzero exit (the ctest/CI gate).
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] =
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore) /
      cycles;
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GossipCycle)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ShardedGossipCycle(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  auto scenario = analysis::Scenario::builder()
                      .nodes(nodes)
                      .seed(7)
                      .engineThreads(threads)
                      .build();
  scenario.runCycles(1);
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);
  state.counters["nodes"] = nodes;
  state.counters["engine_threads"] = threads;
  // The sharded engine inherits the hot-path invariant: once outbox
  // buckets and scratch reach steady capacity, a cycle — worklists,
  // steps, barrier exchange, canonical-order delivery — allocates
  // nothing, on any worker thread. main() turns a violation into a
  // nonzero exit (the ctest/CI gate).
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] =
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore) /
      cycles;
}
BENCHMARK(BM_ShardedGossipCycle)
    ->Args({1'000, 2})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ShardedGossipCycleLatency(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  auto scenario = analysis::Scenario::builder()
                      .nodes(nodes)
                      .seed(7)
                      .engineThreads(threads)
                      .timing(sim::TimingConfig::jitteredLatency(
                          sim::LatencyModel::uniform(1, 4)))
                      .build();
  // Latency-delayed traffic waits in per-shard stores across cycles; a
  // few settle cycles let the stores and due queues reach their steady
  // capacity before the timed loop.
  scenario.runCycles(3);
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);
  state.counters["nodes"] = nodes;
  state.counters["engine_threads"] = threads;
  // Same invariant as BM_ShardedGossipCycle, now with jittered timers
  // and latency: multi-tick windows, per-shard due queues, message-store
  // check-in/out, and canonical-order delivery all run allocation-free
  // once warm. The name prefix keeps this
  // benchmark under main()'s zero-allocation gate.
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] =
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore) /
      cycles;
  state.counters["stored_in_flight"] =
      static_cast<double>(scenario.shardedEngine()->storedInFlight());
}
BENCHMARK(BM_ShardedGossipCycleLatency)
    ->Args({1'000, 2})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RingCastDissemination(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto fanout = static_cast<std::uint32_t>(state.range(1));
  auto scenario = warmScenario(nodes);
  auto session = scenario.snapshotSession(
      {.strategy = Strategy::kRingCast, .fanout = fanout, .seed = 3});
  for (auto _ : state) {
    const auto report = session.publishFromRandom();
    benchmark::DoNotOptimize(report.notified);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.counters["fanout"] = fanout;
}
BENCHMARK(BM_RingCastDissemination)
    ->Args({10'000, 2})
    ->Args({10'000, 5})
    ->Args({10'000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_RandCastDissemination(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  auto session = scenario.snapshotSession(
      {.strategy = Strategy::kRandCast, .fanout = 5, .seed = 4});
  for (auto _ : state) {
    const auto report = session.publishFromRandom();
    benchmark::DoNotOptimize(report.notified);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_RandCastDissemination)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_SnapshotBuild(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  for (auto _ : state) {
    const auto snapshot = scenario.snapshot(Strategy::kRingCast);
    benchmark::DoNotOptimize(snapshot.aliveCount());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_SnapshotBuild)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_TargetSelection(benchmark::State& state) {
  auto scenario = warmScenario(1'000);
  const auto snapshot = scenario.snapshot(Strategy::kRingCast);
  const auto& selector = cast::selectorFor(Strategy::kRingCast);
  Rng rng(5);
  std::vector<NodeId> targets;
  const auto& ids = snapshot.aliveIds();
  for (auto _ : state) {
    selector.selectTargets(snapshot, ids[rng.below(ids.size())], kNoNode, 5,
                           rng, targets);
    benchmark::DoNotOptimize(targets.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TargetSelection);

void BM_MessageCodec(benchmark::State& state) {
  net::Message msg;
  msg.kind = net::MessageKind::CyclonRequest;
  msg.from = 17;
  Rng rng(6);
  for (int i = 0; i < 8; ++i)
    msg.entries.push_back({static_cast<NodeId>(rng()),
                           static_cast<std::uint32_t>(rng.below(100))});
  for (auto _ : state) {
    const auto bytes = net::encode(msg);
    const auto decoded = net::decode(bytes);
    benchmark::DoNotOptimize(decoded.entries.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageCodec);

/// Console reporter that also captures every run for the JSON record.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double realTime = 0.0;
    double cpuTime = 0.0;
    std::string timeUnit;
    std::int64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      Captured captured{run.benchmark_name(), run.GetAdjustedRealTime(),
                        run.GetAdjustedCPUTime(),
                        benchmark::GetTimeUnitString(run.time_unit),
                        run.iterations,
                        {}};
      for (const auto& [name, counter] : run.counters)
        captured.counters.emplace_back(name, counter.value);
      captured_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

[[noreturn]] void badValue(const char* what, const std::string& value) {
  std::fprintf(stderr, "bad %s: '%s'\n", what, value.c_str());
  std::exit(2);
}

std::uint32_t parseThreads(const std::string& value) {
  std::uint32_t threads = 0;
  const char* begin = value.c_str();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, threads);
  if (result.ec != std::errc() || result.ptr != end || threads == 0)
    badValue("positive integer for --threads", value);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  std::uint32_t threads = vs07::TaskPool::defaultThreads();
  bool quick = false;

  // Strip the shared bench options; everything else goes to
  // google-benchmark untouched.
  std::vector<std::string> passthroughStore{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto valueOf = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() && arg.compare(0, flag.size() + 1,
                                                  flag + "=") == 0)
        return arg.substr(flag.size() + 1);
      if (i + 1 >= argc) badValue(("value for " + flag).c_str(), "<missing>");
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      jsonPath = valueOf("--json");
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads = parseThreads(valueOf("--threads"));
    } else {
      passthroughStore.push_back(arg);
    }
  }
  if (quick)
    // The 10k-node scenarios take minutes to warm up; CI smoke exercises
    // the cheap benchmarks plus the 1k-node gossip cycles (sequential,
    // sharded CycleSync, and sharded jittered with latency), whose
    // allocs_per_cycle counters guard the zero-allocation hot path.
    passthroughStore.push_back(
        "--benchmark_filter=BM_(MessageCodec|TargetSelection)"
        "|BM_GossipCycle/1000$|BM_ShardedGossipCycle(Latency)?/1000/2$");

  std::vector<char*> passthrough;
  for (auto& arg : passthroughStore)
    passthrough.push_back(arg.data());
  int passthroughArgc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&passthroughArgc, passthrough.data());

  // Scale metadata: nodes/runs are per-benchmark here (each BENCHMARK
  // sets its own Args), so the shared record carries 0 = not applicable
  // and the per-point data carries the real numbers. Seeds are fixed
  // per benchmark (see warmScenario etc.), so the root seed is 0 too.
  vs07::bench::Scale scale;
  scale.quick = quick;
  scale.threads = threads;
  scale.jsonPath = jsonPath;
  vs07::bench::JsonReport report("micro_protocols", scale);

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  using vs07::Json;
  Json points = Json::array();
  for (const auto& run : reporter.captured()) {
    Json point = Json::object()
                     .set("name", run.name)
                     .set("real_time", run.realTime)
                     .set("cpu_time", run.cpuTime)
                     .set("time_unit", run.timeUnit)
                     .set("iterations", run.iterations);
    if (!run.counters.empty()) {
      Json counters = Json::object();
      for (const auto& [name, value] : run.counters)
        counters.set(name, value);
      point.set("counters", std::move(counters));
    }
    points.push(std::move(point));
  }
  report.addSeries(Json::object()
                       .set("label", "microbenchmarks")
                       .set("kind", "micro")
                       .set("points", std::move(points)));
  report.write(scale);
  benchmark::Shutdown();

  // The zero-allocation assertion for gossip cycles on both engines: any
  // steady-state allocation, sequential or on any worker thread, fails the
  // whole bench run.
  bool allocFree = true;
  for (const auto& run : reporter.captured()) {
    if (run.name.rfind("BM_GossipCycle", 0) != 0 &&
        run.name.rfind("BM_ShardedGossipCycle", 0) != 0)
      continue;
    for (const auto& [name, value] : run.counters)
      if (name == "allocs_per_cycle" && value != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s allocated %.2f times/cycle in steady state "
                     "(gossip cycles must be allocation-free)\n",
                     run.name.c_str(), value);
        allocFree = false;
      }
  }
  return allocFree ? 0 : 1;
}
